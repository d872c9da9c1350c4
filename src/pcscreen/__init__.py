"""Projection-correlation feature screening and knockoff-based FDR control.

The kernel measures dependence between arbitrary-dimension vectors through
angles of projected pairs; screening ranks features by that measure; the
knockoff machinery turns the ranking into a selection rule with false
discovery control; models/harness reproduce the simulation studies.
"""

from __future__ import annotations

from . import errors
from .cli import cli_main
from .errors import PcScreenError
from .fdr import (
    SelectionResult,
    WVector,
    empirical_fdp,
    estimate_active_count,
    estimate_fdp,
    knockoff_plus_threshold,
    phase_transition_probabilities,
    w_statistics,
)
from .harness import (
    DesignData,
    ExperimentConfig,
    FdrTable,
    PhaseTable,
    QuantileTable,
    nearest_rank_quantile,
    read_design_csv,
    run_fdr_experiment,
    run_phase_transition,
    run_quantile_experiment,
    write_design_csv,
)
from .kernel import (
    PcStats,
    angle_slice,
    as_sample_matrix,
    center_slice,
    pcov_stats,
    projection_correlation_sq,
)
from .knockoffs import (
    CovarianceEstimate,
    KnockoffModel,
    build_knockoff_model,
    equicorrelated_h,
    estimate_covariance,
    sample_knockoffs,
    sdp_h,
    standardize,
)
from .models import MODEL_IDS, GeneratedDataset, ModelSpec, ar_covariance, generate_dataset
from .pipeline import (
    PcKnockoffCore,
    PcKnockoffReport,
    SplitPlan,
    pc_knockoff,
    pc_knockoff_core,
    selection_from_core,
    split_sample,
)
from .screening import (
    ActiveSetEstimate,
    FeatureRanking,
    minimum_model_size,
    pearson_sis_rank,
    rank_features,
    select_by_threshold,
    select_top_d,
    signal_gap_diagnostic,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveSetEstimate",
    "CovarianceEstimate",
    "DesignData",
    "ExperimentConfig",
    "FdrTable",
    "FeatureRanking",
    "GeneratedDataset",
    "KnockoffModel",
    "MODEL_IDS",
    "ModelSpec",
    "PcKnockoffCore",
    "PcKnockoffReport",
    "PcScreenError",
    "PcStats",
    "PhaseTable",
    "QuantileTable",
    "SelectionResult",
    "SplitPlan",
    "WVector",
    "angle_slice",
    "ar_covariance",
    "as_sample_matrix",
    "build_knockoff_model",
    "center_slice",
    "cli_main",
    "empirical_fdp",
    "equicorrelated_h",
    "errors",
    "estimate_active_count",
    "estimate_covariance",
    "estimate_fdp",
    "generate_dataset",
    "knockoff_plus_threshold",
    "minimum_model_size",
    "nearest_rank_quantile",
    "pc_knockoff",
    "pc_knockoff_core",
    "pcov_stats",
    "pearson_sis_rank",
    "phase_transition_probabilities",
    "projection_correlation_sq",
    "rank_features",
    "read_design_csv",
    "run_fdr_experiment",
    "run_phase_transition",
    "run_quantile_experiment",
    "sample_knockoffs",
    "sdp_h",
    "select_by_threshold",
    "select_top_d",
    "selection_from_core",
    "signal_gap_diagnostic",
    "split_sample",
    "standardize",
    "w_statistics",
    "write_design_csv",
]
