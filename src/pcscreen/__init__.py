"""Projection-correlation feature screening and knockoff-based FDR control.

The kernel measures dependence between arbitrary-dimension vectors through
angles of projected pairs; screening ranks features by that measure; the
knockoff machinery turns the ranking into a selection rule with false
discovery control; models/harness reproduce the simulation studies.
"""

from __future__ import annotations

from . import errors
from .errors import PcScreenError
from .fdr import (
    SelectionResult,
    WVector,
    empirical_fdp,
    knockoff_plus_threshold,
    w_statistics,
)
from .harness import (
    DesignData,
    ExperimentConfig,
    SummaryTable,
    nearest_rank_quantile,
    read_design_csv,
    run_fdr_experiment,
    run_quantile_experiment,
    write_design_csv,
)
from .kernel import as_sample_matrix, center_slice, projection_correlation_sq
from .knockoffs import (
    CovarianceEstimate,
    KnockoffModel,
    build_knockoff_model,
    equicorrelated_h,
    estimate_covariance,
    sample_knockoffs,
    sdp_h,
)
from .models import MODEL_IDS, GeneratedDataset, ModelSpec, generate_dataset
from .pipeline import (
    PcKnockoffCore,
    SplitPlan,
    pc_knockoff,
    pc_knockoff_core,
    selection_from_core,
    split_sample,
)
from .screening import (
    FeatureRanking,
    minimum_model_size,
    pearson_sis_rank,
    rank_features,
    select_top_d,
    signal_gap_diagnostic,
)

__version__ = "0.1.0"

__all__ = [
    "CovarianceEstimate",
    "DesignData",
    "ExperimentConfig",
    "FeatureRanking",
    "GeneratedDataset",
    "KnockoffModel",
    "MODEL_IDS",
    "ModelSpec",
    "PcKnockoffCore",
    "PcScreenError",
    "SelectionResult",
    "SplitPlan",
    "SummaryTable",
    "WVector",
    "as_sample_matrix",
    "build_knockoff_model",
    "center_slice",
    "empirical_fdp",
    "equicorrelated_h",
    "errors",
    "estimate_covariance",
    "generate_dataset",
    "knockoff_plus_threshold",
    "minimum_model_size",
    "nearest_rank_quantile",
    "pc_knockoff",
    "pc_knockoff_core",
    "pearson_sis_rank",
    "projection_correlation_sq",
    "rank_features",
    "read_design_csv",
    "run_fdr_experiment",
    "run_quantile_experiment",
    "sample_knockoffs",
    "sdp_h",
    "select_top_d",
    "selection_from_core",
    "signal_gap_diagnostic",
    "split_sample",
    "w_statistics",
    "write_design_csv",
]
