"""End-to-end pipeline tests: sample splitting, survivor bookkeeping,
determinism, error propagation, and the equicorrelated fallback."""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest

from pcscreen.errors import DegenerateColumn, InvalidSplit, SolverFailure
from pcscreen.fdr import w_statistics
from pcscreen.knockoffs import (
    build_knockoff_model,
    estimate_covariance,
    sample_knockoffs,
    sdp_h,
    standardize,
)
from pcscreen.models import ModelSpec, generate_dataset
from pcscreen import pipeline
from pcscreen.pipeline import (
    default_split_size,
    default_survivor_count,
    pc_knockoff,
    pc_knockoff_core,
    selection_from_core,
    split_sample,
)


def _strong_linear(n=200, p=20, seed=0):
    ds = generate_dataset(ModelSpec(id="1a", n=n, p=p), seed=seed)
    return ds


# ---------------------------------------------------------------------------
# sample splitting
# ---------------------------------------------------------------------------


def test_split_covers_all_observations_exactly_once():
    plan = split_sample(37, 11, seed=4)
    assert plan.n1 == 11 and plan.n2 == 26
    assert len(plan.split1) == 11 and len(plan.split2) == 26
    combined = np.concatenate([plan.split1, plan.split2])
    npt.assert_array_equal(np.sort(combined), np.arange(37))


def test_split_is_deterministic_per_seed():
    a = split_sample(50, 20, seed=9)
    b = split_sample(50, 20, seed=9)
    npt.assert_array_equal(a.perm, b.perm)
    c = split_sample(50, 20, seed=10)
    assert not np.array_equal(a.perm, c.perm)


def test_split_membership_is_uniform():
    hits = sum(
        0 in set(split_sample(10, 5, seed).split1.tolist()) for seed in range(10_000)
    )
    assert 0.48 <= hits / 10_000 <= 0.52


@pytest.mark.parametrize("n1", [0, 1, 9, 10])
def test_split_rejects_degenerate_sizes(n1):
    with pytest.raises(InvalidSplit):
        split_sample(10, n1, seed=0)


def test_default_sizes():
    assert default_split_size(1000) == 250
    assert default_split_size(10) == 3
    assert default_split_size(999) == 250
    # d = min(floor(n2 / 2) - 1, 100)
    assert default_survivor_count(1000, 250) == 100
    assert default_survivor_count(600, 150) == 100
    assert default_survivor_count(10, 3) == 2
    assert default_survivor_count(61, 21) == 19


# ---------------------------------------------------------------------------
# report structure
# ---------------------------------------------------------------------------


def test_report_bookkeeping_fields():
    ds = _strong_linear()
    rpt = pc_knockoff(ds.x, ds.y, alpha=0.5, n1=80, d=12, seed=3)
    assert rpt.survivors == tuple(sorted(rpt.a_hat_1.indices))
    assert len(rpt.survivors) == 12
    assert set(rpt.selection.selected) <= set(rpt.survivors)
    npt.assert_array_equal(rpt.w.feature, np.asarray(rpt.survivors))
    assert rpt.construction_used == "sdp"
    assert rpt.fallback_flag is False
    assert rpt.clip_magnitude >= 0.0
    assert set(rpt.timings) == {"split", "screen", "knockoff", "wstat", "select"}
    assert all(v >= 0.0 for v in rpt.timings.values())


def test_core_plus_selection_equals_one_shot_run():
    ds = _strong_linear(seed=2)
    core = pc_knockoff_core(ds.x, ds.y, n1=80, d=10, seed=5)
    for alpha in (0.1, 0.3, 0.5):
        via_core = selection_from_core(core, alpha)
        one_shot = pc_knockoff(ds.x, ds.y, alpha, n1=80, d=10, seed=5)
        assert via_core.selection == one_shot.selection
        npt.assert_array_equal(via_core.w.w_hat, one_shot.w.w_hat)


def test_full_survivor_set_matches_unscreened_knockoff_stage():
    # With d = p every feature survives, and the knockoff stage must see
    # split 2 exactly as it would with no screening step at all.
    ds = _strong_linear(n=150, p=8, seed=6)
    rpt = pc_knockoff(ds.x, ds.y, alpha=0.5, n1=50, d=8, seed=7)
    assert rpt.survivors == tuple(range(8))

    split_seed, knock_seed = pipeline._derive_seeds(7)
    plan = split_sample(150, 50, split_seed)
    npt.assert_array_equal(plan.perm, rpt.split.perm)
    x2 = ds.x[plan.split2]
    cov = estimate_covariance(x2)
    x2_std = standardize(x2, cov)
    model = build_knockoff_model(cov, sdp_h(cov), construction="sdp")
    x_knock = sample_knockoffs(x2_std, model, knock_seed)
    w_manual = w_statistics(x2_std, x_knock, ds.y[plan.split2])
    npt.assert_array_equal(rpt.w.w_hat, w_manual.w_hat)


def test_pipeline_is_deterministic_across_thread_counts():
    # No stage runs a thread pool; repeated runs must agree bit for bit, for
    # a univariate and a bivariate response alike.
    ds = _strong_linear(seed=8)
    bivariate = np.column_stack([ds.y[:, 0], ds.x[:, 1] ** 2])
    for y in (ds.y, bivariate):
        one = pc_knockoff(ds.x, y, alpha=0.3, n1=80, d=12, seed=1)
        two = pc_knockoff(ds.x, y, alpha=0.3, n1=80, d=12, seed=1)
        npt.assert_array_equal(one.ranking1.omega_hat, two.ranking1.omega_hat)
        npt.assert_array_equal(one.w.w_hat, two.w.w_hat)
        assert one.selection == two.selection
        npt.assert_array_equal(one.split.perm, two.split.perm)


def test_different_seeds_change_the_split():
    ds = _strong_linear(seed=9)
    a = pc_knockoff(ds.x, ds.y, alpha=0.5, n1=80, d=10, seed=0)
    b = pc_knockoff(ds.x, ds.y, alpha=0.5, n1=80, d=10, seed=1)
    assert not np.array_equal(a.split.perm, b.split.perm)


# ---------------------------------------------------------------------------
# error propagation and guardrails
# ---------------------------------------------------------------------------


def test_invalid_split_propagates():
    ds = _strong_linear(n=40, p=6)
    with pytest.raises(InvalidSplit):
        pc_knockoff(ds.x, ds.y, alpha=0.5, n1=1, d=2)


def test_survivor_count_validation():
    ds = _strong_linear(n=60, p=10)
    with pytest.raises(ValueError):
        pc_knockoff(ds.x, ds.y, alpha=0.5, n1=20, d=0)
    with pytest.raises(ValueError):
        # 2d must stay below n2 = 40
        pc_knockoff(ds.x, ds.y, alpha=0.5, n1=20, d=20)


def test_unknown_construction_rejected():
    ds = _strong_linear(n=60, p=10)
    with pytest.raises(ValueError):
        pc_knockoff(ds.x, ds.y, alpha=0.5, n1=20, d=5, construction="cholesky")


def test_degenerate_survivor_column_propagates():
    ds = _strong_linear(n=80, p=6)
    x = ds.x.copy()
    x[:, 3] = 2.5  # constant column; survives when every feature does
    with pytest.raises(DegenerateColumn):
        pc_knockoff(x, ds.y, alpha=0.5, n1=30, d=6)


def test_alpha_below_one_over_d_never_selects():
    # The ratio (1 + neg) / pos is at least 1/d, so alpha = 0.02 with d = 40
    # is infeasible no matter what the data look like.
    ds = _strong_linear(n=120, p=60, seed=10)
    rpt = pc_knockoff(ds.x, ds.y, alpha=0.02, n1=20, d=40, seed=0)
    assert rpt.selection.t_alpha == math.inf
    assert rpt.selection.selected == ()


# ---------------------------------------------------------------------------
# behavior on a strong signal
# ---------------------------------------------------------------------------


def test_strong_signal_coverage_small_monte_carlo():
    covered = 0
    for rep in range(8):
        ds = generate_dataset(ModelSpec(id="1a", n=300, p=30), seed=500 + rep)
        rpt = pc_knockoff(ds.x, ds.y, alpha=0.5, n1=100, d=20, seed=rep)
        if set(ds.true_active) <= set(rpt.selection.selected):
            covered += 1
    assert covered >= 6


def test_sdp_failure_falls_back_to_equicorrelated(monkeypatch):
    def broken_sdp(cov, **kwargs):
        raise SolverFailure("synthetic failure")

    monkeypatch.setattr(pipeline, "sdp_h", broken_sdp)
    ds = _strong_linear(n=150, p=10, seed=11)
    rpt = pc_knockoff(ds.x, ds.y, alpha=0.5, n1=50, d=8, seed=2)
    assert rpt.construction_used == "equicorrelated"
    assert rpt.fallback_flag is True
    assert len(rpt.w.w_hat) == 8

    explicit = pc_knockoff(
        ds.x, ds.y, alpha=0.5, n1=50, d=8, seed=2, construction="equicorrelated"
    )
    npt.assert_array_equal(rpt.w.w_hat, explicit.w.w_hat)
    assert explicit.fallback_flag is False
