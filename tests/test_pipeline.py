"""End-to-end pipeline tests: sample splitting, survivor bookkeeping,
determinism, error propagation, and the equicorrelated fallback."""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest

from pcscreen.errors import (
    DegenerateColumn,
    DimensionMismatch,
    InvalidAlpha,
    InvalidSplit,
    SolverFailure,
)
from pcscreen.fdr import w_statistics
from pcscreen.knockoffs import (
    build_knockoff_model,
    estimate_covariance,
    sample_knockoffs,
    sdp_h,
)
from pcscreen.models import ModelSpec, generate_dataset
from pcscreen import pipeline
from pcscreen.pipeline import (
    pc_knockoff,
    pc_knockoff_core,
    selection_from_core,
    split_sample,
    split_sizes,
)
from pcscreen.screening import rank_features

from .memory import traced_peak


def _strong_linear(n=200, p=20, seed=0):
    ds = generate_dataset(ModelSpec(id="1a", n=n, p=p), seed=seed)
    return ds


# ---------------------------------------------------------------------------
# sample splitting
# ---------------------------------------------------------------------------


def test_split_covers_all_observations_exactly_once():
    plan = split_sample(37, 11, seed=4)
    assert plan.n1 == 11
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


@pytest.mark.parametrize(
    "args, name",
    [((10.9, 4, 0), "n"), ((10, 4.7, 0), "n1"), ((10, 4, 0.5), "seed"), ((10, True, 0), "n1")],
)
def test_split_refuses_fractional_arguments(args, name):
    with pytest.raises(ValueError, match=rf"^{name} must be a whole number, got "):
        split_sample(*args)
    whole = split_sample(10.0, 4.0, 3.0)
    assert whole.n1 == 4
    npt.assert_array_equal(whole.perm, split_sample(10, 4, 3).perm)


@pytest.mark.parametrize("n1", [0, 1, 9, 10])
def test_split_rejects_degenerate_sizes(n1):
    with pytest.raises(InvalidSplit):
        split_sample(10, n1, seed=0)


def test_default_sizes():
    # n1 = ceil(n / 4)
    assert split_sizes(1000)[0] == 250
    assert split_sizes(10)[0] == 3
    assert split_sizes(999)[0] == 250
    # d = min(floor(n2 / 2) - 1, 100)
    assert split_sizes(1000, 250)[1] == 100
    assert split_sizes(600, 150)[1] == 100
    assert split_sizes(10, 3)[1] == 2
    assert split_sizes(61, 21)[1] == 19


@pytest.mark.parametrize(
    "n, n1, d, error, message",
    [
        # the n1 range comes first, whatever d is
        (120, 1, 500, InvalidSplit, r"need 2 <= n1 <= n - 2, got n1=1 with n=120"),
        (120, 40, 40, ValueError, r"need 2d < n - n1, got d=40 with n2=80"),
        # the default d of n=5 is 0
        (5, None, None, ValueError, r"d must be at least 1, got 0"),
    ],
)
def test_split_sizes_refuse_each_rule_in_order(n, n1, d, error, message):
    with pytest.raises(error, match=message):
        split_sizes(n, n1, d)


def test_core_refuses_an_n1_past_n_as_an_invalid_split():
    # n2 = -80 breaks the 2d rule too, but the n1 range names the fault
    ds = _strong_linear(n=120, p=30)
    with pytest.raises(InvalidSplit, match=r"need 2 <= n1 <= n - 2, got n1=200 with n=120"):
        pc_knockoff_core(ds.x, ds.y, n1=200, d=10)


# ---------------------------------------------------------------------------
# report structure
# ---------------------------------------------------------------------------


def test_report_bookkeeping_fields():
    ds = _strong_linear()
    core, selection = pc_knockoff(ds.x, ds.y, alpha=0.5, n1=80, d=12, seed=3)
    assert core.survivors == tuple(sorted(core.ranking1.feature[:12].tolist()))
    assert len(core.survivors) == 12
    assert set(selection.selected) <= set(core.survivors)
    npt.assert_array_equal(core.w.feature, np.asarray(core.survivors))
    assert core.construction_used == "sdp"
    assert core.fallback_flag is False
    assert core.clip_magnitude >= 0.0
    assert set(core.timings) == {"split", "screen", "knockoff", "wstat"}
    assert all(v >= 0.0 for v in core.timings.values())


def test_screening_sees_split_one_exactly():
    # screening reads split 1 through its row index; the ranking must be the
    # one of the copied split
    for ds in (_strong_linear(seed=4), generate_dataset(ModelSpec(id="3a", n=200, p=20), 4)):
        core = pc_knockoff_core(ds.x, ds.y, n1=80, d=10, seed=9)
        rows = core.split.split1
        want = rank_features(ds.x[rows], ds.y[rows])
        npt.assert_array_equal(core.ranking1.feature, want.feature)
        assert core.ranking1.omega_hat.tobytes() == want.omega_hat.tobytes()
        assert core.ranking1.n_used == 80


def test_core_peak_memory_stays_below_a_copy_of_split_one():
    # At n1 = 200, p = 5000 a copy of split 1 is 8 MB, and the kernel works in
    # blocks of about 0.5 MB per temporary
    n, p, n1 = 400, 5000, 200
    rng = np.random.default_rng(5)
    x = rng.standard_normal((n, p))
    y = x[:, :3].sum(axis=1) + rng.standard_normal(n)
    core, peak = traced_peak(pc_knockoff_core, x, y, n1=n1, d=10, seed=0)
    assert len(core.survivors) == 10
    assert peak < n1 * p * 8


def test_core_plus_selection_equals_one_shot_run():
    ds = _strong_linear(seed=2)
    core = pc_knockoff_core(ds.x, ds.y, n1=80, d=10, seed=5)
    for alpha in (0.1, 0.3, 0.5):
        one_core, one_selection = pc_knockoff(ds.x, ds.y, alpha, n1=80, d=10, seed=5)
        assert selection_from_core(core, alpha) == one_selection
        npt.assert_array_equal(core.w.w_hat, one_core.w.w_hat)


def test_full_survivor_set_matches_unscreened_knockoff_stage():
    # With d = p every feature survives, and the knockoff stage must see
    # split 2 exactly as it would with no screening step at all.
    ds = _strong_linear(n=150, p=8, seed=6)
    core, _ = pc_knockoff(ds.x, ds.y, alpha=0.5, n1=50, d=8, seed=7)
    assert core.survivors == tuple(range(8))

    split_seed, knock_seed = pipeline._derive_seeds(7)
    plan = split_sample(150, 50, split_seed)
    npt.assert_array_equal(plan.perm, core.split.perm)
    x2 = ds.x[plan.split2]
    x2_std, cov = estimate_covariance(x2)
    model = build_knockoff_model(cov, sdp_h(cov))
    x_knock = sample_knockoffs(x2_std, model, knock_seed)
    w_manual = w_statistics(x2_std, x_knock, ds.y[plan.split2])
    npt.assert_array_equal(core.w.w_hat, w_manual.w_hat)


def test_pipeline_is_deterministic_across_thread_counts():
    # No stage runs a thread pool; repeated runs must agree bit for bit, for
    # a univariate and a bivariate response alike.
    ds = _strong_linear(seed=8)
    bivariate = np.column_stack([ds.y[:, 0], ds.x[:, 1] ** 2])
    for y in (ds.y, bivariate):
        one, one_selection = pc_knockoff(ds.x, y, alpha=0.3, n1=80, d=12, seed=1)
        two, two_selection = pc_knockoff(ds.x, y, alpha=0.3, n1=80, d=12, seed=1)
        npt.assert_array_equal(one.ranking1.omega_hat, two.ranking1.omega_hat)
        npt.assert_array_equal(one.w.w_hat, two.w.w_hat)
        assert one_selection == two_selection
        npt.assert_array_equal(one.split.perm, two.split.perm)


def test_different_seeds_change_the_split():
    ds = _strong_linear(seed=9)
    a, _ = pc_knockoff(ds.x, ds.y, alpha=0.5, n1=80, d=10, seed=0)
    b, _ = pc_knockoff(ds.x, ds.y, alpha=0.5, n1=80, d=10, seed=1)
    assert not np.array_equal(a.split.perm, b.split.perm)


# ---------------------------------------------------------------------------
# error propagation and guardrails
# ---------------------------------------------------------------------------


def test_invalid_split_propagates():
    ds = _strong_linear(n=40, p=6)
    with pytest.raises(InvalidSplit):
        pc_knockoff(ds.x, ds.y, alpha=0.5, n1=1, d=2)


def test_bad_alpha_is_refused_before_any_stage_runs(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("pc_knockoff_core ran before alpha was checked")

    monkeypatch.setattr(pipeline, "pc_knockoff_core", never)
    ds = _strong_linear(n=40, p=6)
    with pytest.raises(InvalidAlpha, match=r"alpha must lie in \(0, 1\], got 1.5"):
        pc_knockoff(ds.x, ds.y, alpha=1.5)


@pytest.mark.parametrize(
    "sizes, name",
    [
        ({"n1": 50.7, "d": 10}, "n1"),
        ({"n1": 50, "d": 10.9}, "d"),
        ({"n1": 50, "d": 10, "seed": 1.5}, "seed"),
    ],
)
def test_fractional_sizes_are_refused(sizes, name):
    ds = _strong_linear(n=120, p=12)
    with pytest.raises(ValueError, match=rf"^{name} must be a whole number, got "):
        pc_knockoff_core(ds.x, ds.y, **sizes)
    whole = pc_knockoff_core(ds.x, ds.y, n1=50.0, d=10.0, seed=0.0)
    assert whole.split.n1 == 50 and len(whole.survivors) == 10
    npt.assert_array_equal(whole.split.perm, pc_knockoff_core(ds.x, ds.y, n1=50, d=10).split.perm)


def test_row_mismatch_is_refused_before_the_split(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the sample was split before its rows were checked")

    monkeypatch.setattr(pipeline, "split_sample", never)
    ds = _strong_linear(n=40, p=6)
    with pytest.raises(DimensionMismatch, match="^x has 40 observations but y has 39$"):
        pc_knockoff_core(ds.x, ds.y[:39], n1=10, d=3)


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
    with pytest.raises(DegenerateColumn, match="feature 3 has zero variance") as caught:
        pc_knockoff(x, ds.y, alpha=0.5, n1=30, d=6)
    assert caught.value.column == 3

    # the survivors are features 5, 6 and 7, and feature 6 is constant on the
    # rows of split 2 only: the error names feature 6, not its place 1
    x = _strong_linear(n=80, p=8).x.copy()
    y = x[:, 5:].sum(axis=1)
    core = pc_knockoff_core(x, y, n1=30, d=3)
    assert core.survivors == (5, 6, 7)
    x[core.split.split2, 6] = 2.5
    with pytest.raises(DegenerateColumn) as caught:
        pc_knockoff_core(x, y, n1=30, d=3)
    assert caught.value.column == 6
    assert str(caught.value) == "feature 6 has zero variance in split 2"


def test_alpha_below_one_over_d_never_selects():
    # The ratio (1 + neg) / pos is at least 1/d, so alpha = 0.02 with d = 40
    # is infeasible no matter what the data look like.
    ds = _strong_linear(n=120, p=60, seed=10)
    _, selection = pc_knockoff(ds.x, ds.y, alpha=0.02, n1=20, d=40, seed=0)
    assert selection.t_alpha == math.inf
    assert selection.selected == ()


# ---------------------------------------------------------------------------
# behavior on a strong signal
# ---------------------------------------------------------------------------


def test_strong_signal_coverage_small_monte_carlo():
    covered = 0
    for rep in range(8):
        ds = generate_dataset(ModelSpec(id="1a", n=300, p=30), seed=500 + rep)
        _, selection = pc_knockoff(ds.x, ds.y, alpha=0.5, n1=100, d=20, seed=rep)
        if set(ds.true_active) <= set(selection.selected):
            covered += 1
    assert covered >= 6


def test_sdp_core_decomposes_sigma_once(monkeypatch):
    # estimate_covariance hands its lambda_min to sdp_h and equicorrelated_h;
    # the other two calls are sdp_h's polish check and build_knockoff_model's
    # PSD check, on 2 sigma - diag(h)
    ds = generate_dataset(ModelSpec(id="4a", n=600, p=1000), seed=0)
    covs, arguments = [], []
    estimate = pipeline.estimate_covariance
    eigvalsh = np.linalg.eigvalsh

    def kept_estimate(x):
        z, cov = estimate(x)
        covs.append(cov)
        return z, cov

    def counted_eigvalsh(a, *args, **kwargs):
        arguments.append(np.array(a, copy=True))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(pipeline, "estimate_covariance", kept_estimate)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    core = pc_knockoff_core(ds.x, ds.y, n1=150, d=50, construction="sdp", seed=0)
    assert core.construction_used == "sdp"
    (cov,) = covs
    on_sigma = [a for a in arguments if a.shape == cov.sigma.shape and np.array_equal(a, cov.sigma)]
    assert len(on_sigma) == 1
    assert len(arguments) == 3


def test_sdp_failure_falls_back_to_equicorrelated(monkeypatch):
    def broken_sdp(cov, **kwargs):
        raise SolverFailure("synthetic failure")

    monkeypatch.setattr(pipeline, "sdp_h", broken_sdp)
    ds = _strong_linear(n=150, p=10, seed=11)
    core, _ = pc_knockoff(ds.x, ds.y, alpha=0.5, n1=50, d=8, seed=2)
    assert core.construction_used == "equicorrelated"
    assert core.fallback_flag is True
    assert len(core.w.w_hat) == 8

    explicit, _ = pc_knockoff(
        ds.x, ds.y, alpha=0.5, n1=50, d=8, seed=2, construction="equicorrelated"
    )
    npt.assert_array_equal(core.w.w_hat, explicit.w.w_hat)
    assert explicit.fallback_flag is False
