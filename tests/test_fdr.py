"""Selection-layer tests: W statistics, the knockoff+ threshold, FDP
estimates, and phase-transition probabilities."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcscreen.errors import DimensionMismatch, InvalidAlpha
from pcscreen.fdr import (
    WVector,
    empirical_fdp,
    knockoff_plus_threshold,
    w_statistics,
)

from .memory import traced_peak
from .reference import (
    brute_force_selection,
    chain_stop_mass,
    coin_flip_feasibility,
    naive_pcov_stats,
    phase_transition_probabilities,
    scan_stop_frequencies,
)


def _wvec(values):
    return WVector(feature=np.arange(len(values)), w_hat=np.asarray(values, dtype=np.float64))


# ---------------------------------------------------------------------------
# w_statistics
# ---------------------------------------------------------------------------


def test_w_statistics_degenerate_knockoffs_are_exact_zero():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((30, 4))
    y = rng.standard_normal((30, 1))
    w = w_statistics(x, x.copy(), y)
    npt.assert_array_equal(w.w_hat, np.zeros(4))
    npt.assert_array_equal(w.feature, np.arange(4))


def test_w_statistics_column_swap_negates_only_that_entry():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((25, 5))
    x_knock = rng.standard_normal((25, 5))
    y = (x[:, :2].sum(axis=1) + 0.3 * rng.standard_normal(25)).reshape(-1, 1)
    base = w_statistics(x, x_knock, y)
    for j in range(5):
        xs, ks = x.copy(), x_knock.copy()
        xs[:, j], ks[:, j] = x_knock[:, j], x[:, j]
        swapped = w_statistics(xs, ks, y)
        npt.assert_allclose(swapped.w_hat[j], -base.w_hat[j], atol=1e-15)
        mask = np.arange(5) != j
        npt.assert_array_equal(swapped.w_hat[mask], base.w_hat[mask])


def _naive_pc_sq(x, y):
    stats = naive_pcov_stats(x, y)
    denom = math.sqrt(stats.s_xx * stats.s_yy)
    return stats.s_xy / denom if denom > 0 else 0.0


def test_w_statistics_matches_differenced_naive_oracle():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((15, 3))
    x_knock = rng.standard_normal((15, 3))
    y = np.tanh(x[:, [0]]) + 0.1 * rng.standard_normal((15, 1))
    w = w_statistics(x, x_knock, y)
    for j in range(3):
        expected = _naive_pc_sq(x[:, [j]], y) - _naive_pc_sq(x_knock[:, [j]], y)
        assert abs(w.w_hat[j] - expected) <= 1e-10


@given(
    n=st.integers(min_value=5, max_value=30),
    d=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30)
def test_w_statistics_are_antisymmetric_on_tied_samples(n, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 4, size=(n, d)).astype(float)
    x_knock = np.column_stack([rng.integers(0, 4, size=(n, d - 1)), np.full(n, 2)]).astype(float)
    y = rng.integers(0, 3, size=(n, 1)).astype(float)
    forward = w_statistics(x, x_knock, y).w_hat
    npt.assert_array_equal(w_statistics(x_knock, x, y).w_hat, -forward)
    for j in range(d):
        expected = _naive_pc_sq(x[:, [j]], y) - _naive_pc_sq(x_knock[:, [j]], y)
        assert abs(forward[j] - expected) <= 1e-12


def test_w_statistics_with_bivariate_response_are_thread_count_invariant():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((16, 3))
    x_knock = rng.standard_normal((16, 3))
    y = np.column_stack([x[:, 0], x[:, 1] ** 2]) + 0.2 * rng.standard_normal((16, 2))
    # Scoring runs no thread pool; batching the columns differently (here
    # one feature per call) changes W only by rounding.
    whole = w_statistics(x, x_knock, y)
    each = [w_statistics(x[:, [j]], x_knock[:, [j]], y).w_hat[0] for j in range(3)]
    npt.assert_allclose(whole.w_hat, each, rtol=0, atol=1e-14)
    npt.assert_array_equal(w_statistics(x, x_knock, y).w_hat, whole.w_hat)
    for j in range(3):
        expected = _naive_pc_sq(x[:, [j]], y) - _naive_pc_sq(x_knock[:, [j]], y)
        assert abs(whole.w_hat[j] - expected) <= 1e-10


def test_w_statistics_shape_errors():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 4))
    y = rng.standard_normal((20, 1))
    with pytest.raises(DimensionMismatch):
        w_statistics(x, rng.standard_normal((20, 3)), y)
    with pytest.raises(DimensionMismatch):
        w_statistics(x, rng.standard_normal((19, 4)), y)
    with pytest.raises(DimensionMismatch):
        w_statistics(x, x.copy(), rng.standard_normal((21, 1)))


def test_w_statistics_refuse_kernel_scores_outside_the_unit_interval(monkeypatch):
    # scores lie in [0, 1], so |W| <= 1; a kernel giving 3 for X and 0 for
    # the knockoffs is refused
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 1))
    scores = iter([np.array([3.0]), np.array([0.0])])
    monkeypatch.setattr("pcscreen.fdr.column_scores", lambda features, y: next(scores))
    with pytest.raises(ValueError, match=r"^W statistic outside \[-2, 2\]"):
        w_statistics(x, x.copy(), rng.standard_normal((20, 1)))


def test_w_statistics_peak_memory_stays_below_3_mb():
    # X and X_knock are 0.6 MB each at 750 x 100.  They are scored in place,
    # with no [X | X_knock] copy, and each part of the sweep holds one copy
    # of its block (0.3 to 0.5 MB) with the block's count arrays
    rng = np.random.default_rng(11)
    x = rng.standard_normal((750, 100))
    y = x[:, :3].sum(axis=1) + rng.standard_normal(750)
    w, peak = traced_peak(w_statistics, x, rng.standard_normal(x.shape), y)
    assert len(w.w_hat) == 100
    assert peak < 3 * 2**20


def test_w_statistics_entries_view():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((12, 2))
    w = w_statistics(x, rng.standard_normal((12, 2)), x[:, [0]])
    entries = w.entries
    assert [j for j, _ in entries] == [0, 1]
    assert [v for _, v in entries] == list(w.w_hat)


# ---------------------------------------------------------------------------
# knockoff+ threshold
# ---------------------------------------------------------------------------


def test_threshold_worked_example():
    res = knockoff_plus_threshold(_wvec([3.0, 2.0, 1.0, -1.0]), alpha=0.5)
    # t=1: (1+1)/3 > 0.5 infeasible; t=2: (1+0)/2 feasible.
    assert res.t_alpha == 2.0
    assert res.selected == (0, 1)
    assert res.fdp_hat == 0.0
    assert res.alpha == 0.5


def test_threshold_all_positive_loose_alpha_selects_everything():
    res = knockoff_plus_threshold(_wvec([0.4, 0.2, 0.9]), alpha=0.5)
    assert res.t_alpha == 0.2
    assert res.selected == (0, 1, 2)
    assert res.fdp_hat == 0.0


def test_threshold_all_negative_is_infeasible():
    res = knockoff_plus_threshold(_wvec([-0.3, -0.1, -0.7]), alpha=1.0)
    assert res.t_alpha == math.inf
    assert res.selected == ()
    assert res.fdp_hat == 0.0


def test_threshold_zeros_are_not_candidates_and_never_selected():
    # With 0 as a candidate, t=0 would be degenerate; the candidate set drops it.
    res = knockoff_plus_threshold(_wvec([0.0, 0.0, 0.5]), alpha=1.0)
    assert res.t_alpha == 0.5
    assert res.selected == (2,)

    all_zero = knockoff_plus_threshold(_wvec([0.0, 0.0]), alpha=1.0)
    assert all_zero.t_alpha == math.inf
    assert all_zero.selected == ()


def test_threshold_duplicate_magnitudes_deduplicated():
    res = knockoff_plus_threshold(_wvec([0.5, 0.5, -0.5, 0.5]), alpha=1.0)
    assert res.t_alpha == 0.5
    assert res.selected == (0, 1, 3)
    assert res.fdp_hat == pytest.approx(1 / 3)


@pytest.mark.parametrize("alpha", [0.0, -1.0, 1.5])
def test_threshold_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(InvalidAlpha):
        knockoff_plus_threshold(_wvec([0.5]), alpha)


def test_threshold_alpha_one_is_allowed():
    res = knockoff_plus_threshold(_wvec([0.5, -0.2]), alpha=1.0)
    assert res.t_alpha == 0.5


@settings(max_examples=200)
@given(
    st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, width=32),
        min_size=1,
        max_size=12,
    ),
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
)
def test_threshold_matches_brute_force_enumeration(values, alpha):
    res = knockoff_plus_threshold(_wvec(values), alpha)
    t_ref, selected_ref, fdp_ref = brute_force_selection(values, alpha)
    assert res.t_alpha == t_ref
    assert res.selected == selected_ref
    assert res.fdp_hat == pytest.approx(fdp_ref, abs=1e-15)
    if math.isfinite(res.t_alpha):
        # Self-consistency: the +1 numerator makes the estimate strictly
        # conservative relative to the bound that defined feasibility.
        assert res.fdp_hat < alpha


@settings(max_examples=100)
@given(
    st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, width=32),
        min_size=1,
        max_size=10,
    ),
    st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
)
def test_threshold_monotone_in_alpha(values, alpha_lo, bump):
    alpha_hi = min(1.0, alpha_lo + bump)
    lo = knockoff_plus_threshold(_wvec(values), alpha_lo)
    hi = knockoff_plus_threshold(_wvec(values), alpha_hi)
    assert lo.t_alpha >= hi.t_alpha
    assert set(lo.selected) <= set(hi.selected)


def test_threshold_selected_are_values_at_or_above_t():
    res = knockoff_plus_threshold(_wvec([0.9, 0.3, -0.3, 0.3, 0.1]), alpha=1.0)
    w = np.array([0.9, 0.3, -0.3, 0.3, 0.1])
    assert res.selected == tuple(np.flatnonzero(w >= res.t_alpha))


# ---------------------------------------------------------------------------
# FDP estimates
# ---------------------------------------------------------------------------


def test_empirical_fdp_cases():
    assert empirical_fdp(set(range(1, 11)), set(range(1, 11))) == 0.0
    assert empirical_fdp({20, 21}, {1, 2}) == 1.0
    assert empirical_fdp(set(range(1, 13)), set(range(1, 11))) == pytest.approx(2 / 12)
    assert empirical_fdp(set(), {1, 2, 3}) == 0.0


# ---------------------------------------------------------------------------
# phase-transition probabilities
# ---------------------------------------------------------------------------


def test_phase_first_step_is_a_fair_coin_for_any_s():
    # Arrays are indexed by sequence position; entry 0 is the a_0 = 0 seed.
    for s in (1, 2, 5, 10, 40):
        a, b, partial = phase_transition_probabilities(s, k_max=1)
        assert a[0] == 0.0 and b[0] == 0.0
        assert a[1] == 0.5
        assert b[1] == 0.5
        assert partial == 0.5


def test_phase_small_case_hand_values():
    # s=1: floor((k-1)/2) caps the binomial sum.
    a, b, partial = phase_transition_probabilities(1, k_max=4)
    expected_a = [0.0, 0.5, 0.25, 0.5, 0.3125]  # C(k,<=floor((k-1)/2)) / 2^k
    npt.assert_allclose(a, expected_a, rtol=0, atol=0)
    npt.assert_allclose(b[1], 0.5)
    npt.assert_allclose(b[2], 0.25 * (1 - 0.5))
    npt.assert_allclose(b[3], 0.5 * (1 - 0.75))
    npt.assert_allclose(b[4], 0.3125 * max(0.0, 1 - 1.25))
    assert partial == pytest.approx(b.sum())


def test_phase_probability_bounds_and_partial_sum():
    for s in (1, 3, 10):
        a, b, partial = phase_transition_probabilities(s, k_max=80)
        assert np.all(a >= 0) and np.all(a <= 1)
        assert np.all(b >= 0)
        assert np.all(b <= a + 1e-15)
        assert 0.0 <= partial <= 1.0


def test_phase_log_branch_matches_exact_rationals():
    # every a_k is the correctly rounded binomial tail, past k = 50 as well
    for s in (1, 3, 10):
        a, _, _ = phase_transition_probabilities(s, k_max=120)
        for k in range(1, 121):
            cap = (k - 1) // (s + 1)
            exact = sum(Fraction(math.comb(k, i), 2**k) for i in range(cap + 1))
            assert a[k] == float(exact), (s, k)


def test_phase_feasibility_frequencies_match_formula():
    # Simulated fair-sign feasibility event at each depth k, compared to a_k.
    ahat = coin_flip_feasibility(s=10, k_max=40, trials=100_000, seed=99)
    a, b, _ = phase_transition_probabilities(10, k_max=40)
    npt.assert_allclose(ahat, a, atol=0.02)
    bhat = chain_stop_mass(ahat)
    npt.assert_allclose(bhat, b, atol=0.02)


@pytest.mark.xfail(
    strict=True,
    reason="stop-by-k scan frequencies are not the b-chain partial sums; "
    "the chain double-counts overlapping feasibility events",
)
def test_phase_scan_stop_frequencies_match_partial_sums():
    stop = scan_stop_frequencies(s=10, k_max=40, trials=100_000, seed=99)
    _, b, _ = phase_transition_probabilities(10, k_max=40)
    npt.assert_allclose(stop, np.cumsum(b), atol=0.02)


def test_phase_input_validation():
    with pytest.raises(ValueError):
        phase_transition_probabilities(0, k_max=5)
    with pytest.raises(ValueError):
        phase_transition_probabilities(3, k_max=0)
