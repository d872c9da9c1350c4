"""Kernel tests: angle slices, double centering, accumulated statistics, and
agreement between the fast paths and the literal reference implementation."""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcscreen import kernel
from pcscreen.errors import DimensionMismatch, InputTooLarge
from pcscreen.kernel import (
    angle_slice,
    center_slice,
    column_scores,
    pcov_stats,
    projection_correlation_sq,
    univariate_scores,
    univariate_sums,
)
from pcscreen.screening import rank_features

from .reference import angle_matrix_fsum, double_center_fsum, naive_pcov_stats


def _points(seed, n, m):
    return np.random.default_rng(seed).standard_normal((n, m))


# ---------------------------------------------------------------------------
# angle slices
# ---------------------------------------------------------------------------


def test_collinear_opposite_directions_span_pi():
    angles = angle_slice(np.array([[0.0], [1.0], [2.0]]), r=1)
    assert angles[0, 2] == math.pi
    assert angles[2, 0] == math.pi
    assert angles[0, 0] == 0.0
    assert angles[2, 2] == 0.0


def test_vertex_row_and_column_are_zero():
    angles = angle_slice(_points(0, 8, 3), r=5)
    npt.assert_array_equal(angles[5, :], 0.0)
    npt.assert_array_equal(angles[:, 5], 0.0)


def test_duplicate_of_vertex_zeroes_its_row_and_column():
    pts = _points(1, 6, 2)
    pts[3] = pts[1]
    angles = angle_slice(pts, r=1)
    npt.assert_array_equal(angles[3, :], 0.0)
    npt.assert_array_equal(angles[:, 3], 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_angles_match_extended_precision_reference(seed):
    pts = _points(seed, 6, 3)
    for r in range(6):
        angles = angle_slice(pts, r)
        npt.assert_allclose(angles, angle_matrix_fsum(pts, r), atol=1e-12)
        assert np.all(angles >= 0.0) and np.all(angles <= math.pi)
        npt.assert_array_equal(angles, angles.T)


def test_angle_slice_rejects_out_of_range_vertex():
    with pytest.raises(IndexError):
        angle_slice(_points(2, 5, 2), r=5)
    with pytest.raises(IndexError):
        angle_slice(_points(2, 5, 2), r=-1)


# ---------------------------------------------------------------------------
# double centering
# ---------------------------------------------------------------------------


def test_centering_annihilates_constants():
    npt.assert_allclose(center_slice(np.full((7, 7), math.pi)), 0.0, atol=1e-12)


def test_centering_single_entry_matches_direct_formula():
    n = 6
    v = 0.8125
    synthetic = np.zeros((n, n))
    synthetic[2, 4] = v
    centered = center_slice(synthetic)
    npt.assert_allclose(centered, double_center_fsum(synthetic), atol=1e-15)
    npt.assert_allclose(centered[2, 4], v * (1 - 1 / n) ** 2, rtol=1e-12)


def test_centered_slice_row_and_column_sums_vanish():
    pts = _points(3, 12, 2)
    tol = 1e-9 * 12 * math.pi
    for r in range(12):
        centered = center_slice(angle_slice(pts, r))
        assert np.abs(centered.sum(axis=0)).max() < tol
        assert np.abs(centered.sum(axis=1)).max() < tol


# ---------------------------------------------------------------------------
# accumulated statistics
# ---------------------------------------------------------------------------


def test_self_statistics_coincide():
    for m in (1, 3):
        x = _points(4, 10, m)
        stats = pcov_stats(x, x)
        assert stats.s_xy == stats.s_xx == stats.s_yy
        assert stats.s_xx > 0.0


def test_constant_column_gives_zero_statistics():
    x = np.full((9, 1), 2.5)
    y = _points(5, 9, 1)
    stats = pcov_stats(x, y)
    assert stats.s_xx == 0.0
    assert stats.s_xy == 0.0
    assert projection_correlation_sq(x, y) == 0.0


@given(
    n=st.integers(min_value=5, max_value=20),
    p=st.integers(min_value=1, max_value=3),
    q=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30)
def test_fast_path_matches_naive_reference(n, p, q, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = rng.standard_normal((n, q))
    fast = pcov_stats(x, y)
    slow = naive_pcov_stats(x, y)
    assert abs(fast.s_xy - slow.s_xy) <= 1e-10
    assert abs(fast.s_xx - slow.s_xx) <= 1e-10
    assert abs(fast.s_yy - slow.s_yy) <= 1e-10


def test_fast_path_matches_naive_on_tied_observations():
    rng = np.random.default_rng(6)
    x = rng.integers(0, 3, size=(12, 2)).astype(float)
    y = rng.integers(0, 2, size=(12, 1)).astype(float)
    fast = pcov_stats(x, y)
    slow = naive_pcov_stats(x, y)
    assert abs(fast.s_xy - slow.s_xy) <= 1e-10
    assert abs(fast.s_xx - slow.s_xx) <= 1e-10
    assert abs(fast.s_yy - slow.s_yy) <= 1e-10


def test_naive_reference_rejects_large_samples():
    with pytest.raises(InputTooLarge):
        naive_pcov_stats(_points(7, 65, 1), _points(8, 65, 1))


def test_row_count_mismatch_is_rejected():
    with pytest.raises(DimensionMismatch):
        pcov_stats(_points(9, 10, 1), _points(9, 11, 1))
    with pytest.raises(DimensionMismatch):
        projection_correlation_sq(_points(9, 10, 1), _points(9, 11, 1))


def test_non_finite_entries_are_rejected():
    bad = _points(10, 6, 1)
    bad[2, 0] = np.nan
    with pytest.raises(ValueError):
        pcov_stats(bad, _points(10, 6, 1))


# ---------------------------------------------------------------------------
# batched univariate kernel
# ---------------------------------------------------------------------------


def _naive_ratio(x, y):
    stats = naive_pcov_stats(x, y)
    denom = math.sqrt(stats.s_xx * stats.s_yy)
    return stats.s_xy / denom if denom > 0.0 else 0.0


@given(
    n=st.integers(min_value=5, max_value=30),
    p=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30)
def test_batched_kernel_on_tied_samples(n, p, seed):
    rng = np.random.default_rng(seed)
    x = np.column_stack([rng.integers(0, 4, size=(n, p)), np.full(n, 2)]).astype(float)
    y = rng.integers(0, 3, size=(n, 1)).astype(float)
    scores = univariate_scores(x, y[:, 0])
    ranking = rank_features(x, y)
    ranked = np.empty(p + 1)
    ranked[ranking.feature] = ranking.omega_hat
    for j in range(p + 1):
        assert abs(scores[j] - _naive_ratio(x[:, j : j + 1], y)) <= 1e-12
        assert ranked[j] == projection_correlation_sq(x[:, j : j + 1], y)
    assert scores[p] == 0.0

    # a column ordered like y (or reversed) scores exactly 1, unless y takes
    # at most two values and every slice is zero (0/0 = 0); coarsening it by
    # rounding never lifts a score above 1
    for response in (y[:, 0], y[:, 0] + rng.uniform(-0.4, 0.4, n)):
        copies = np.column_stack([response, -response, np.exp(response), np.round(response)])
        got = univariate_scores(copies, response)
        exact = 1.0 if np.unique(response).size > 2 else 0.0
        assert got[:3].tolist() == [exact] * 3
        assert got[3] <= 1.0


# ---------------------------------------------------------------------------
# slice loop: univariate columns against a multivariate response
# ---------------------------------------------------------------------------


@given(
    n=st.integers(min_value=5, max_value=20),
    p=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30)
def test_slice_loop_on_tied_samples(n, p, seed):
    rng = np.random.default_rng(seed)
    x = np.column_stack([rng.integers(0, 4, size=(n, p)), np.full(n, 2)]).astype(float)
    y = rng.integers(0, 4, size=(n, 2)).astype(float)
    scores = column_scores(x, y)
    single = np.array([projection_correlation_sq(x[:, j : j + 1], y) for j in range(p + 1)])
    for j in range(p + 1):
        assert abs(scores[j] - _naive_ratio(x[:, j : j + 1], y)) <= 1e-12
    npt.assert_allclose(scores, single, rtol=0, atol=1e-14)
    ranking = rank_features(x, y)
    npt.assert_array_equal(ranking.omega_hat, scores[ranking.feature])
    npt.assert_array_equal(ranking.feature, np.lexsort((np.arange(p + 1), -single)))
    assert np.all(np.diff(ranking.omega_hat) <= 0.0)
    assert scores[p] == 0.0
    assert np.all(scores <= 1.0)


def test_slice_loop_column_blocks_do_not_change_scores(monkeypatch):
    rng = np.random.default_rng(21)
    x = rng.standard_normal((12, 7))
    y = rng.standard_normal((12, 3))
    whole = column_scores(x, y)
    monkeypatch.setattr(kernel, "_BLOCK_ELEMENTS", 2 * 12)  # two columns a block
    npt.assert_allclose(column_scores(x, y), whole, rtol=0, atol=1e-14)


def _tie_free_self_total(n):
    # I for a tie-free sample with itself: observation r has d = G - L =
    # n - 1 - 2r, UU = n - 1, SS = n (n - 1) - d^2 and US = SU = d
    return sum(
        (n - 1) ** 2 + (n * (n - 1) - d * d) ** 2 - 2 * d * d
        for d in (n - 1 - 2 * r for r in range(n))
    )


@pytest.mark.parametrize("n", [6000, 8000])
def test_exact_sums_past_the_int64_total_range(n):
    # Totals reach 2 n^5 in the worst case, past int64 from n = 5405; for a
    # tie-free sample they are about 0.53 n^5 and wrap from n = 7050 or so.
    y = np.random.default_rng(n).permutation(n).astype(float)
    expected = _tie_free_self_total(n)
    xy, xx, yy = univariate_sums(np.column_stack([y, -y]), y)
    assert yy == expected
    assert [int(v) for v in xx] == [expected, expected]
    assert [int(v) for v in xy] == [expected, expected]
    assert univariate_scores(np.column_stack([y, -y]), y).tolist() == [1.0, 1.0]


def test_exact_sums_refuse_samples_past_the_int64_term_range():
    with pytest.raises(InputTooLarge):
        univariate_sums(np.zeros((46341, 1)), np.zeros(46341))


# ---------------------------------------------------------------------------
# correlation-level properties
# ---------------------------------------------------------------------------


def test_role_symmetry_is_bitwise():
    rng = np.random.default_rng(11)
    for p, q in ((1, 1), (2, 1), (1, 3), (2, 3)):
        x = rng.standard_normal((14, p))
        y = rng.standard_normal((14, q))
        assert projection_correlation_sq(x, y) == projection_correlation_sq(y, x)


def test_similarity_transform_invariance():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((15, 3))
    y = rng.standard_normal((15, 2))
    base = projection_correlation_sq(x, y)
    q_mat, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    moved = 2.5 * (x @ q_mat.T) + rng.standard_normal(3)
    assert abs(projection_correlation_sq(moved, y) - base) <= 1e-9


def test_joint_row_permutation_invariance():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((16, 2))
    y = rng.standard_normal((16, 1))
    base = projection_correlation_sq(x, y)
    perm = rng.permutation(16)
    assert abs(projection_correlation_sq(x[perm], y[perm]) - base) <= 1e-12


def test_value_is_bounded_by_one():
    rng = np.random.default_rng(14)
    for _ in range(25):
        n = int(rng.integers(5, 25))
        x = rng.standard_normal((n, int(rng.integers(1, 4))))
        y = rng.standard_normal((n, int(rng.integers(1, 4))))
        assert abs(projection_correlation_sq(x, y)) <= 1.0


def test_self_correlation_is_exactly_one():
    x = _points(15, 12, 2)
    assert projection_correlation_sq(x, x) == 1.0
    assert projection_correlation_sq(x[:, :1], x[:, :1]) == 1.0


def test_degenerate_self_correlation_is_zero():
    x = np.full((8, 1), 1.25)
    assert projection_correlation_sq(x, x) == 0.0


def test_statistic_spread_shrinks_with_sample_size():
    # with independent inputs the statistic concentrates as n grows
    rng = np.random.default_rng(16)

    def spread(n):
        values = []
        for _ in range(200):
            x = rng.standard_normal((n, 1))
            y = rng.standard_normal((n, 1))
            values.append(projection_correlation_sq(x, y))
        return float(np.std(values))

    assert spread(400) < spread(100)
