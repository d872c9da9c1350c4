"""Kernel tests: angle slices, double centering, accumulated statistics, and
agreement between the fast paths and the literal reference implementation."""

from __future__ import annotations

import math
import os
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcscreen import kernel, placement
from pcscreen.errors import DimensionMismatch, InputTooLarge
from pcscreen.kernel import (
    center_slice,
    column_scores,
    projection_correlation_sq,
    univariate_sums,
)
from pcscreen.screening import rank_features

from .cpus import only_cpus
from .reference import (
    angle_matrix_fsum,
    double_center_fsum,
    exact_univariate_totals,
    kernel_pcov_stats,
    naive_pcov_stats,
)


def _points(seed, n, m):
    return np.random.default_rng(seed).standard_normal((n, m))


@pytest.mark.parametrize(
    ("value", "expected"),
    [
        (2, 2),
        (2.0, 2),
        (np.int64(2), 2),
        (np.uint8(2), 2),
        (np.float32(2.0), 2),
        (True, "got True"),
        (np.bool_(True), "got np.True_"),
        (np.bool_(False), "got np.False_"),
        (2.5, "got 2.5"),
        (np.float32(2.5), "got np.float32(2.5)"),
        (np.float16(-0.5), "got np.float16(-0.5)"),
    ],
)
def test_count_rule_takes_numpy_scalars_like_python_numbers(value, expected):
    if isinstance(expected, str):
        message = f"^count must be a whole number, {re.escape(expected)}$"
        with pytest.raises(ValueError, match=message):
            kernel._whole(value, "count", 1)
        return
    got = kernel._whole(value, "count", 1)
    assert (got, type(got)) == (expected, int)


@pytest.mark.parametrize(
    ("value", "expected"),
    [
        (Fraction(4, 2), 2),
        (Decimal("2.0"), 2),
        ("2", 2),
        (" 3 ", 3),
        (10**30, 10**30),
        (Fraction(5, 2), "got Fraction(5, 2)"),
        (Decimal("2.5"), "got Decimal('2.5')"),
        (Decimal("NaN"), "got Decimal('NaN')"),
        ("2.5", "got '2.5'"),
        ("two", "got 'two'"),
        (float("inf"), "got inf"),
        (np.float64("nan"), "got np.float64(nan)"),
    ],
)
def test_count_rule_refuses_what_int_would_change(value, expected):
    # int() truncates a Fraction or Decimal and raises its own message for a
    # string it cannot read; the rule refuses both with its message
    if isinstance(expected, str):
        message = f"^count must be a whole number, {re.escape(expected)}$"
        with pytest.raises(ValueError, match=message):
            kernel._whole(value, "count", 1)
        return
    got = kernel._whole(value, "count", 1)
    assert (got, type(got)) == (expected, int)


# ---------------------------------------------------------------------------
# angle slices
# ---------------------------------------------------------------------------


def test_collinear_opposite_directions_span_pi():
    angles = kernel._angle_slice_raw(np.array([[0.0], [1.0], [2.0]]), r=1)
    assert angles[0, 2] == math.pi
    assert angles[2, 0] == math.pi
    assert angles[0, 0] == 0.0
    assert angles[2, 2] == 0.0


@pytest.mark.parametrize("direction", [(1.0, 1.0), (1.0, -2.0, 3.0)])
def test_collinear_differences_span_zero_or_pi(direction):
    # x_k - x_0 = t_k d: equal signs of t span 0, opposite ones pi.  A power
    # of two scales a norm exactly, so the first six t give exact angles;
    # other multiples round their norms, which shows in the last bit or two
    t = np.array([0.0, 1.0, 2.0, -1.0, 0.5, -4.0, 3.0, -2.5])
    angles = kernel._angle_slice_raw(np.outer(t, direction), r=0)
    expected = np.where(np.outer(t, t) < 0.0, math.pi, 0.0)
    npt.assert_array_equal(angles[:6, :6], expected[:6, :6])
    npt.assert_allclose(angles, expected, rtol=0, atol=1e-15)


def test_nearly_parallel_differences_keep_their_small_angle():
    # (0.1, 0.2, 0.3) and (0.3, 0.6, 0.9) are parallel but for the rounding
    # of their decimals: the angle between the doubles is 7.4e-17
    points = np.array([[0.0, 0.0, 0.0], [0.1, 0.2, 0.3], [0.3, 0.6, 0.9]])
    angles = kernel._angle_slice_raw(points, r=0)
    assert angles[1, 2] == angles[2, 1] <= 1e-15


def test_vertex_row_and_column_are_zero():
    angles = kernel._angle_slice_raw(_points(0, 8, 3), r=5)
    npt.assert_array_equal(angles[5, :], 0.0)
    npt.assert_array_equal(angles[:, 5], 0.0)


def test_duplicate_of_vertex_zeroes_its_row_and_column():
    pts = _points(1, 6, 2)
    pts[3] = pts[1]
    angles = kernel._angle_slice_raw(pts, r=1)
    npt.assert_array_equal(angles[3, :], 0.0)
    npt.assert_array_equal(angles[:, 3], 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_angles_match_extended_precision_reference(seed):
    pts = _points(seed, 6, 3)
    for r in range(6):
        angles = kernel._angle_slice_raw(pts, r)
        npt.assert_allclose(angles, angle_matrix_fsum(pts, r), atol=1e-12)
        assert np.all(angles >= 0.0) and np.all(angles <= math.pi)
        npt.assert_array_equal(angles, angles.T)


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
        centered = center_slice(kernel._angle_slice_raw(pts, r))
        assert np.abs(centered.sum(axis=0)).max() < tol
        assert np.abs(centered.sum(axis=1)).max() < tol


# ---------------------------------------------------------------------------
# accumulated statistics
# ---------------------------------------------------------------------------


def test_self_statistics_coincide():
    for m in (1, 3):
        x = _points(4, 10, m)
        stats = kernel_pcov_stats(x, x)
        assert stats.s_xy == stats.s_xx == stats.s_yy
        assert stats.s_xx > 0.0


def test_constant_column_gives_zero_statistics():
    x = np.full((9, 1), 2.5)
    y = _points(5, 9, 1)
    stats = kernel_pcov_stats(x, y)
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
    fast = kernel_pcov_stats(x, y)
    slow = naive_pcov_stats(x, y)
    assert abs(fast.s_xy - slow.s_xy) <= 1e-10
    assert abs(fast.s_xx - slow.s_xx) <= 1e-10
    assert abs(fast.s_yy - slow.s_yy) <= 1e-10


def test_fast_path_matches_naive_on_tied_observations():
    rng = np.random.default_rng(6)
    x = rng.integers(0, 3, size=(12, 2)).astype(float)
    y = rng.integers(0, 2, size=(12, 1)).astype(float)
    fast = kernel_pcov_stats(x, y)
    slow = naive_pcov_stats(x, y)
    assert abs(fast.s_xy - slow.s_xy) <= 1e-10
    assert abs(fast.s_xx - slow.s_xx) <= 1e-10
    assert abs(fast.s_yy - slow.s_yy) <= 1e-10


def test_naive_reference_rejects_large_samples():
    with pytest.raises(InputTooLarge):
        naive_pcov_stats(_points(7, 65, 1), _points(8, 65, 1))


def test_row_count_mismatch_is_rejected():
    with pytest.raises(DimensionMismatch):
        kernel_pcov_stats(_points(9, 10, 1), _points(9, 11, 1))
    with pytest.raises(DimensionMismatch):
        projection_correlation_sq(_points(9, 10, 1), _points(9, 11, 1))


def test_non_finite_entries_are_rejected():
    bad = _points(10, 6, 1)
    bad[2, 0] = np.nan
    with pytest.raises(ValueError):
        projection_correlation_sq(bad, _points(10, 6, 1))


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
    scores = column_scores(x, y)
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
        got = column_scores(copies, response[:, None])
        exact = 1.0 if np.unique(response).size > 2 else 0.0
        assert got[:3].tolist() == [exact] * 3
        assert got[3] <= 1.0


# ---------------------------------------------------------------------------
# slice loop: univariate columns against a multivariate response
# ---------------------------------------------------------------------------


@given(
    n=st.integers(min_value=5, max_value=20),
    p=st.integers(min_value=0, max_value=4),
    q=st.sampled_from([2, 3]),
    seed=st.integers(min_value=0, max_value=2**31),
)
# the scores of columns 0 and 1 tie exactly; the slice loop leaves them 5
# ulps apart and ranks column 1 first, as one-column calls do (a batched
# call once ranked them unlike one-column calls)
@example(n=5, p=2, q=2, seed=255263)
# columns 2 and 3 tie exactly and score equal in the batched call, while the
# one-column call scores column 3 1 ulp higher: ranks follow the batched scores
@example(n=5, p=4, q=2, seed=3770)
@settings(max_examples=30)
def test_slice_loop_on_tied_samples(n, p, q, seed):
    rng = np.random.default_rng(seed)
    x = np.column_stack([rng.integers(0, 4, size=(n, p)), np.full(n, 2)]).astype(float)
    y = rng.integers(0, 4, size=(n, q)).astype(float)
    scores = column_scores(x, y)
    single = np.array([projection_correlation_sq(x[:, j : j + 1], y) for j in range(p + 1)])
    for j in range(p + 1):
        assert abs(scores[j] - _naive_ratio(x[:, j : j + 1], y)) <= 1e-12
    npt.assert_allclose(scores, single, rtol=0, atol=1e-14)
    ranking = rank_features(x, y)
    npt.assert_array_equal(ranking.omega_hat, scores[ranking.feature])
    npt.assert_array_equal(ranking.feature, np.lexsort((np.arange(p + 1), -scores)))
    assert np.all(np.diff(ranking.omega_hat) <= 0.0)
    assert scores[p] == 0.0
    assert np.all(scores <= 1.0)


def test_slice_loop_scores_a_tied_sample_to_the_last_bits():
    # column 0 of the case n=5, p=1, q=2, seed 6 of the test above; its
    # score to 40 digits was computed once with mpmath 1.3.0 at 60 digits,
    # from atan2(|u ^ v|, u . v), so the test needs no mpmath
    x = np.array([[1.0], [2.0], [2.0], [1.0], [3.0]])
    y = np.array([[1.0, 2.0], [1.0, 1.0], [3.0, 0.0], [2.0, 1.0], [2.0, 3.0]])
    exact = 0.05082988681120184243213716097341308107735
    assert abs(column_scores(x, y)[0] - exact) <= 1e-15
    assert abs(projection_correlation_sq(x, y) - exact) <= 1e-15


def test_slice_loop_column_blocks_do_not_change_scores(monkeypatch):
    rng = np.random.default_rng(21)
    x = rng.standard_normal((12, 7))
    y = rng.standard_normal((12, 3))
    whole = column_scores(x, y)
    monkeypatch.setattr(kernel, "_BLOCK_ELEMENTS", 2 * 12)  # two columns a block
    npt.assert_allclose(column_scores(x, y), whole, rtol=0, atol=1e-14)


def _tied_sample(n):
    # y ties places 58..69 of its order and its last three places (the two
    # groups overlap below n = 70): at n = 65 and 129 a group straddles a
    # 64-row word boundary, at n = 63 and 64 the last one ends at place n.
    # x has integer ties, a constant column and copies of y's ordering.
    rng = np.random.default_rng(n)
    y = np.arange(n, dtype=float)
    y[58:70] = 58.0
    y[n - 3 :] = n - 3
    y = rng.permutation(y)
    x = np.column_stack(
        [rng.integers(0, k, size=n) for k in (2, 5, n // 3)] + [np.ones(n), y, -y, y // 4]
    ).astype(float)
    return x, y


@pytest.mark.parametrize("block_elements", [None, 1, 3 * 129])
@pytest.mark.parametrize("n", [63, 64, 65, 129])
def test_exact_sums_match_the_sign_vector_loop(monkeypatch, n, block_elements):
    # a column block holds _BLOCK_ELEMENTS // n columns: the default takes all
    # seven at once, 1 one at a time, 3 * 129 three to six with a partial last
    if block_elements is not None:
        monkeypatch.setattr(kernel, "_BLOCK_ELEMENTS", block_elements)
    x, y = _tied_sample(n)
    xy, xx, yy = univariate_sums(x, y)
    assert ([int(v) for v in xy], [int(v) for v in xx], int(yy)) == exact_univariate_totals(x, y)


@st.composite
def _small_alphabet_sample(draw):
    # five values, two of them the tied 0.0 and -0.0: nearly every sample has
    # ties in x and y, and n up to 140 crosses two 64-row words, runs tied in
    # both x and y included
    n = draw(st.integers(min_value=2, max_value=140))
    p = draw(st.integers(min_value=1, max_value=4))
    values = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])
    cells = draw(st.lists(values, min_size=n * (p + 1), max_size=n * (p + 1)))
    grid = np.array(cells).reshape(n, p + 1)
    return grid[:, :p], grid[:, p]


@given(sample=_small_alphabet_sample())
@settings(max_examples=60)
def test_small_alphabet_sums_match_the_sign_vector_loop(sample):
    x, y = sample
    expected = exact_univariate_totals(x, y)
    for block_elements in (kernel._BLOCK_ELEMENTS, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "_BLOCK_ELEMENTS", block_elements)
            xy, xx, yy = univariate_sums(x, y)
        assert ([int(v) for v in xy], [int(v) for v in xx], int(yy)) == expected


@st.composite
def _small_alphabet_against_continuous(draw):
    # x ties in nearly every column, y never: the blocks count in x order with
    # tie terms.  Half the samples go through a row index; a repeated row
    # ties y, and those blocks count in y order.
    n = draw(st.integers(min_value=2, max_value=140))
    p = draw(st.integers(min_value=1, max_value=4))
    values = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])
    x = np.array(draw(st.lists(values, min_size=n * p, max_size=n * p))).reshape(n, p)
    y = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31))).standard_normal(n)
    rows = None
    if draw(st.booleans()):
        rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2 * n + 2)))
    return x, y, rows


@given(sample=_small_alphabet_against_continuous())
@settings(max_examples=60)
def test_tied_columns_against_an_untied_response_match_the_exact_totals(sample):
    x, y, rows = sample
    expected = exact_univariate_totals(*((x, y) if rows is None else (x[rows], y[rows])))
    for block_elements in (kernel._BLOCK_ELEMENTS, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "_BLOCK_ELEMENTS", block_elements)
            xy, xx, yy = univariate_sums(x, y, rows)
        assert ([int(v) for v in xy], [int(v) for v in xx], int(yy)) == expected


def _count_response_sample(n):
    # tie-free columns against a Poisson count response, as in models 1f and
    # 4e: y ties in groups of a few to dozens of rows, and at this seed a y
    # tie group straddles every 64-row word boundary below n
    rng = np.random.default_rng(33000 + n)
    x = rng.standard_normal((n, 5))
    y = rng.poisson(np.exp(0.5 * x[:, 0])).astype(float)
    return x, y


@pytest.mark.parametrize("n", [63, 64, 65, 129, 200])
def test_count_response_sums_match_the_sign_vector_loop(monkeypatch, n):
    # the shape of a screen of a count response: every block has y ties and
    # no x tie
    x, y = _count_response_sample(n)
    ordered = np.sort(y)
    assert all(ordered[k - 1] == ordered[k] for k in range(64, n, 64))
    expected = exact_univariate_totals(x, y)
    for block_elements in (kernel._BLOCK_ELEMENTS, 1, 3 * n):
        with monkeypatch.context() as patch:
            patch.setattr(kernel, "_BLOCK_ELEMENTS", block_elements)
            xy, xx, yy = univariate_sums(x, y)
        assert ([int(v) for v in xy], [int(v) for v in xx], int(yy)) == expected


@pytest.mark.parametrize("case", ["tie_free", "count_response", "small_alphabet"])
def test_repeated_rows_match_the_exact_totals(case):
    # 140 draws of 50 rows: each row comes about three times, and in every
    # column a run of rows tied in both x and y straddles place 64 or 128
    rng = np.random.default_rng(31)
    x = rng.standard_normal((50, 3))
    if case == "small_alphabet":
        x = rng.integers(0, 3, size=(50, 3)).astype(float)
    y = rng.standard_normal(50) if case == "tie_free" else rng.poisson(2.0, size=50).astype(float)
    rows = rng.integers(0, 50, size=140)
    xy, xx, yy = univariate_sums(x, y, rows)
    got = ([int(v) for v in xy], [int(v) for v in xx], int(yy))
    assert got == exact_univariate_totals(x[rows], y[rows])


def _tie_free_self_total(n):
    # I for a tie-free sample with itself: observation r has d = G - L =
    # n - 1 - 2r, UU = n - 1, SS = n (n - 1) - d^2 and US = SU = d
    return sum(
        (n - 1) ** 2 + (n * (n - 1) - d * d) ** 2 - 2 * d * d
        for d in (n - 1 - 2 * r for r in range(n))
    )


def _tie_free_sample(n, p=5):
    rng = np.random.default_rng(1000 + n)
    y = rng.standard_normal(n)
    x = np.column_stack([rng.standard_normal((n, p - 2)), y, -np.exp(y)])
    return x, y


@pytest.mark.parametrize("block_elements", [None, 1, "3n"])
@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 129])
def test_tie_free_sums_match_the_sign_vector_loop(monkeypatch, n, block_elements):
    # no sample has a tie, so every block takes the closed form on one joint
    # count; "3n" puts three columns in a block, with a partial last one
    if block_elements is not None:
        monkeypatch.setattr(kernel, "_BLOCK_ELEMENTS", 3 * n if block_elements == "3n" else 1)
    x, y = _tie_free_sample(n)
    xy, xx, yy = univariate_sums(x, y)
    expected = exact_univariate_totals(x, y)
    assert ([int(v) for v in xy], [int(v) for v in xx], int(yy)) == expected
    assert expected[1] == [_tie_free_self_total(n)] * 5 and expected[2] == _tie_free_self_total(n)


def _block_passes(monkeypatch):
    # one entry per column block: the rows of its one _joint_below pass, the
    # order it counted in, then the formula its cross totals took.  A block
    # counts in x order when the pass gets the argsort of its columns itself;
    # in y order it gets a new array, built from that argsort's inverse.
    blocks = []
    sorted_counts, joint_below = kernel._sorted_counts, kernel._joint_below
    orders = []

    def sort_spy(columns):
        counts = sorted_counts(columns)
        orders.append(counts[0])
        return counts

    def spy(rank):
        blocks.append([len(rank), "x order" if rank is orders[-1] else "y order"])
        return joint_below(rank)

    monkeypatch.setattr(kernel, "_sorted_counts", sort_spy)
    monkeypatch.setattr(kernel, "_joint_below", spy)
    for name, formula in (("_tie_free_cross_totals", "closed form"), ("_tied_cross_totals", "ties")):

        def record(*args, totals=getattr(kernel, name), formula=formula):
            blocks[-1].append(formula)
            return totals(*args)

        monkeypatch.setattr(kernel, name, record)
    return blocks


@pytest.mark.parametrize("n", [3, 64, 65])
def test_one_tie_sends_its_block_to_the_general_formulas(monkeypatch, n):
    x, y = _tie_free_sample(n, p=6)
    monkeypatch.setattr(kernel, "_BLOCK_ELEMENTS", 3 * n)  # blocks of columns 0-2 and 3-5
    blocks = _block_passes(monkeypatch)
    x_tie = x.copy()
    x_tie[1, 4] = x_tie[0, 4]
    y_tie = np.where(np.arange(n) == 1, y[0], y)
    closed, x_ties = [3, "x order", "closed form"], [3, "x order", "ties"]
    y_ties = [3, "y order", "ties"]
    cases = {
        "tie-free": (x, y, [closed, closed]),
        # column 4 ties rows 0 and 1: only the second block loses the closed
        # form, and with y untied it still counts in x order
        "x tie": (x_tie, y, [closed, x_ties]),
        # a single tied pair in y sends every block to the general formulas,
        # counted in y order
        "y tie": (x, y_tie, [y_ties, y_ties]),
        "x and y tie": (x_tie, y_tie, [y_ties, y_ties]),
    }
    signed_zero = x.copy()
    signed_zero[:2, 1] = [0.0, -0.0]  # equal as numbers, so a tie
    cases["signed zero"] = (signed_zero, y, [x_ties, closed])
    for name, (xs, ys, passes) in cases.items():
        blocks.clear()
        with only_cpus(1):  # the spies record one block at a time
            xy, xx, yy = univariate_sums(xs, ys)
        assert blocks == passes, name
        got = ([int(v) for v in xy], [int(v) for v in xx], int(yy))
        assert got == exact_univariate_totals(xs, ys), name


@given(
    n=st.integers(min_value=2, max_value=140),
    p=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40)
def test_closed_form_and_general_blocks_agree(n, p, seed):
    # the same tie-free columns in one block: alone they take the closed form,
    # next to a tied column (which shares their block) the general formulas
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    alone = univariate_sums(x, y)
    tied = univariate_sums(np.column_stack([x, np.zeros(n)]), y)
    assert alone[0].tolist() == tied[0][:p].tolist()
    assert alone[1].tolist() == tied[1][:p].tolist()
    assert alone[2] == tied[2] == _tie_free_self_total(n)


def test_closed_form_at_the_first_n_with_object_totals(monkeypatch):
    # n = 5405 is the first n whose totals may pass int64 (2 n^5), so they
    # are Python ints; the constant column puts the same columns through the
    # general formulas for comparison
    n = 5405
    x, y = _tie_free_sample(n, p=3)
    blocks = _block_passes(monkeypatch)
    xy, xx, yy = univariate_sums(x, y)
    assert blocks == [[3, "x order", "closed form"]]
    general = univariate_sums(np.column_stack([x, np.ones(n)]), y)
    assert blocks[1] == [4, "x order", "ties"]
    assert xy.dtype == object and all(type(v) is int for v in xy)
    assert xy.tolist() == general[0][:3].tolist()
    assert xx.tolist() == [_tie_free_self_total(n)] * 3 == general[1][:3].tolist()
    assert yy == general[2] == _tie_free_self_total(n)
    assert xy[1] == _tie_free_self_total(n)


@pytest.mark.parametrize("n", [6000, 8000, 46340])
def test_exact_sums_past_the_int64_total_range(n):
    # Totals reach 2 n^5 in the worst case, past int64 from n = 5405; for a
    # tie-free sample they are about 0.53 n^5 and wrap from n = 7050 or so.
    # n = 46340 is the largest n the exact sums accept.
    y = np.random.default_rng(n).permutation(n).astype(float)
    expected = _tie_free_self_total(n)
    xy, xx, yy = univariate_sums(np.column_stack([y, -y]), y)
    assert yy == expected
    assert [int(v) for v in xx] == [expected, expected]
    assert [int(v) for v in xy] == [expected, expected]
    assert column_scores(np.column_stack([y, -y]), y[:, None]).tolist() == [1.0, 1.0]


def test_exact_sums_refuse_samples_past_the_int64_term_range():
    with pytest.raises(InputTooLarge):
        univariate_sums(np.zeros((46341, 1)), np.zeros(46341))


def _threaded_sweep_sample(case, n, p):
    rng = np.random.default_rng(n + p)
    x = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    if case in ("x ties", "x and y ties"):
        x[:, ::2] = rng.integers(0, 3, size=(n, len(range(0, p, 2))))
    if case in ("y ties", "x and y ties"):
        y = rng.poisson(2.0, size=n).astype(float)
    rows = rng.integers(0, n, size=n) if case == "rows" else None  # repeats rows
    return x, y, rows


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 9])
@pytest.mark.parametrize("case", ["tie-free", "x ties", "y ties", "x and y ties", "rows"])
def test_sweep_on_every_cpu_is_bitwise_the_sweep_on_one(monkeypatch, case, p):
    # a block of two columns: up to p = 2 the sample is one block and runs
    # in this thread; from p = 3 the columns split into one part per CPU, at
    # most one per block
    n = 70
    x, y, rows = _threaded_sweep_sample(case, n, p)
    monkeypatch.setattr(kernel, "_BLOCK_ELEMENTS", 2 * n)
    parts = []
    run_pinned = kernel.run_pinned

    def counted(tasks):
        parts.append(len(tasks))
        return run_pinned(tasks)

    monkeypatch.setattr(kernel, "run_pinned", counted)
    results = {}
    for count in (1, len(os.sched_getaffinity(0))):
        with only_cpus(count):
            sums = univariate_sums(x, y, rows)
            scores = column_scores(x, y[:, None], rows)
        results[count] = ([int(v) for v in sums[0]], [int(v) for v in sums[1]], sums[2], scores)
    one, every = results.values()
    assert every[:3] == one[:3]
    assert every[3].tobytes() == one[3].tobytes()
    cpus = len(os.sched_getaffinity(0))
    split = min(cpus, -(-p // 2))
    assert parts == [1, 1, split, split]
    reference = (x, y) if rows is None else (x[rows], y[rows])
    assert one[:3] == exact_univariate_totals(*reference)


@pytest.mark.parametrize("n, p", [(250, 600), (100, 1000), (6000, 3)])
def test_sweep_parts_at_the_default_block_and_past_int64_totals(monkeypatch, n, p):
    # 250 rows take 262-column blocks, so 600 columns are three blocks; 100
    # rows take 655-column blocks, so 1000 columns are two; 6000 rows sum
    # into Python ints, here one column a block
    rng = np.random.default_rng(p)
    x, y = rng.standard_normal((n, p)), rng.standard_normal(n)
    if n == 6000:
        monkeypatch.setattr(kernel, "_BLOCK_ELEMENTS", n)
    with only_cpus(1):
        one = univariate_sums(x, y)
    with only_cpus(len(os.sched_getaffinity(0))):
        every = univariate_sums(x, y)
    assert [list(map(int, v)) for v in every[:2]] == [list(map(int, v)) for v in one[:2]]
    assert every[0].dtype == one[0].dtype and every[2] == one[2]


def test_parts_on_four_cpus_hold_at_most_two_blocks(monkeypatch):
    # blocks of 8 columns: 37 columns are five blocks, so a 4-CPU mask makes
    # four parts, each swept in blocks of 2 * 8 // 4 = 4 columns.  Where the
    # real mask holds fewer CPUs, run_pinned runs the parts in turn; the
    # widths are the same either way.
    n, p, block = 70, 37, 8
    x, y, rows = _threaded_sweep_sample("x and y ties", n, p)
    monkeypatch.setattr(kernel, "_BLOCK_ELEMENTS", block * n)
    with only_cpus(1):
        one = univariate_sums(x, y, rows)
    widths, parts = [], []
    block_sums, run_pinned = kernel._block_sums, kernel.run_pinned

    def counted_block(columns, *args):
        widths.append(len(columns))
        return block_sums(columns, *args)

    def counted_parts(tasks):
        parts.append(len(tasks))
        return run_pinned(tasks)

    monkeypatch.setattr(kernel, "_block_sums", counted_block)
    monkeypatch.setattr(kernel, "run_pinned", counted_parts)
    monkeypatch.setattr(kernel, "cpus", lambda: {0, 1, 2, 3})
    four = univariate_sums(x, y, rows)
    assert parts == [4]
    assert max(widths) == 2 * block // 4 and sum(widths) == p
    assert [v.tobytes() for v in four[:2]] == [v.tobytes() for v in one[:2]]
    assert four[2] == one[2]


def test_a_one_cpu_mask_sweeps_without_a_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(kernel, "_BLOCK_ELEMENTS", 2 * 30)
    monkeypatch.setattr(placement.threading, "Thread", no_thread)
    x, y, _ = _threaded_sweep_sample("x ties", 30, 9)
    with only_cpus(1):
        xy, xx, yy = univariate_sums(x, y)
    assert ([int(v) for v in xy], [int(v) for v in xx], int(yy)) == exact_univariate_totals(x, y)


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("p", [1, 5])
@pytest.mark.parametrize("rows", [None, "subset"])
def test_scoring_leaves_x_and_y_unchanged(q, p, rows):
    # the sweep sorts its blocks in place, so every array it sorts must be a
    # private copy, a one-column x (whose transpose is C-ordered) included
    rng = np.random.default_rng(29)
    n = 40
    x = np.round(rng.standard_normal((n, p)), 1)  # ties, in no order
    y = np.round(rng.standard_normal((n, q)), 1)
    if rows is not None:
        rows = rng.integers(0, n, size=30)
    before = x.tobytes(), y.tobytes()
    calls = [
        lambda: column_scores(x, y, rows),
        lambda: rank_features(x, y, rows),
        lambda: projection_correlation_sq(x, y),
    ]
    if q == 1:
        calls.append(lambda: univariate_sums(x, y[:, 0], rows))
    for call in calls:
        call()
        assert (x.tobytes(), y.tobytes()) == before


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
    # equal multivariate inputs score 0 too when every slice is zero
    x = np.full((8, 2), 1.25)
    assert projection_correlation_sq(x, x) == 0.0


def _normal_pair():
    rng = np.random.default_rng(20261020)
    return rng.standard_normal((23, 3)), rng.standard_normal((23, 2))


def _rounded_pair_with_a_repeated_row():
    rng = np.random.default_rng(7)
    x = np.round(rng.standard_normal((17, 2)), 1)
    y = np.round(x[:, ::-1] + rng.standard_normal((17, 2)), 1)
    x[5], y[5] = x[2], y[2]
    return x, y


# each value's bits, and its exact value to 40 digits, computed once with
# mpmath 1.3.0 at 60 digits from atan2(|u ^ v|, u . v): the test does not
# import mpmath
@pytest.mark.parametrize(
    "pair, bits",
    [
        (
            _normal_pair,
            (("0x1.3d4d30351b6dap-5", 0.03873309531705411858354190316776673475953),
             ("0x1.ad5c4c81e6885p-3", 0.2096487023489467226989634687215095305011),
             ("0x1.6d2aecb954b43p-2", 0.3566090572468746860039361871205857587969),
             ("0x1.221d6375ca76cp-3", 0.1416576166459963287711334157053093606467)),
        ),
        (
            _rounded_pair_with_a_repeated_row,
            (("0x1.2cc3284bbcbb9p-3", 0.1468566082108660260242660489271586962297),
             ("0x1.803855bf97133p-2", 0.3752149007975901765192237761933707894585),
             ("0x1.5ca8e20a326b7p-2", 0.3404879873965954835197436049414912521198),
             ("0x1.a4baa3f587060p-2", 0.4108682268722586092922424079538834220880)),
        ),
    ],
)
def test_multivariate_pair_bits_are_pinned(pair, bits):
    # s_xy, s_xx, s_yy and the score of the both-multivariate slice loop,
    # bit for bit, and each within 1e-15 relative of its exact value: no
    # golden case reaches this path
    x, y = pair()
    stats = kernel_pcov_stats(x, y)
    got = (stats.s_xy, stats.s_xx, stats.s_yy, projection_correlation_sq(x, y))
    assert tuple(float.hex(float(v)) for v in got) == tuple(hexed for hexed, _ in bits)
    for value, (_, exact) in zip(got, bits):
        assert abs(value - exact) <= 1e-15 * exact


@pytest.mark.parametrize("power", [260, -260, -600])
def test_multivariate_scores_do_not_depend_on_magnitude(power):
    # a power of two scales every difference exactly; unscaled, the squared
    # products of two norms overflow past 2^256 and underflow below 2^-256.
    # The pair scales its two samples in opposite directions.
    rng = np.random.default_rng(3)
    x = rng.standard_normal((30, 4))
    y = np.column_stack([x[:, 0] + x[:, 1] ** 2, rng.standard_normal(30)])
    scale = 2.0**power
    assert column_scores(x, y * scale).tolist() == column_scores(x, y).tolist()
    assert rank_features(x, y * scale).omega_hat.tolist() == rank_features(x, y).omega_hat.tolist()
    assert projection_correlation_sq(x[:, :1], y * scale) == projection_correlation_sq(x[:, :1], y)
    pair = (x[:, :3], y)
    scaled = (x[:, :3] * scale, y / scale)
    assert projection_correlation_sq(*scaled) == projection_correlation_sq(*pair)


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
