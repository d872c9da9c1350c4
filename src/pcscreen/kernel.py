"""Centered-angle kernel for squared sample projection covariance/correlation.

For samples ``X = (x_1, ..., x_n)^T`` and ``Y = (y_1, ..., y_n)^T`` the
statistic is assembled from per-observation "angle slices": slice ``r`` holds

    a_klr = arccos( <x_k - x_r, x_l - x_r> / (|x_k - x_r| |x_l - x_r|) ),

with ``a_klr = 0`` for a zero difference (k = r or l = r), evaluated by
Kahan's form (:func:`_angle_slice_raw`).  Each slice is double-centered,

    A_klr = a_klr - abar_{k.r} - abar_{.lr} + abar_{..r},

and the accumulated sums

    s_xy = n^-3 sum_{k,l,r} A_klr B_klr,   s_xx = n^-3 sum A^2,
    s_yy = n^-3 sum B^2,

yield the squared sample projection correlation ``s_xy / sqrt(s_xx s_yy)``.

For a one-dimensional sample the angle between two scalar differences is pi
when they have opposite signs and 0 otherwise.  With g+_k = 1[x_k > x_r]
and g-_k = 1[x_k < x_r] marking the observations above and below x_r, and
as double-centering an outer product v w^T gives vtilde wtilde^T, one
identity gives the centered slice:

    A_r = pi (g+tilde g-tilde^T + g-tilde g+tilde^T).

Both evaluation strategies follow from it, chosen by column counts:

* the exact univariate sweep, for a univariate pair: each slice sum is
  a d + b c in the centered counts a, b, c, d of the four above/below
  quadrants of x against y, integers (see the comment above
  :func:`_sorted_counts`).  :func:`univariate_sums` gets the joint counts
  of a block of columns of X against one y at a time, and every block makes
  one counting pass, one count per row: with the observations in the order
  of one sample, 64 to a machine word, bit sets of each word's observations
  below each place in the other's order say how many earlier observations
  lie below this one there, with one masked popcount.  The count is
  symmetric in x and y, so while y has no tie a block counts in x order,
  on the permutation its sort returns; a tied y is counted in y order.
  That is one sort and O(n^2 / 64) word operations per column, in O(n)
  memory per column; ties add an integer sort, and a tie-free block needs
  only the concordance count behind Kendall's tau (:func:`univariate_sums`);
* the slice loop, for everything else: one pass over the slice indices r
  builds each centered slice B_r of the multivariate sample once (O(n^2)
  working memory).  B_r is symmetric with zero row and column sums, so the
  centering of a univariate column's slice drops out of the contraction.
  With g = g+ and h_k = 1[x_k >= x_r], so that g- = 1 - h, the identity
  gives

      <A_r, B_r> = -2 pi sum_k g_k (B_r h)_k.

  Univariate feature columns sit on the matrix axis: their 0/1 indicators
  at r form (n, p) arrays, and B_r meets them in one matrix product, a fixed
  block of columns at a time.  When both samples are multivariate,
  :func:`_pair_sums` contracts their full slices directly.  A univariate
  column's self sum always comes from the exact counts.

The slice loop adds its per-r contributions in ascending r, so results are
reproducible run to run; integer sums do not depend on order at all.  The
exact sweep splits its columns over the CPUs of the caller's affinity mask,
one pinned thread each (:mod:`pcscreen.placement`), with the same integers;
the slice loop runs in the calling thread.  Nothing is cached between calls.

The literal triple-loop reference these paths are checked against lives with
the tests (``tests/reference.py``).
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import DimensionMismatch, InputTooLarge
from .placement import cpus, run_pinned

_HALF_PI = math.pi / 2.0


def as_sample_matrix(data, name="sample"):
    """Validate and return an n x m float64 observation matrix.

    One-dimensional input is treated as a single column.  Rows are
    observations, columns are variables.  Only input that is not C-ordered
    float64 is copied; a C-ordered float64 array (a 2-D one, or a 1-D one
    seen as a column) comes back as the caller's own memory.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 1- or 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] < 2:
        raise DimensionMismatch(f"{name} needs at least 2 observations, got {arr.shape[0]}")
    if arr.shape[1] < 1:
        raise DimensionMismatch(f"{name} needs at least 1 column")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


def _sample_pair(x, y):
    """``(as_sample_matrix(x, "x"), as_sample_matrix(y, "y"))``, refusing a
    pair whose row counts differ."""
    xm = as_sample_matrix(x, "x")
    ym = as_sample_matrix(y, "y")
    if xm.shape[0] != ym.shape[0]:
        raise DimensionMismatch(f"x has {xm.shape[0]} observations but y has {ym.shape[0]}")
    return xm, ym


def as_row_index(rows, n):
    """Validate and return a 1-D integer index of at least 2 of n rows.

    Values must lie in 0..n-1: a negative index is refused, not wrapped
    around.  Repeated rows are allowed; the sample then holds duplicates.
    """
    idx = np.asarray(rows)
    if idx.ndim != 1:
        raise DimensionMismatch(f"rows must be 1-dimensional, got ndim={idx.ndim}")
    if idx.size < 2:
        raise DimensionMismatch(f"rows needs at least 2 observations, got {idx.size}")
    if idx.dtype.kind not in "iu":
        raise ValueError(f"rows must hold integers, got dtype {idx.dtype}")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"rows must lie in 0..{n - 1}, got {idx.min()}..{idx.max()}")
    return idx.astype(np.intp, copy=False)


def _whole(value, name="value", least=None):
    """``int(value)``, refusing a bool, a number that ``int()`` changes (a
    fraction of any numeric type, numpy scalars alike), a string ``int()``
    does not read and, when ``least`` is given, a value below it: the one
    count rule.  A string of digits, as a setting read from text may be,
    counts as its number."""
    try:
        whole = int(value)
    except (ValueError, OverflowError):  # not a number, or not finite
        whole = None
    if (
        whole is None
        or isinstance(value, (bool, np.bool_))
        or (not isinstance(value, (str, bytes, bytearray)) and whole != value)
    ):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if least is not None and whole < least:
        raise ValueError(f"{name} must be at least {least}, got {whole}")
    return whole


def _seed(value, name="seed"):
    """``_whole(value, name)``, refusing a negative value: the one seed rule."""
    if (seed := _whole(value, name)) < 0:
        raise ValueError(f"{name} must be non-negative, got {seed}")
    return seed


def _angle_slice_raw(x, r):
    """Raw angles a_klr of slice r by Kahan's formula, for u = x_k - x_r and
    v = x_l - x_r: 2 atan2(| |v| u - |u| v |, | |v| u + |u| v |), summed one
    coordinate at a time (W. Kahan, "How futile are mindless assessments of
    roundoff in floating-point computation?", 2006, section 12).  It is exactly
    0 for equal or zero differences and exactly pi for opposite ones.  The
    differences are first scaled by the power of two that brings the largest
    into [0.5, 1), which is exact, so no square overflows or underflows and
    the angles do not depend on the sample's magnitude."""
    diff = x - x[r]
    diff = np.ldexp(diff, -np.frexp(np.abs(diff).max())[1])
    norms = np.sqrt(np.einsum("im,im->i", diff, diff))
    minus, plus = np.zeros((2, len(x), len(x)))
    for column in diff.T:
        scaled = np.multiply.outer(column, norms)  # [k, l]: one coordinate of |v| u
        minus += (scaled - scaled.T) ** 2
        plus += (scaled + scaled.T) ** 2
    return 2.0 * np.arctan2(np.sqrt(minus), np.sqrt(plus))


def center_slice(slice_values):
    """Double-center an angle slice.

    Subtracts row and column means and adds back the grand mean; all means
    divide by the full n (row and column r included), matching the definition.
    """
    a = np.asarray(slice_values, dtype=np.float64)
    return a - a.mean(axis=1, keepdims=True) - a.mean(axis=0, keepdims=True) + a.mean()


# ---------------------------------------------------------------------------
# univariate samples: exact integer sums from per-observation counts
#
# Let B_r = pi (h+tilde h-tilde^T + h-tilde h+tilde^T) be the centered slice
# of a univariate y, as A_r is that of x (module docstring).  As
# <v w^T, v' w'^T> = <v, v'> <w, w'>,
#
#   <A_r, B_r> = 2 pi^2 (<g+~, h+~> <g-~, h-~> + <g+~, h-~> <g-~, h+~>)
#              = 2 pi^2 n^-2 (a d + b c),
#
# where n <g~, h~> = P(sigma, tau) = n N(sigma x, tau y) - count_sigma(x)
# count_tau(y) is an integer, and a = P(>, >), b = P(>, <), c = P(<, >),
# d = P(<, <).  The totals I = 8 sum_r (a d + b c) are exact, the accumulated
# statistics are s = (pi/2)^2 I / n^5, and the squared projection correlation
# is I_xy / sqrt(I_xx I_yy): the pi and n factors cancel.
#
# With L, G the numbers of observations below and above observation r, and
# N(., .) the joint counts of x order against y order: as g+ = 1 - 1[x <= x_r],
# a centered count of g+ is that of 1[x <= x_r] with its sign flipped, which
# a d and b c do not see.  So the code counts "below" and "at most" only:
#
#   d = n N(<, <) - L_x L_y,          -b = n N(<=, <) - (n - G_x) L_y,
#   -c = n N(<, <=) - L_x (n - G_y),   a = n N(<=, <=) - (n - G_x) (n - G_y).
#
# A sample with itself never lies above and below at once: a = G (n - G),
# d = L (n - L) and b = c = -L G, so its slice term is
# 8 L G ((n - L) (n - G) + L G).  In the sign vector s = g+ - g- and
# u = g+ + g- of each sample, the centered dot products are UU = a + b + c + d,
# SS = a - b - c + d, US = a - b + c - d and SU = a + b - c - d, and
# 8 (a d + b c) = UU^2 + SS^2 - US^2 - SU^2: the form the cross totals are
# summed in.
#
# The four joint counts follow from one count per row once ties are put in
# lexicographic order, as in Knight's (1966, JASA 61:436) tie-aware Kendall's
# tau.  Take the rows in y order with each y tie group in x order, and give
# each row its rank R in x order with x ties in row order.  Then
# q = #{k < r : R_k < R_r} (_joint_below) counts the rows before r with
# x <= x_r: the N(<=, <) rows with y < y_r, and the o_y = r - L_y rows
# before r in its y tie group.  The T rows tied with r in both x and y are
# consecutive in both orders; let r be at place f among them.  Of the
# o_x = R - L_x rows before r in its x tie run, o_x - f have y < y_r; of the
# o_y rows, o_y - f have x < x_r.  So
#
#   N(<, <) = q - o_x - o_y + f,    N(<=, <) = q - o_y,
#   N(<, <=) = q - o_x,             N(<=, <=) = q + T - f,
#
# and S = L + (n - G), W = (n - G) - L of each sample,
#
#   SS = n (4 q + T - 2 o_x - 2 o_y) - S_x S_y,   UU = n T - W_x W_y,
#   US = n (2 o_x + T - 2 f) - W_x S_y,        SU = n (2 o_y + T - 2 f) - S_x W_y.
#
# Where nothing ties, o_x = o_y = f = 0, T = W = 1 and only SS depends on q
# (_tie_free_cross_totals).
#
# Every count above is symmetric in x and y: swapping the two samples swaps
# N(<=, <) with N(<, <=), o_x with o_y and US with SU, and leaves q, T, f,
# SS, UU and 8 (a d + b c) as they are.  So while y has no tie the rows can
# be taken in x order instead, with each x tie group in y order, and the
# rank of a row is its y place: that is the x-order argsort itself, with no
# inverse permutation to build.  A tied y keeps y order, as its tie groups
# must be contiguous runs of rows to be sorted.
# ---------------------------------------------------------------------------

# A centered count is at most n^2 / 4 in size, so 8 (a d + b c) and SS^2 are
# at most n^4 per slice, and the totals over r at most n^5.  With a factor 2 to
# spare, int64 holds the totals up to n = 5404 and per-slice terms up to
# n = 46340 (see _exact_totals for the range in between).
_INT64_MAX = int(np.iinfo(np.int64).max)

# elements per temporary of a column block (about 0.5 MB)
_BLOCK_ELEMENTS = 1 << 16


def _sorted_counts(columns):
    """Sort order of every row of a (p, n) array, with counts in that order.

    Returns ``(order, below, above, tied)``: the argsort of each row; for its
    entries in sorted order, how many entries of the row lie strictly below
    and strictly above each one (n - below - above are level with it); and
    whether each row has a tie.  With no tie in any row, ``below`` and
    ``above`` are read-only views of 0..n-1 and its reverse.  The sorted
    values the runs are read from come from a second, value-only sort, which
    is cheaper than gathering them through ``order``.
    """
    p, n = columns.shape
    order = np.argsort(columns, axis=1)
    ordered = np.sort(columns, axis=1)
    edge = np.ones((p, n + 1), dtype=bool)  # edge[:, i]: a new value starts at i
    edge[:, 1:-1] = ordered[:, 1:] != ordered[:, :-1]
    tied = ~edge.all(axis=1)
    if not tied.any():
        steps = np.arange(n)
        return order, np.broadcast_to(steps, (p, n)), np.broadcast_to(steps[::-1], (p, n)), tied
    return order, *_run_counts(edge), tied


def _run_counts(edge):
    """How many places of each row lie before and after the run of each place.

    ``edge`` is (p, n + 1) boolean, edge[:, i] true where a run starts at
    place i, and true at 0 and n.  Returns two (p, n) arrays: the start of
    each place's run, and n minus its end.
    """
    steps = np.arange(edge.shape[1] - 1)
    before = np.maximum.accumulate(edge[:, :-1] * steps, axis=1)
    after = np.maximum.accumulate(edge[:, :0:-1] * steps, axis=1)[:, ::-1]
    return before, after


def _joint_below(rank):
    """How many earlier rows have a lower rank, for every row of a block.

    ``rank`` is a (b, n) block of columns, each a permutation of 0..n-1: each
    row's place in its column's x order, the rows in y order, or with the
    roles swapped (see the counting note).  Returns the
    (b, n) int64 counts q[j, r] = #{k < r : rank[j, k] < rank[j, r]}.

    The rows are taken 64 at a time, one bit each in a 64-bit word.  Word
    t[c] holds those of the word's rows whose rank is below c: one scatter
    puts each row's bit into the word its rank + 1 opens, and a cumulative OR
    over c fills in the rest.  Row r counts the rows of earlier words with a
    lower rank (``carry``) plus the popcount of t[rank_r] masked below its
    own bit.  One word's table is b (n + 1) words.
    """
    b, n = rank.shape
    bases = (np.arange(b) * (n + 1))[:, None]  # flat index of each column's table row
    carry = np.zeros((b, n + 1), dtype=np.int32)  # rows of earlier words with rank below c
    found = np.empty((b, n), dtype=np.int64)
    for start in range(0, n, 64):
        stop = min(start + 64, n)
        bits = _bits(np.arange(start, stop))
        flat = bases + rank[:, start:stop]
        table = np.zeros((b, n + 1), dtype=np.uint64)
        table.ravel()[flat + 1] = bits
        np.bitwise_or.accumulate(table, axis=1, out=table)
        below = table.ravel()[flat] & (bits - np.uint64(1))
        found[:, start:stop] = carry.ravel()[flat] + np.bitwise_count(below)
        if stop < n:
            carry += np.bitwise_count(table)
    return found


def _bits(positions):
    """The bit of each position within its 64-bit word."""
    return np.left_shift(np.uint64(1), (positions & 63).astype(np.uint64))


def _totals_dtype(n):
    """int64 while the totals of n observations fit it (2 n^5), else object."""
    return np.int64 if 2 * n**5 <= _INT64_MAX else object


def _exact_totals(terms):
    """Row sums of an int64 (p, n) array of per-slice terms, exactly.

    Returns int64 sums while 2 n^5 fits int64, otherwise an object array of
    Python ints recombined from separately summed high and low 32-bit halves.
    """
    if _totals_dtype(terms.shape[1]) is np.int64:
        return terms.sum(axis=1)
    high = (terms >> 32).sum(axis=1)
    low = (terms & 0xFFFFFFFF).sum(axis=1)
    return np.array([(int(h) << 32) + int(l) for h, l in zip(high, low)], dtype=object)


def _tie_free_totals(n):
    """The parts of the totals that are constants of n when nothing is tied.

    A corollary of 8 (a d + b c) = UU^2 + SS^2 - US^2 - SU^2 (see above): with
    no tie, observation r of a sample v, at place L in its order, has
    d_v = G - L = n - 1 - 2 L, and a + b + c + d = n - 1, a - b + c - d = d_y
    and a + b - c - d = d_x.  With sum_r d_v^2 = n (n^2 - 1) / 3 and
    sum_r d_v^4 = n (n^2 - 1) (3 n^2 - 7) / 15, returns ``(cross, self)``:
    sum_r ((n - 1)^2 - d_y^2 - d_x^2) of any tie-free pair, and I of a
    tie-free sample v with itself, where SS = a - b - c + d = n (n - 1) - d_v^2.
    """
    d2 = n * (n * n - 1) // 3
    d4 = n * (n * n - 1) * (3 * n * n - 7) // 15
    cross = n * (n - 1) ** 2 - 2 * d2
    return cross, cross + n**3 * (n - 1) ** 2 - 2 * n * (n - 1) * d2 + d4


def _self_terms(n, below, above):
    """Per-slice terms 8 L G ((n - L) (n - G) + L G) of a sample with itself."""
    lg = below * above
    return 8 * lg * ((n - below) * (n - above) + lg)


def _block_self_totals(n, below, above, tied):
    """Exact I of every row of a block with itself, from :func:`_sorted_counts`.

    A row with no tie takes the constant of :func:`_tie_free_totals`; a tied
    one sums its :func:`_self_terms`.  Same types as :func:`_exact_totals`.
    """
    totals = np.full(len(tied), _tie_free_totals(n)[1], dtype=_totals_dtype(n))
    if tied.any():
        totals[tied] = _exact_totals(_self_terms(n, below[tied], above[tied]))
    return totals


def _check_exact_range(n):
    if 2 * n**4 > _INT64_MAX:
        raise InputTooLarge(f"exact univariate sums are limited to n <= 46340, got {n}")


def _self_totals(x):
    """Exact I_xx of every column of an (n, p) array, as float64."""
    n, p = x.shape
    _check_exact_range(n)
    totals = np.empty(p)
    block = max(1, _BLOCK_ELEMENTS // n)
    for c in range(0, p, block):
        _, below, above, tied = _sorted_counts(np.ascontiguousarray(x[:, c : c + block].T))
        totals[c : c + block] = _block_self_totals(n, below, above, tied)
    return totals


def _tie_free_cross_totals(q, rank):
    """I_xy of every row of a block in which nothing ties.

    ``q`` is :func:`_joint_below` of ``rank``.  Row r at place R in x order
    has S_x = 2 R + 1 and S_y = 2 r + 1 (or, counted in x order, the other
    way round; SS does not tell), so SS = n (4 q + 1) - S_x S_y =
    intercept_r - slope_r R + 4 n q with intercept_r = n - 1 - 2 r and
    slope_r = 2 (1 + 2 r); I_xy is a constant of n (:func:`_tie_free_totals`)
    plus sum_r SS^2.  SS is formed in place on q, and rank is overwritten.
    """
    n = rank.shape[1]
    steps = np.arange(n)
    q *= 4 * n
    q -= np.multiply(rank, 2 * (1 + 2 * steps), out=rank)
    q += n - 1 - 2 * steps
    q *= q
    return _exact_totals(q) + _tie_free_totals(n)[0]


def _tied_cross_totals(q, rank, x_lower, x_upto, y_lower, y_upto):
    """I_xy of every row of a block with a tie, by the counting note above.

    ``q`` is :func:`_joint_below` of ``rank``: the rows in y order with each y
    tie group in x order, the ranks with x ties in row order.  ``x_lower``
    and ``x_upto`` are (b, n) arrays of how many rows lie below x_r and at
    most x_r, or None when no column of the block has a tie; ``y_lower`` and
    ``y_upto`` are those of y, by row.  A block counted in x order passes
    the roles swapped: None for the untied y, and x's counts by place as
    ``y_lower`` and ``y_upto``.  SS is formed in place on q.
    """
    n = rank.shape[1]
    steps = np.arange(n)
    y_offset, y_sum, y_size = steps - y_lower, y_lower + y_upto, y_upto - y_lower
    if x_lower is None:
        x_offset, x_sum, x_size = 0, 2 * rank + 1, 1
        run, skew = 1, 1  # T and T - 2 f
    else:
        x_offset, x_sum, x_size = rank - x_lower, x_lower + x_upto, x_upto - x_lower
        # runs tied in x and y: rows of a y group with equal counts below in x
        edge = np.ones((len(rank), n + 1), dtype=bool)
        edge[:, 1:-1] = x_lower[:, 1:] != x_lower[:, :-1]
        edge[:, :-1] |= y_offset == 0
        before, after = _run_counts(edge)
        run = n - after - before
        skew = run - 2 * (steps - before)
    q *= 4 * n
    q += n * (run - 2 * (x_offset + y_offset)) - x_sum * y_sum
    q *= q
    su = n * (2 * y_offset + skew) - x_sum * y_size
    q -= su * su
    uu = n * run - x_size * y_size
    us = n * (2 * x_offset + skew) - x_size * y_sum
    q += uu * uu - us * us
    return _exact_totals(q)


def univariate_sums(x, y, rows=None):
    """Exact slice totals I_xy, I_xx, I_yy of every column of ``x`` against ``y``.

    ``x`` is a validated (N, p) float array and ``y`` a length-N float vector.
    ``rows``, an index from :func:`as_row_index`, selects the sample: the n
    rows ``x[rows]`` against ``y[rows]`` (all N rows without it).  x is not
    copied: each block of columns is gathered once, through the index
    composed with the y order.
    I = 8 sum_r (a d + b c) for the pair, from its centered quadrant counts;
    the accumulated statistics are s = (pi/2)^2 I / n^5.  Returns
    ``(xy, xx, yy)``: two length-p integer arrays (int64, or Python ints past
    n = 5404) and a Python int.

    The rows are put in ascending y once; then a block of columns at a time
    is sorted, and every block makes one counting pass (:func:`_joint_below`,
    O(n^2 p / 64) word operations in all, plus one sort per column).  While
    y has no tie, the pass runs in x order on the block's argsort: for each x
    place, how many earlier ones lie below it in y order.  A tied y is
    counted in y order on the inverse of the argsort: for each row, how many
    earlier rows lie below it in x order.  Ties (0.0 and -0.0 tie) add one
    integer sort each for y and x: each tie group of the counting order is
    put in the other order, and ties of the other in the counting order, so
    that the four joint counts are that one count plus tie terms
    (:func:`_tied_cross_totals`).  When neither y nor any column of the block
    has a tie, the cross totals take the closed form of
    :func:`_tie_free_cross_totals`.  The integers are the same either way.

    Where the n x p sample holds two blocks of ``_BLOCK_ELEMENTS`` or more,
    the columns are split into parts, one per CPU of the caller's affinity
    mask and at most one per block of ``_BLOCK_ELEMENTS // n`` columns, and
    each part is swept in blocks of that width over the number of parts, so
    the parts together hold one block's temporaries.  This thread sweeps one
    part and a pinned helper thread each other part
    (:func:`placement.run_pinned`); with one CPU, or a smaller sample, this
    thread sweeps them all.  A column's totals depend on that column alone,
    so the integers do not depend on the split.
    """
    if rows is not None:
        y = y[rows]
    n, p = len(y), x.shape[1]
    _check_exact_range(n)
    y_order, y_below, y_above, y_tied = _sorted_counts(y[None, :])
    yy = int(_block_self_totals(n, y_below, y_above, y_tied)[0])
    y_tied = bool(y_tied[0])
    y_order, y_below, y_upto = y_order[0], y_below[0], n - y_above[0]
    # rows in ascending y from here on
    x_rows = y_order if rows is None else rows[y_order]

    xy = np.empty(p, dtype=_totals_dtype(n))
    xx = np.empty_like(xy)
    block = max(1, _BLOCK_ELEMENTS // n)
    # one part per CPU and at most one per block, where x spans two blocks
    # or more; the parts' blocks together hold one block, so the temporaries
    # stay those of one block
    parts = max(1, min(len(cpus()), -(-p // block))) if n * p >= 2 * _BLOCK_ELEMENTS else 1
    width = max(1, block // parts)

    def sweep(start, stop):
        for c0 in range(start, stop, width):
            c = slice(c0, min(c0 + width, stop))
            xy[c], xx[c] = _block_sums(x[x_rows, c].T, y_tied, y_below, y_upto)

    run_pinned([partial(sweep, p * k // parts, p * (k + 1) // parts) for k in range(parts)])
    return xy, xx, yy


def _block_sums(columns, y_tied, y_below, y_upto):
    """``(xy, xx)`` of a (b, n) block of columns whose rows are in ascending
    y, by :func:`univariate_sums`'s rules."""
    n = columns.shape[1]
    steps = np.arange(n)
    order, below, above, x_tied = _sorted_counts(np.ascontiguousarray(columns))
    xx = _block_self_totals(n, below, above, x_tied)
    x_tied = x_tied.any()
    if x_tied:
        # x ties in row order (below is constant on a tie run)
        order += below * n
        order.sort(axis=1)
        order -= below * n
    if y_tied:
        # rows in y order ranked in x order, each y tie group in x order
        # in the places the group holds
        bases = (np.arange(len(order)) * n)[:, None]  # flat index of each column's row
        rank = np.empty_like(order)
        rank.ravel()[order + bases] = steps
        del order
        rank += y_below * n
        rank.sort(axis=1)
        rank -= y_below * n
        x_counts = (None, None)
        if x_tied:
            x_counts = below.ravel()[rank + bases], n - above.ravel()[rank + bases]
        counts = (*x_counts, y_below, y_upto)
    else:
        # roles swap (counting note): the x places are the rows and their
        # y places the ranks, so x takes the part of y in the tie terms
        rank = order
        counts = (None, None, below, n - above) if x_tied else None
    q = _joint_below(rank)
    if counts is None:
        return _tie_free_cross_totals(q, rank), xx
    return _tied_cross_totals(q, rank, *counts), xx


def _ratio(s_xy, s_xx, s_yy):
    """s_xy / sqrt(s_xx s_yy) elementwise, 0 where the denominator vanishes.

    The minimum with 1 keeps rounding from lifting a value above its bound.
    The one rule for every floating-point score: the slice loop, a
    multivariate pair and the Pearson baseline (s_yy may be a scalar).
    """
    denom_sq = s_xx * s_yy
    scores = np.zeros(np.shape(s_xy))
    ok = denom_sq > 0.0
    scores[ok] = np.minimum(s_xy[ok] / np.sqrt(denom_sq[ok]), 1.0)
    return scores


def _slice_sums(full, x):
    """Raw slice sums of univariate columns ``x`` against multivariate ``full``.

    One loop over the slice indices r builds and centers each slice B_r of
    ``full`` once.  <A_r, B_r> = -2 pi sum_k g_k (B_r h)_k with the indicators
    g = 1[x > x_r] and h = 1[x >= x_r] (see the module docstring); those of a
    block of columns are (n, block) arrays, and B_r meets them in one matrix
    product.  Contributions are added in ascending r.

    Returns ``(xy, yy)``: sum_r <A_r, B_r> per column and sum_r |B_r|^2,
    neither yet scaled by n^-3 (the exact counts give sum_r |A_r|^2).
    """
    n = full.shape[0]
    block = max(1, _BLOCK_ELEMENTS // n)
    xy = np.zeros(x.shape[1])
    yy = 0.0
    for r in range(n):
        b = center_slice(_angle_slice_raw(full, r))
        yy += np.einsum("kl,kl->", b, b)
        for c in range(0, x.shape[1], block):
            cols = x[:, c : c + block]
            above = (cols > cols[r]).astype(np.float64)
            level = (cols >= cols[r]).astype(np.float64)
            xy[c : c + block] -= np.einsum("kj,kj->j", above, b @ level)
    xy *= 2.0 * math.pi
    return xy, yy


def column_scores(x, y, rows=None):
    """Squared projection correlation of every column of ``x`` with ``y``.

    ``x`` is a validated (n, p) array of univariate features and ``y`` a
    validated (n, q) response.  A univariate response takes the exact sweep:
    each score is I_xy / sqrt(I_xx I_yy) from :func:`univariate_sums`, 0 when
    a side is constant (0/0 = 0), computed as sign(I_xy) sqrt(fl(I_xy^2 /
    (I_xx I_yy))) with the inner ratio one correctly rounded division of
    exact integers.  Every step is monotone, so exactly tied columns score
    equal and a score never reverses the order of two exact ratios; it is
    at most 1 (Cauchy-Schwarz) and exactly 1 for a column with y's ranking
    (or its reverse).

    A multivariate response takes the slice loop, with all p columns on the
    matrix axis and one matrix product per slice and block of columns.  Each
    score depends on its own column only; on the slice loop a one-column call
    may differ from it in the last bits, as a matrix product and a
    matrix-vector product round differently.  Only the exact sweep scores
    every pair of exactly tied columns equal; the slice loop can leave them
    some ulps apart (n=5, p=2, q=2, seed 255263: 5 ulps).

    ``rows``, a row index checked by :func:`as_row_index`, scores the sample
    ``x[rows]`` against ``y[rows]`` with the same bits.  The exact sweep
    reads x in place through it, without a copy; the slice loop takes
    ``x[rows]`` up front.
    """
    if rows is not None:
        rows = as_row_index(rows, x.shape[0])
    if y.shape[1] == 1:
        xy, xx, yy = univariate_sums(x, y[:, 0], rows)
        xy = xy.astype(object)
        denom = xx.astype(object) * yy
        denom[denom == 0] = 1  # I_xy is 0 there too (Cauchy-Schwarz)
        # Python int / int is correctly rounded
        ratio = (xy * xy / denom).astype(np.float64)
        return np.copysign(np.sqrt(ratio), xy.astype(np.float64))
    if rows is not None:
        x, y = x[rows], y[rows]
    n = x.shape[0]
    xy, yy = _slice_sums(y, x)
    xx = _self_totals(x) * (_HALF_PI * _HALF_PI / float(n) ** 5)
    cube = float(n) ** 3
    return _ratio(xy / cube, xx, yy / cube)


def _pair_sums(xm, ym):
    """s_xy, s_xx and s_yy of two multivariate samples, scaled by n^-3.

    One loop over the slice indices r builds both centered slices and
    contracts them directly, adding the contributions in ascending r.
    Returns a (3, 1) array, one row per sum, as :func:`_ratio` takes them.
    """
    n = xm.shape[0]
    xy = xx = yy = 0.0
    for r in range(n):
        a, b = (center_slice(_angle_slice_raw(sample, r)) for sample in (xm, ym))
        yy += np.einsum("kl,kl->", b, b)
        xy += np.einsum("kl,kl->", a, b)
        xx += np.einsum("kl,kl->", a, a)
    return np.array([[xy], [xx], [yy]]) / float(n) ** 3


def projection_correlation_sq(x, y):
    """Squared sample projection correlation between two sample matrices.

    Returns ``s_xy / sqrt(s_xx * s_yy)``, with 0 when the denominator
    vanishes (the 0/0 = 0 convention for degenerate samples), and at most 1.
    The value is not clamped below zero: downstream statistics difference two
    of these and clamping would bias signs.  A pair with a univariate side is
    scored by :func:`column_scores`, with that side as the feature (the
    statistic is symmetric), bitwise as in a batched call.  Two multivariate
    samples are scored by :func:`_pair_sums`.  Equal inputs give bitwise
    equal sums, so a sample scores exactly 1.0 with itself (0 if constant).
    """
    xm, ym = _sample_pair(x, y)
    if xm.shape[1] == 1 or ym.shape[1] == 1:
        features, other = (xm, ym) if xm.shape[1] == 1 else (ym, xm)
        return float(column_scores(features, other)[0])
    return float(_ratio(*_pair_sums(xm, ym))[0])
