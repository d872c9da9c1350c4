"""Centered-angle kernel for squared sample projection covariance/correlation.

For samples ``X = (x_1, ..., x_n)^T`` and ``Y = (y_1, ..., y_n)^T`` the
statistic is assembled from per-observation "angle slices": slice ``r`` holds

    a_klr = arccos( <x_k - x_r, x_l - x_r> / (|x_k - x_r| |x_l - x_r|) ),

with ``a_klr = 0`` whenever ``k = r``, ``l = r``, or either difference is the
zero vector.  Each slice is double-centered,

    A_klr = a_klr - abar_{k.r} - abar_{.lr} + abar_{..r},

and the accumulated sums

    s_xy = n^-3 sum_{k,l,r} A_klr B_klr,   s_xx = n^-3 sum A^2,
    s_yy = n^-3 sum B^2,

yield the squared sample projection correlation ``s_xy / sqrt(s_xx s_yy)``.

For a one-dimensional sample, with ``s_k = sign(x_k - x_r)`` and ``u = |s|``,
the angle slice is exactly ``pi/2 (u u^T - s s^T)``: every centered slice has
rank <= 2 and is held by its two centered sign factors.  Two evaluation
strategies are used, chosen by column counts only:

* the exact univariate sweep, for a univariate pair: the slice sums are
  squares of centered dot products which, scaled by n, are integers built
  from per-observation counts (how many observations lie below or level with
  observation r in x, in y, and in both).  :func:`univariate_scores` gets the
  joint counts of every column of X against one y in a single
  O(n log n)-per-column sweep (a Fenwick tree over each column's x-ranks,
  walked in y order — the concordance count behind Knight's O(n log n)
  Kendall's tau);
* the slice loop, for everything else: one pass over the slice indices r
  builds each centered slice B_r of the multivariate sample once (O(n^2)
  working memory).  Univariate feature columns sit on the matrix axis: their
  sign factors at r form (n, p) arrays, contracted with B_r by two matrix
  products, a fixed block of columns at a time.  When both samples are
  multivariate the full slices are contracted directly.  A univariate
  column's self sum always comes from the exact counts.

The slice loop adds its per-r contributions in ascending r, so results are
reproducible run to run; integer sums do not depend on order at all.  Nothing
is cached between calls.

The literal triple-loop reference these paths are checked against lives with
the tests (``tests/reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InputTooLarge

_HALF_PI = math.pi / 2.0


def as_sample_matrix(data, name="sample"):
    """Validate and return an n x m float64 observation matrix.

    One-dimensional input is treated as a single column.  Rows are
    observations, columns are variables.
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


@dataclass(frozen=True)
class PcStats:
    """The three accumulated slice sums, already scaled by n^-3."""

    s_xy: float
    s_xx: float
    s_yy: float
    n: int


def angle_slice(points, r):
    """Angle matrix of all observation pairs as seen from observation ``r``.

    Entry (k, l) is the angle at vertex x_r spanned by x_k - x_r and
    x_l - x_r.  Entries in row/column r, and rows/columns of any observation
    coinciding with x_r, are zero.
    """
    x = as_sample_matrix(points, "points")
    n = x.shape[0]
    if not 0 <= r < n:
        raise IndexError(f"slice index {r} outside 0..{n - 1}")
    return _angle_slice_raw(x, r)


def _angle_slice_raw(x, r):
    diff = x - x[r]
    norms = np.sqrt(np.einsum("im,im->i", diff, diff))
    cos = diff @ diff.T
    denom = np.outer(norms, norms)
    np.divide(cos, denom, out=cos, where=denom > 0.0)
    np.clip(cos, -1.0, 1.0, out=cos)
    angles = np.arccos(cos)
    # Coincident difference vectors (k = l, or exact duplicate points) span
    # an angle of exactly 0; going through arccos instead would amplify 1-ulp
    # rounding of the norms into ~1e-8 noise.
    same = np.all(diff[:, None, :] == diff[None, :, :], axis=2)
    angles[same] = 0.0
    degenerate = norms == 0.0
    angles[degenerate, :] = 0.0
    angles[:, degenerate] = 0.0
    return angles


def center_slice(slice_values):
    """Double-center an angle slice.

    Subtracts row and column means and adds back the grand mean; all means
    divide by the full n (forced zeros included), matching the definition.
    """
    a = np.asarray(slice_values, dtype=np.float64)
    return a - a.mean(axis=1, keepdims=True) - a.mean(axis=0, keepdims=True) + a.mean()


# ---------------------------------------------------------------------------
# univariate samples: exact integer sums from per-observation counts
#
# For a 1-D sample the angle between scalar differences is 0 (same sign), pi
# (opposite signs) or forced 0 (a zero difference), which is exactly
# pi/2 (u_k u_l - s_k s_l).  Double-centering an outer product v w^T gives
# vtilde wtilde^T, hence A_r = pi/2 (utilde utilde^T - stilde stilde^T) and
#
#   sum_kl A_r B_r = (pi/2)^2 n^-2 (UU^2 + SS^2 - US^2 - SU^2),
#
# with UU = n <u_x, u_y> - sum(u_x) sum(u_y) and likewise for the other three
# pairs.  Every one of those is an integer: with L, E, G the numbers of
# observations below, level with (r included) and above observation r, and
# N(a, b) the joint counts (a, b in {<, =}) of x-order against y-order,
#
#   sum(s) = G - L,  sum(u) = n - E,
#   <u_x, u_y> = n - E_x - E_y + N(=,=),
#   <u_x, s_y> = G_y - L_y - E_x + 2 N(=,<) + N(=,=),
#   <s_x, u_y> = G_x - L_x - E_y + 2 N(<,=) + N(=,=),
#   <s_x, s_y> = G_x - L_x - 2 L_y - E_y + 4 N(<,<) + 2 N(=,<) + 2 N(<,=) + N(=,=).
#
# The totals I = sum_r (UU^2 + SS^2 - US^2 - SU^2) are exact, and the squared
# projection correlation is I_xy / sqrt(I_xx I_yy): the pi/2 and n factors
# cancel.
# ---------------------------------------------------------------------------

# Each squared term is at most n^4 and a per-slice term at most 2 n^4 in size,
# so the totals over r reach 2 n^5: int64 holds them up to n = 5404, and per-
# slice terms up to n = 46340 (see _exact_totals for the range in between).
_INT64_MAX = int(np.iinfo(np.int64).max)

# elements per (n, columns) temporary of a column block (about 0.5 MB)
_BLOCK_ELEMENTS = 1 << 16


def _dense_ranks(m):
    """1-based dense ranks of every column of an (n, p) array, as int32."""
    columns = np.ascontiguousarray(m.T)  # sorting along the last axis is fastest
    order = np.argsort(columns, axis=1)
    ordered = np.take_along_axis(columns, order, axis=1)
    step = np.ones(columns.shape, dtype=np.int32)
    step[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ranks = np.empty(columns.shape, dtype=np.int32)
    np.put_along_axis(ranks, order, np.cumsum(step, axis=1, dtype=np.int32), axis=1)
    return ranks.T


def _rank_marginals(ranks):
    """Observations below and level with each one, per column of (n, p) dense ranks.

    Returns two (n, p) int64 arrays.
    """
    n, p = ranks.shape
    columns = ranks.T + (n + 1) * np.arange(p)[:, None]  # one bin range per column
    per_rank = np.bincount(columns.ravel(), minlength=(n + 1) * p).reshape(p, n + 1)
    below = np.cumsum(per_rank, axis=1) - per_rank
    return (
        np.take_along_axis(below, ranks.T, axis=1).T.astype(np.int64),
        np.take_along_axis(per_rank, ranks.T, axis=1).T.astype(np.int64),
    )


def _fenwick_paths(size):
    """Node lists of prefix queries and point updates on a Fenwick tree.

    ``size`` is a power of two.  Column v of ``query`` lists the nodes whose
    sum is the prefix count of ranks 1..v, padded with node 0 (always empty);
    column v of ``update`` lists the nodes that hold rank v, padded with the
    spare node ``size + 1`` (never read).
    """
    width = size.bit_length()
    query = np.empty((width, size + 1), dtype=np.int64)
    node = np.arange(size + 1)
    for i in range(width):
        query[i] = node
        node = node - (node & -node)
    update = np.empty((width, size + 1), dtype=np.int64)
    node = np.arange(size + 1)
    node[0] = size + 1
    for i in range(width):
        update[i] = node
        node = np.minimum(node + (node & -node), size + 1)
    return query, update


def _joint_counts(ranks, starts):
    """N(<,<), N(=,<), N(<,=), N(=,=) of every (observation, column).

    ``ranks`` holds the x-ranks of the observations in ascending y order and
    ``starts`` the first row of each y tie group.  The walk takes one group at
    a time, keeping a Fenwick tree of the x-ranks seen so far and a plain
    count per x-rank, both with one contiguous stretch per column.  Before a
    group is inserted they hold exactly the observations with smaller y;
    after, also those level with it.  Returns the four (n, p) int32 count
    arrays and the final (rank, column) counts.
    """
    n, p = ranks.shape
    size = 1 << (int(ranks.max()) - 1).bit_length()
    query, update = _fenwick_paths(size)
    base = np.arange(p) * (size + 2)
    tree = np.zeros((size + 2) * p, dtype=np.int32)
    per_rank = np.zeros((size + 2) * p, dtype=np.int32)
    chunk = max(1, _BLOCK_ELEMENTS // (p * len(query)))

    def below(block):
        # prefix counts of ranks 1..rank-1; rows in chunks bound the gather
        out = np.empty(block.shape, dtype=np.int32)
        for i in range(0, len(block), chunk):
            nodes = query[:, block[i : i + chunk] - 1] + base
            out[i : i + chunk] = tree[nodes].sum(axis=0, dtype=np.int32)
        return out

    n_ll, n_el, n_le = (np.zeros((n, p), dtype=np.int32) for _ in range(3))
    n_ee = np.ones((n, p), dtype=np.int32)
    for a, b in zip(starts, starts[1:] + [n]):
        block = ranks[a:b]
        flat = block + base
        n_ll[a:b] = below(block)
        n_el[a:b] = per_rank[flat]
        for row in range(a, b):
            tree[update[:, ranks[row]] + base] += 1
            per_rank[flat[row - a]] += 1
        if b - a > 1:
            n_le[a:b] = below(block) - n_ll[a:b]
            n_ee[a:b] = per_rank[flat] - n_el[a:b]
    return n_ll, n_el, n_le, n_ee, per_rank.reshape(p, size + 2)[:, : size + 1].T


def _exact_totals(terms):
    """Column sums of an int64 (n, p) array of per-slice terms, exactly.

    Returns int64 sums while 2 n^5 fits int64, otherwise an object array of
    Python ints recombined from separately summed high and low 32-bit halves.
    """
    if 2 * terms.shape[0] ** 5 <= _INT64_MAX:
        return terms.sum(axis=0)
    high = (terms >> 32).sum(axis=0)
    low = (terms & 0xFFFFFFFF).sum(axis=0)
    return np.array([(int(h) << 32) + int(l) for h, l in zip(high, low)], dtype=object)


def _self_terms(n, lower, equal):
    """Per-slice terms UU^2 + SS^2 - 2 US^2 of a sample with itself."""
    signs = n - lower - equal - lower  # sum(s) = G - L
    uu = (n - equal) * equal
    ss = n * (n - equal) - signs * signs
    us = signs * equal
    return uu * uu + ss * ss - 2 * us * us


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
        lower, equal = _rank_marginals(_dense_ranks(x[:, c : c + block]))
        totals[c : c + block] = _exact_totals(_self_terms(n, lower, equal))
    return totals


def univariate_sums(x, y):
    """Exact slice totals I_xy, I_xx, I_yy of every column of ``x`` against ``y``.

    ``x`` is a validated (n, p) float array and ``y`` a length-n float vector.
    I = sum_r (UU^2 + SS^2 - US^2 - SU^2) for the pair; the accumulated
    statistics are s = (pi/2)^2 I / n^5.  Returns ``(xy, xx, yy)``: two
    length-p integer arrays (int64, or Python ints past n = 5404) and a
    Python int.
    """
    n, p = x.shape
    _check_exact_range(n)
    # rows in ascending y from here on; a tie group starts at row L_y
    y_ranks = _dense_ranks(y[:, None])
    order = np.argsort(y_ranks[:, 0])
    y_lower, y_equal = (a[order] for a in _rank_marginals(y_ranks))
    ranks = np.ascontiguousarray(_dense_ranks(x)[order])
    n_ll, n_el, n_le, n_ee, per_rank = _joint_counts(ranks, np.unique(y_lower).tolist())
    below_rank = np.cumsum(per_rank, axis=0) - per_rank

    y_signs = n - y_lower - y_equal - y_lower
    y_count = n - y_equal
    yy = int(_exact_totals(_self_terms(n, y_lower, y_equal))[0])

    xy = np.empty(p, dtype=np.int64 if 2 * n**5 <= _INT64_MAX else object)
    xx = np.empty_like(xy)
    block = max(1, _BLOCK_ELEMENTS // n)
    for c0 in range(0, p, block):
        c = slice(c0, c0 + block)
        cols = np.arange(c0, min(c0 + block, p))
        x_lower = below_rank[ranks[:, c], cols].astype(np.int64)
        x_equal = per_rank[ranks[:, c], cols].astype(np.int64)
        ll, el, le, ee = (a[:, c].astype(np.int64) for a in (n_ll, n_el, n_le, n_ee))
        x_signs = n - x_lower - x_equal - x_lower
        x_count = n - x_equal
        uv = x_count - y_equal + ee
        ut = y_signs - x_equal + 2 * el + ee
        sv = x_signs - y_equal + 2 * le + ee
        st = x_signs - 2 * y_lower - y_equal + 4 * ll + 2 * el + 2 * le + ee
        uu = n * uv - x_count * y_count
        ss = n * st - x_signs * y_signs
        us = n * ut - x_count * y_signs
        su = n * sv - x_signs * y_count
        xy[c] = _exact_totals(uu * uu + ss * ss - us * us - su * su)
        xx[c] = _exact_totals(_self_terms(n, x_lower, x_equal))
    return xy, xx, yy


def univariate_scores(x, y):
    """Squared projection correlation of every column of ``x`` with ``y``.

    ``x`` is a validated (n, p) float array and ``y`` a length-n float vector.
    Each score is I_xy / sqrt(I_xx I_yy) from :func:`univariate_sums`, 0 when
    a side is constant (0/0 = 0).  The exact ratio is at most 1 by
    Cauchy-Schwarz and exactly 1 for a column with y's ranking (or its
    reverse); the minimum with 1 stops the three int-to-float roundings from
    lifting a value within an ulp or two of 1 above it.
    """
    xy, xx, yy = univariate_sums(x, y)
    xy = xy.astype(np.float64)
    denom_sq = xx.astype(np.float64) * float(yy)
    scores = np.zeros(xy.shape)
    ok = denom_sq > 0.0
    scores[ok] = np.minimum(xy[ok] / np.sqrt(denom_sq[ok]), 1.0)
    return scores


def _slice_sums(full, x, features):
    """Raw slice sums of ``x`` against the multivariate sample ``full``.

    One loop over the slice indices r builds and centers each slice B_r of
    ``full`` once.  With ``features``, every column of ``x`` is a univariate
    sample with slices A_r = pi/2 (U U^T - S S^T); the centered sign factors S
    and U of a block of columns are (n, block) arrays, contracted with B_r by
    two matrix products.  Otherwise ``x`` is one multivariate sample whose
    full slices A_r are contracted directly.  Contributions are added in
    ascending r.

    Returns ``(xy, xx, yy)``: sum_r <A_r, B_r> per column (one entry if not
    ``features``), sum_r |A_r|^2 (``None`` with ``features``; the exact counts
    give it) and sum_r |B_r|^2, none of them yet scaled by n^-3.
    """
    n = full.shape[0]
    block = max(1, _BLOCK_ELEMENTS // n)
    xy = np.zeros(x.shape[1] if features else 1)
    xx = None if features else 0.0
    yy = 0.0
    for r in range(n):
        b = center_slice(_angle_slice_raw(full, r))
        yy += np.einsum("kl,kl->", b, b)
        if not features:
            a = center_slice(_angle_slice_raw(x, r))
            xy += np.einsum("kl,kl->", a, b)
            xx += np.einsum("kl,kl->", a, a)
            continue
        for c in range(0, x.shape[1], block):
            s = np.sign(x[:, c : c + block] - x[r, c : c + block])
            u = np.abs(s)
            s -= s.mean(axis=0)
            u -= u.mean(axis=0)
            xy[c : c + block] += np.einsum("kj,kj->j", u, b @ u) - np.einsum("kj,kj->j", s, b @ s)
    if features:
        xy *= _HALF_PI
    return xy, xx, yy


def _feature_stats(x, full):
    """s_xy and s_xx of every univariate column of ``x``, and s_yy of ``full``.

    ``full`` is multivariate; all three are scaled by n^-3 as in PcStats.
    """
    n = x.shape[0]
    xy, _, yy = _slice_sums(full, x, features=True)
    cube = float(n) ** 3
    return xy / cube, _self_totals(x) * (_HALF_PI * _HALF_PI / float(n) ** 5), yy / cube


def _ratio(s_xy, s_xx, s_yy):
    """s_xy / sqrt(s_xx s_yy) elementwise, 0 where the denominator vanishes.

    The minimum with 1 keeps rounding from lifting a value above its bound.
    """
    denom_sq = s_xx * s_yy
    scores = np.zeros(np.shape(s_xy))
    ok = denom_sq > 0.0
    scores[ok] = np.minimum(s_xy[ok] / np.sqrt(denom_sq[ok]), 1.0)
    return scores


def column_scores(x, y):
    """Squared projection correlation of every column of ``x`` with ``y``.

    ``x`` is a validated (n, p) array of univariate features and ``y`` a
    validated (n, q) response.  A univariate response takes the exact sweep
    of :func:`univariate_scores`; a multivariate one takes the slice loop,
    with all p columns on the matrix axis.  Each score depends on its own
    column only; on the slice loop a one-column call may differ from it in
    the last bits, as a matrix product and a matrix-vector product round
    differently.
    """
    if y.shape[1] == 1:
        return univariate_scores(x, y[:, 0])
    s_xy, s_xx, s_yy = _feature_stats(x, y)
    return _ratio(s_xy, s_xx, s_yy)


def pcov_stats(x, y):
    """Accumulated centered-slice sums between two sample matrices.

    Parameters
    ----------
    x, y : array-like, shape (n, m) and (n, q)
        Observation matrices with a shared row count.

    Returns
    -------
    PcStats with s_xy, s_xx, s_yy already scaled by n^-3.
    """
    xm = as_sample_matrix(x, "x")
    ym = as_sample_matrix(y, "y")
    n = xm.shape[0]
    if ym.shape[0] != n:
        raise DimensionMismatch(f"x has {n} observations but y has {ym.shape[0]}")

    if xm.shape[1] == 1 and ym.shape[1] == 1:
        xy, xx, yy = univariate_sums(xm, ym[:, 0])
        scale = _HALF_PI * _HALF_PI / float(n) ** 5
        return PcStats(
            s_xy=float(xy[0]) * scale, s_xx=float(xx[0]) * scale, s_yy=float(yy) * scale, n=n
        )
    if xm.shape[1] == 1 or ym.shape[1] == 1:
        # the univariate side always takes the factor axis, so swapping x and
        # y swaps s_xx and s_yy and nothing else
        swap = ym.shape[1] == 1
        s_xy, s_uu, s_mm = _feature_stats(*((ym, xm) if swap else (xm, ym)))
        s_xx, s_yy = (s_mm, s_uu[0]) if swap else (s_uu[0], s_mm)
        return PcStats(s_xy=float(s_xy[0]), s_xx=float(s_xx), s_yy=float(s_yy), n=n)
    xy, xx, yy = _slice_sums(ym, xm, features=False)
    cube = float(n) ** 3
    return PcStats(s_xy=float(xy[0]) / cube, s_xx=xx / cube, s_yy=yy / cube, n=n)


def projection_correlation_sq(x, y):
    """Squared sample projection correlation between two sample matrices.

    Returns ``s_xy / sqrt(s_xx * s_yy)``, with 0 when the denominator
    vanishes (the 0/0 = 0 convention for degenerate samples), and at most 1.
    The value is not clamped below zero: downstream statistics difference two
    of these and clamping would bias signs.  A univariate pair is scored by
    :func:`univariate_scores`, bitwise as in a batched call.  Equal
    multivariate inputs short-circuit to exactly 1.0, the correctly-rounded
    value of the exact ratio.
    """
    xm = as_sample_matrix(x, "x")
    ym = as_sample_matrix(y, "y")
    if xm.shape[0] != ym.shape[0]:
        raise DimensionMismatch(f"x has {xm.shape[0]} observations but y has {ym.shape[0]}")
    if xm.shape[1] == 1 and ym.shape[1] == 1:
        return float(univariate_scores(xm, ym[:, 0])[0])
    stats = pcov_stats(xm, ym)
    denom_sq = stats.s_xx * stats.s_yy
    if denom_sq <= 0.0:
        return 0.0
    if xm.shape == ym.shape and np.array_equal(xm, ym):
        return 1.0
    return min(stats.s_xy / math.sqrt(denom_sq), 1.0)
