"""Independent reference computations used as test oracles.

Everything here is written straight from the definitions with plain Python
scalars (``math.fsum`` accumulation, literal nested loops), closed forms or
direct simulation, and shares no code with the package implementations it is used
to check beyond input validation.  The one exception is
:func:`kernel_pcov_stats`, the fast side these oracles are compared with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pcscreen import kernel
from pcscreen.errors import DimensionMismatch, InputTooLarge
from pcscreen.kernel import as_sample_matrix


@dataclass(frozen=True)
class PcStats:
    """The three accumulated slice sums, already scaled by n^-3."""

    s_xy: float
    s_xx: float
    s_yy: float


def kernel_pcov_stats(x, y):
    """The kernel's own s_xy, s_xx and s_yy of two samples, as PcStats.

    Picks the kernel path by sample shape, as the package's callers do: the
    exact sums of :func:`kernel.univariate_sums` for two univariate samples,
    the slice loop (:func:`kernel._slice_sums` with :func:`kernel._self_totals`)
    with a univariate side on the feature axis, and :func:`kernel._pair_sums`
    for two multivariate samples.
    """
    xm, ym = kernel._sample_pair(x, y)
    n = xm.shape[0]
    scale = kernel._HALF_PI * kernel._HALF_PI / float(n) ** 5  # of the exact totals
    if xm.shape[1] == ym.shape[1] == 1:
        xy, xx, yy = kernel.univariate_sums(xm, ym[:, 0])
        return PcStats(float(xy[0]) * scale, float(xx[0]) * scale, float(yy) * scale)
    if ym.shape[1] == 1:
        # the univariate side takes the feature axis: swapping the samples
        # swaps s_xx and s_yy and nothing else
        swapped = kernel_pcov_stats(ym, xm)
        return PcStats(swapped.s_xy, swapped.s_yy, swapped.s_xx)
    if xm.shape[1] == 1:
        xy, yy = kernel._slice_sums(ym, xm)
        xx = float(kernel._self_totals(xm)[0]) * scale
        cube = float(n) ** 3
        return PcStats(float(xy[0]) / cube, xx, float(yy) / cube)
    return PcStats(*kernel._pair_sums(xm, ym)[:, 0].tolist())


def angle_matrix_fsum(points, r):
    """All pairwise angles seen from observation ``r``, in extended precision.

    Scalar evaluation of atan2(|u ^ v|, u . v) for the differences u and v,
    with |u ^ v|^2 = sum_{i<j} (u_i v_j - u_j v_i)^2 and every sum accumulated
    with ``math.fsum``.  Entries involving observation ``r`` or a zero
    difference are zero by convention.  Equal or opposite differences have an
    exactly zero wedge, so their angles are exactly 0 and pi.
    """
    pts = [[float(v) for v in row] for row in points]
    n = len(pts)
    dim = len(pts[0])
    diffs = [[pts[k][i] - pts[r][i] for i in range(dim)] for k in range(n)]
    out = [[0.0] * n for _ in range(n)]
    for k in range(n):
        if k == r or not any(diffs[k]):
            continue
        for l in range(n):
            if l == r or not any(diffs[l]):
                continue
            u, v = diffs[k], diffs[l]
            wedge = math.fsum(
                (u[i] * v[j] - u[j] * v[i]) ** 2 for i in range(dim) for j in range(i + 1, dim)
            )
            out[k][l] = math.atan2(math.sqrt(wedge), math.fsum(a * b for a, b in zip(u, v)))
    return np.array(out)


def double_center_fsum(values):
    """Per-entry four-term double centering with fsum row/column/grand means."""
    a = [[float(v) for v in row] for row in values]
    n = len(a)
    row_means = [math.fsum(row) / n for row in a]
    col_means = [math.fsum(a[k][l] for k in range(n)) / n for l in range(n)]
    grand = math.fsum(row_means) / n
    return np.array(
        [
            [a[k][l] - row_means[k] - col_means[l] + grand for l in range(n)]
            for k in range(n)
        ]
    )


def pearson_abs_fsum(x_col, y_col):
    """|sample Pearson correlation| via the covariance formula, fsum sums.

    Returns 0 when either centered sum of squares vanishes.
    """
    xs = [float(v) for v in x_col]
    ys = [float(v) for v in y_col]
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
    sxx = math.fsum((a - mx) * (a - mx) for a in xs)
    syy = math.fsum((b - my) * (b - my) for b in ys)
    if sxx <= 0.0 or syy <= 0.0:
        return 0.0
    return abs(sxy) / math.sqrt(sxx * syy)


def brute_force_selection(w_values, alpha):
    """(t, selected positions, fdp estimate) by trying every candidate threshold.

    Literal enumeration of the selection rule: every distinct nonzero |w| is a
    candidate, and the winner is the smallest one whose ratio
    ``(1 + #{w <= -t}) / #{w >= t}`` is defined (positive denominator) and at
    most ``alpha``.
    """
    values = [float(v) for v in w_values]
    feasible = []
    for t in sorted({abs(v) for v in values} - {0.0}):
        pos = sum(1 for v in values if v >= t)
        neg = sum(1 for v in values if v <= -t)
        if pos > 0 and (1 + neg) / pos <= alpha:
            feasible.append(t)
    if not feasible:
        return math.inf, (), 0.0
    t = min(feasible)
    selected = tuple(j for j, v in enumerate(values) if v >= t)
    neg = sum(1 for v in values if v <= -t)
    return t, selected, neg / max(1, len(selected))


def coin_flip_feasibility(s, k_max, trials, seed):
    """Simulated per-k feasibility frequencies of the knockoff+ ratio event.

    Setting: the ``s`` active statistics are positive and ranked above every
    null, and each of the ``k_max`` null statistics carries an independent
    fair sign.  The candidate threshold sitting at the k-th largest null is
    feasible for some level below 1/s iff the ``m`` minus signs among those k
    nulls satisfy ``(1 + m) * s < s + k - m`` — the selection ratio with s+k-m
    statistics at or above the candidate and m at or below its negation,
    cross-multiplied in exact integers.  Returns frequencies ``ahat[k]`` for
    k = 0..k_max (entry 0 is 0).
    """
    rng = np.random.default_rng(seed)
    minus = rng.integers(0, 2, size=(trials, k_max))
    m = np.cumsum(minus, axis=1)
    k = np.arange(1, k_max + 1)
    feasible = (1 + m) * s < s + k[None, :] - m
    ahat = np.zeros(k_max + 1)
    ahat[1:] = feasible.mean(axis=0)
    return ahat


def chain_stop_mass(a):
    """The b-chain built from per-k feasibility values:
    ``b[k] = a[k] * max(0, 1 - a[k-1] - ... - a[1])``."""
    b = np.zeros_like(np.asarray(a, dtype=np.float64))
    partial = 0.0
    for k in range(1, b.size):
        b[k] = a[k] * max(0.0, 1.0 - partial)
        partial += a[k]
    return b


def scan_stop_frequencies(s, k_max, trials, seed):
    """Stop-by-k frequencies of the sequential threshold scan itself.

    One shared sign sequence per trial; the scan visits null candidates from
    the largest statistic downward (k ascending) and stops at the first
    feasible position.  ``out[k]`` is the fraction of trials stopped at a
    position <= k.
    """
    rng = np.random.default_rng(seed)
    minus = rng.integers(0, 2, size=(trials, k_max))
    m = np.cumsum(minus, axis=1)
    k = np.arange(1, k_max + 1)
    feasible = (1 + m) * s < s + k[None, :] - m
    stopped = np.maximum.accumulate(feasible, axis=1)
    out = np.zeros(k_max + 1)
    out[1:] = stopped.mean(axis=0)
    return out


def exact_univariate_totals(x, y):
    """Slice totals I_xy, I_xx, I_yy of every column of ``x`` against ``y``.

    Literal loops over Python ints: at slice r each sample gives its sign
    vector s_k = sign(v_k - v_r) and u = |s|, and every centered dot product
    such as UU = n <u_x, u_y> - sum(u_x) sum(u_y) is formed directly.  I sums
    UU^2 + SS^2 - US^2 - SU^2 over r.  O(n^2) per column and pair.
    """
    columns = [[float(v) for v in col] for col in np.asarray(x, dtype=np.float64).T]
    response = [float(v) for v in y]
    n = len(response)

    def total(a, b):
        out = 0
        for r in range(n):
            sa = [(v > a[r]) - (v < a[r]) for v in a]
            sb = [(v > b[r]) - (v < b[r]) for v in b]
            ua = [abs(v) for v in sa]
            ub = [abs(v) for v in sb]

            def centered(f, g):
                return n * sum(i * j for i, j in zip(f, g)) - sum(f) * sum(g)

            out += (
                centered(ua, ub) ** 2
                + centered(sa, sb) ** 2
                - centered(ua, sb) ** 2
                - centered(sa, ub) ** 2
            )
        return out

    return (
        [total(col, response) for col in columns],
        [total(col, col) for col in columns],
        total(response, response),
    )


def naive_pcov_stats(x, y):
    """Reference statistics by the most literal translation of the formulas.

    Materializes every angle a_klr, every row/column/grand mean and every
    centered value in nested lists, then sums with scalar loops.  Guarded to
    n <= 64; use only as a test oracle.
    """
    xm = as_sample_matrix(x, "x")
    ym = as_sample_matrix(y, "y")
    n = xm.shape[0]
    if ym.shape[0] != n:
        raise DimensionMismatch(f"x has {n} observations but y has {ym.shape[0]}")
    if n > 64:
        raise InputTooLarge(f"naive reference limited to n <= 64, got {n}")
    a = _naive_centered_slices(xm)
    b = _naive_centered_slices(ym)
    s_xy = 0.0
    s_xx = 0.0
    s_yy = 0.0
    for r in range(n):
        for k in range(n):
            for l in range(n):
                s_xy += a[r][k][l] * b[r][k][l]
                s_xx += a[r][k][l] * a[r][k][l]
                s_yy += b[r][k][l] * b[r][k][l]
    n3 = float(n * n * n)
    return PcStats(s_xy=s_xy / n3, s_xx=s_xx / n3, s_yy=s_yy / n3)


def _naive_centered_slices(m):
    rows = [tuple(float(v) for v in row) for row in m]
    n = len(rows)
    dim = len(rows[0])
    centered = []
    for r in range(n):
        raw = [[0.0] * n for _ in range(n)]
        for k in range(n):
            if k == r:
                continue
            dk = [rows[k][i] - rows[r][i] for i in range(dim)]
            if not any(dk):
                continue
            for l in range(n):
                if l == r:
                    continue
                dl = [rows[l][i] - rows[r][i] for i in range(dim)]
                if not any(dl):
                    continue
                # atan2(|dk ^ dl|, dk . dl), the wedge norm summed over i < j
                wedge = 0.0
                for i in range(dim):
                    for j in range(i + 1, dim):
                        wedge += (dk[i] * dl[j] - dk[j] * dl[i]) ** 2
                dot = sum(dk[i] * dl[i] for i in range(dim))
                raw[k][l] = math.atan2(math.sqrt(wedge), dot)
        row_mean = [sum(raw[k][l] for l in range(n)) / n for k in range(n)]
        col_mean = [sum(raw[k][l] for k in range(n)) / n for l in range(n)]
        grand = sum(row_mean) / n
        centered.append(
            [
                [raw[k][l] - row_mean[k] - col_mean[l] + grand for l in range(n)]
                for k in range(n)
            ]
        )
    return centered


def ar_covariance(p, rho):
    """Toeplitz correlation matrix with entries rho^|i-j|: the covariance
    that the models' AR(rho) covariates and ``models._sqrt_cov`` stand for."""
    rho = float(rho)
    if not abs(rho) < 1:
        raise ValueError(f"|rho| must be below 1, got {rho}")
    p = int(p)
    powers = rho ** np.arange(p)
    # row i is the p-wide window at offset p - 1 - i of
    # rho^(p-1), ..., rho, 1, rho, ..., rho^(p-1)
    mirrored = np.concatenate((powers[::-1], powers[1:]))
    windows = np.lib.stride_tricks.sliding_window_view(mirrored, p)
    return windows[np.arange(p - 1, -1, -1)]


def phase_transition_probabilities(s, k_max):
    """Stopping probabilities of the knockoff+ scan over null sign sequences.

    a_k is the chance that k fair signs leave the selection ratio feasible for
    some level below 1/s — a binomial tail: with m minus signs among k, the
    event is m(s+1) < k, so

        a_k = sum_{i=0..floor((k-1)/(s+1))} C(k, i) (1/2)^k,   a_0 = 0,

    and b_k = a_k (1 - a_{k-1} - ... - a_0) chains them into per-k stopping
    mass.  The remainder factor is clamped at zero (the raw partial sums of
    a_k can exceed 1 for large k, e.g. s=10 beyond k=12, which would otherwise
    drive b_k slightly negative); with the clamp every b_k >= 0 and the
    partial sum of b stays at most 1.

    Returns (a, b, partial_sum) with arrays indexed so that a[k], b[k]
    correspond to sequence position k (entry 0 is 0).  Every a_k is the
    correctly rounded value of the exact binomial tail: the tail count
    T(k) = sum_{i<=(k-1)//(s+1)} C(k, i) is a Python int, and a_k = T(k) / 2^k
    is one int-by-int true division.
    """
    s = int(s)
    k_max = int(k_max)
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    a = np.zeros(k_max + 1)
    for k in range(1, k_max + 1):
        a[k] = sum(math.comb(k, i) for i in range((k - 1) // (s + 1) + 1)) / 2**k
    b = np.zeros(k_max + 1)
    partial_a = 0.0
    for k in range(1, k_max + 1):
        b[k] = a[k] * max(0.0, 1.0 - partial_a)
        partial_a += a[k]
    return a, b, min(1.0, float(b.sum()))
