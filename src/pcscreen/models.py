"""Synthetic data generators for the simulation studies: linear, Poisson,
nonlinear, bivariate-response, and FDR-benchmark designs over AR-correlated
covariates."""

from __future__ import annotations

import math
import queue
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import UnknownModel
from .kernel import _BLOCK_ELEMENTS, _seed, _whole
from .placement import run_pinned

MODEL_IDS = (
    "1a", "1b", "1c", "1d", "1e", "1f",
    "2a", "2b", "2c", "2d",
    "3a", "3b",
    "4a", "4b", "4c", "4d", "4e",
)

# exp() overflow guard for exponential / Poisson-rate responses
_EXP_CLAMP = 700.0
# numpy's Poisson sampler rejects rates beyond the int64 range
_POISSON_RATE_LIMIT = 9e18
_EXTREME_RESPONSE = 1e12
# the prefix-sum AR path scales by at most 2^_AR_SCALE_BITS, far from overflow
_AR_SCALE_BITS = 900


def _canonical_id(model_id):
    mid = str(model_id).strip().lower().replace(".", "")
    if mid not in MODEL_IDS:
        raise UnknownModel(f"unknown model id {model_id!r}; known: {', '.join(MODEL_IDS)}")
    return mid


def _family_active_count(mid):
    if mid[0] in ("2", "3"):
        return 4
    return 10 if mid[0] == "4" else 5


@dataclass(frozen=True)
class ModelSpec:
    """One simulation design: model id plus dimensions and AR parameter.

    ``s`` (active-feature count) defaults per family: 5 for the 1x models,
    4 for 2x/3x (fixed by their functional forms), 10 for 4x.  ``n``, ``p``
    and ``s`` are stored as ints (a fraction is refused), ``rho`` as a float.
    """

    id: str
    n: int
    p: int
    rho: float = 0.5
    s: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "id", _canonical_id(self.id))
        for name in ("n", "p") + (() if self.s is None else ("s",)):
            least = 2 if name == "n" else None
            object.__setattr__(self, name, _whole(getattr(self, name), name, least))
        object.__setattr__(self, "rho", float(self.rho))
        if not abs(self.rho) < 1:
            raise ValueError(f"|rho| must be below 1, got {self.rho}")
        s = self.active_count
        if self.id[0] in ("2", "3") and s != 4:
            raise ValueError(f"model {self.id} has exactly 4 active features, got s={s}")
        if s < 1 or self.p < s:
            raise ValueError(f"need 1 <= s <= p, got s={s} with p={self.p}")

    @property
    def active_count(self):
        return _family_active_count(self.id) if self.s is None else self.s


@dataclass(frozen=True)
class GeneratedDataset:
    """One replication: covariates, response(s), truth, and overflow tallies."""

    x: np.ndarray
    y: np.ndarray
    true_active: tuple[int, ...]
    clamp_events: int = 0
    extreme_responses: int = 0


@lru_cache(maxsize=8)
def _sqrt_cov(p, rho):
    """Symmetric PD square root of Sigma = [rho^|i-j|] (p x p), cached per shape.

    The matrix is the Kac-Murdock-Szego matrix, whose eigenpairs are known
    in closed form (Kac, Murdock & Szego 1953, "On the eigenvalues of certain
    Hermitian forms", J. Rational Mech. Anal. 2):

    - theta_k, k = 1..p, is the one root in ((k-1) pi/p, k pi/p) of
      f(theta) = sin((p+1) theta) - 2 rho sin(p theta) + rho^2 sin((p-1) theta),
      found by 60 bisection steps; f has sign (-1)^(k-1) at the left end of
      interval k (f is exactly 0 at theta = 0, so the sign is not read from f);
    - lambda_k = (1 - rho^2) / (1 - 2 rho cos theta_k + rho^2);
    - eigenvector k has components sin(j theta_k) - rho sin((j-1) theta_k),
      j = 1..p, which equal r_k sin(j theta_k + phi_k) with
      phi_k = atan2(rho sin theta_k, 1 - rho cos theta_k); the column is
      normalized, so r_k drops out.

    With W = V diag(lambda^(1/4)) the root is W W^T, a symmetric product, so
    the result is exactly symmetric.  The array is cached and shared by every
    caller in the process, so it is read-only.
    """
    rho = float(rho)
    k = np.arange(p)
    lo = k * (np.pi / p)
    hi = lo + np.pi / p
    left_sign = np.where(k % 2 == 0, 1.0, -1.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f = np.sin((p + 1) * mid) - 2.0 * rho * np.sin(p * mid) + rho * rho * np.sin((p - 1) * mid)
        left = f * left_sign > 0.0
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    theta = 0.5 * (lo + hi)
    cos = np.cos(theta)
    values = (1.0 - rho * rho) / (1.0 - 2.0 * rho * cos + rho * rho)
    w = np.multiply.outer(np.arange(1.0, p + 1.0), theta)
    w += np.arctan2(rho * np.sin(theta), 1.0 - rho * cos)
    np.sin(w, out=w)
    w *= values**0.25 / np.sqrt(np.einsum("jk,jk->k", w, w))
    root = w @ w.T
    root.flags.writeable = False
    return root


def _gaussian_ar(rng, n, p, rho):
    """Exact N(0, Sigma) rows, Sigma = [rho^|i-j|], via the stationary AR recursion.

    Column j is s_j = rho * s_(j-1) + c z_j with c = sqrt(1 - rho^2), run in
    place on the C-ordered draw; no second (n, p) array is made.  Both paths
    below give the bits of that literal recursion, zero signs included.

    rho = 2^-k with 1 <= k <= 64 (0.5, 0.25, ...) takes a prefix sum: within
    a slab of L = _AR_SCALE_BITS // k columns after column j0, the scaled
    t_m = 2^(k m) s_(j0+m) obey t_m = t_(m-1) + 2^(k m) c z_(j0+m), which one
    np.add.accumulate per slab runs along the rows.  It is exact because
    multiplying by a power of two commutes with rounding while no value
    overflows (k m <= _AR_SCALE_BITS) or leaves the normal range (rho * s
    stays normal for every |s| >= 2^-958), and because IEEE addition is
    commutative.  A negative rho would scale by -2^(k m), and negation does
    not commute with an exact cancellation (x + (-x) is +0, never -0), so
    every other rho (negative, 0, 0.3, ...) runs the recursion as written,
    one column at a time.

    The draw fills the rows in order, in chunks, which is the stream and the
    bits of one draw.  The recursion runs within each row, so where the
    affinity mask holds two CPUs and x at least two kernel blocks
    (``_BLOCK_ELEMENTS``), a helper thread on the other CPU runs it on the
    rows drawn so far while this thread draws on
    (:func:`placement.run_pinned`); elsewhere it runs on all rows after the
    draw.  A prefix-sum chunk is one block.  The plain recursion takes p
    Python steps a pass, which hold the interpreter lock, and a draw waits
    for that lock at the end of each chunk, so it draws in two halves.
    """
    x = np.empty((n, p))
    c = math.sqrt(1.0 - rho * rho)
    mantissa, exponent = math.frexp(rho)
    k = 1 - exponent
    if mantissa == 0.5 and k <= 64:
        recur, chunk = partial(_ar_prefix_sums, k=k, c=c), max(1, _BLOCK_ELEMENTS // p)
    else:
        recur, chunk = partial(_ar_plain, rho=rho, c=c), -(-n // 2)
    drawn = queue.SimpleQueue()  # the end of each chunk drawn; None after a failed draw

    def draw():
        try:
            for start in range(0, n, chunk):
                rng.standard_normal(out=x[start : start + chunk])
                drawn.put(min(start + chunk, n))
        except BaseException:
            drawn.put(None)  # stops the recursion; the error reaches the caller
            raise

    def recur_drawn():
        done = 0
        while done < n:
            stop = drawn.get()
            while stop is not None and not drawn.empty():  # every row drawn by now
                stop = drawn.get()
            if stop is None:
                return
            recur(x[done:stop])
            done = stop

    if n * p < 2 * _BLOCK_ELEMENTS:  # too small to share
        draw()
        recur_drawn()
    else:
        run_pinned([draw, recur_drawn])
    return x


def _ar_prefix_sums(x, k, c):
    """:func:`_gaussian_ar`'s prefix-sum path for rho = 2^-k and
    c = sqrt(1 - rho^2), in place on the drawn rows ``x``."""
    p = x.shape[1]
    width = _AR_SCALE_BITS // k
    m = np.arange(p - 1) % width + 1  # column j's place in its slab
    x[:, 1:] *= np.ldexp(c, k * m)
    carry = x[:, 0]
    for start in range(1, p, width):
        slab = x[:, start : start + width]
        slab[:, 0] += carry
        np.add.accumulate(slab, axis=1, out=slab)
        carry = slab[:, -1] * math.ldexp(1.0, -k * width)
    x[:, 1:] *= np.ldexp(1.0, -k * m)


def _ar_plain(x, rho, c):
    """:func:`_gaussian_ar`'s recursion as written, with c = sqrt(1 - rho^2),
    in place on the drawn rows ``x``."""
    x[:, 1:] *= c
    for j in range(1, x.shape[1]):
        x[:, j] += rho * x[:, j - 1]


def _standard_cauchy(rng, shape):
    """Inverse-CDF standard Cauchy draws: tan(pi (U - 1/2))."""
    u = rng.random(shape)
    u -= 0.5
    u *= np.pi
    return np.tan(u, out=u)


def _correlated_cauchy(rng, n, p, rho):
    """Rows x = sqrt(Sigma) u with i.i.d. standard Cauchy coordinates u."""
    return _standard_cauchy(rng, (n, p)) @ _sqrt_cov(p, rho)


def _multivariate_t2(rng, n, p, rho):
    """t_2(0, Sigma) rows: Gaussian divided by sqrt(chi^2_2 / 2)."""
    z = _gaussian_ar(rng, n, p, rho)
    w = rng.chisquare(2.0, n)
    return np.divide(z, np.sqrt(w / 2.0)[:, None], out=z)


def _signal(x, s, coef):
    return coef * x[:, :s].sum(axis=1)


def generate_dataset(spec, seed):
    """Draw one dataset for ``spec`` from a generator seeded with ``seed``.

    Randomness is consumed in a fixed order — covariates (auxiliary
    components included), then noise/response draws — so outputs are
    reproducible per (spec, seed).  Exponential responses clamp their
    exponent at 700 (Poisson rates additionally at the sampler's limit),
    counting the affected rows in ``clamp_events``; response entries beyond
    1e12 in magnitude are tallied in ``extreme_responses``.
    """
    mid = spec.id
    n, p, rho, s = spec.n, spec.p, spec.rho, spec.active_count
    rng = np.random.default_rng(_seed(seed))
    clamped = 0

    if mid in ("1c", "1d"):
        x = _correlated_cauchy(rng, n, p, rho)
    elif mid == "4c":
        x = _gaussian_ar(rng, n, p, rho)
        x *= 0.9
        t = _multivariate_t2(rng, n, p, rho)
        t *= 0.1
        x += t
    else:
        x = _gaussian_ar(rng, n, p, rho)

    if mid in ("1a", "1b", "1c", "1d", "4a", "4b", "4c"):
        if mid in ("1b", "1d"):
            eps = _standard_cauchy(rng, n)
        elif mid == "4b":
            eps = rng.standard_t(2.0, n)
        else:
            eps = rng.standard_normal(n)
        y = _signal(x, s, 1.0) + eps
    elif mid in ("1e", "4d"):
        t = _signal(x, s, 2.0)
        clamped = int(np.count_nonzero(t > _EXP_CLAMP))
        y = np.exp(np.minimum(t, _EXP_CLAMP)) + rng.standard_normal(n)
    elif mid in ("1f", "4e"):
        t = _signal(x, s, 2.0)
        rate = np.exp(np.minimum(t, _EXP_CLAMP))
        clamped = int(np.count_nonzero(rate > _POISSON_RATE_LIMIT))
        y = rng.poisson(np.minimum(rate, _POISSON_RATE_LIMIT)).astype(np.float64)
    elif mid[0] == "2":
        x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
        eps = rng.standard_normal(n)
        if mid == "2a":
            y = (
                5.0 * x1
                + 2.0 * np.sin(np.pi * x2 / 2.0)
                + 2.0 * x3 * (x3 > 0)
                + 2.0 * np.exp(5.0 * x4)
                + eps
            )
        elif mid == "2b":
            y = 3.0 * x1 + 3.0 * x2 * x2 * x2 + 3.0 / x3 + 5.0 * (x4 > 0) + eps
        elif mid == "2c":
            u = x2 + x3
            y = 1.0 - 5.0 * u * u * u * np.exp(-5.0 * (x1 + x4 * x4)) + eps
        else:
            u = x2 + x3
            growth = np.exp(1.0 + 10.0 * np.sin(np.pi * x1 / 2.0) + 5.0 * x4)
            y = 1.0 - 5.0 * growth / (u * u * u) + eps
    else:
        x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
        theta_x = 2.0 * (x1 + x2 + x3 + x4)
        if mid == "3a":
            mu1 = np.exp(2.0 * (x1 + x2))
            mu2 = x3 + x4
            sig = np.sin(theta_x)
        else:
            mu1 = 2.0 * np.sin(np.pi * x1 / 2.0) + x3 + np.exp(1.0 + x4)
            mu2 = 1.0 / (x1 * x1) + x2
            # (e^t - 1)/(e^t + 1) written as tanh(t/2) to avoid overflow
            sig = np.tanh(theta_x / 2.0)
        z = rng.standard_normal((n, 2))
        y1 = mu1 + z[:, 0]
        y2 = mu2 + sig * z[:, 0] + np.sqrt(np.maximum(0.0, 1.0 - sig * sig)) * z[:, 1]
        y = np.column_stack([y1, y2])

    if y.ndim == 1:
        y = y[:, None]
    extreme = int(np.count_nonzero(np.abs(y) > _EXTREME_RESPONSE))
    return GeneratedDataset(
        x=x,
        y=y,
        true_active=tuple(range(s)),
        clamp_events=clamped,
        extreme_responses=extreme,
    )
