"""Synthetic data generators for the simulation studies: linear, Poisson,
nonlinear, bivariate-response, and FDR-benchmark designs over AR-correlated
covariates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import toeplitz

from .errors import UnknownModel

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
    4 for 2x/3x (fixed by their functional forms), 10 for 4x.
    """

    id: str
    n: int
    p: int
    rho: float = 0.5
    s: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "id", _canonical_id(self.id))
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if not abs(self.rho) < 1:
            raise ValueError(f"|rho| must be below 1, got {self.rho}")
        s = self.active_count
        if self.id[0] in ("2", "3") and s != 4:
            raise ValueError(f"model {self.id} has exactly 4 active features, got s={s}")
        if s < 1 or self.p < s:
            raise ValueError(f"need 1 <= s <= p, got s={s} with p={self.p}")

    @property
    def active_count(self):
        return _family_active_count(self.id) if self.s is None else int(self.s)


@dataclass(frozen=True)
class GeneratedDataset:
    """One replication: covariates, response(s), truth, and overflow tallies."""

    x: np.ndarray
    y: np.ndarray
    true_active: tuple[int, ...]
    seed: int
    clamp_events: int = 0
    extreme_responses: int = 0


def ar_covariance(p, rho):
    """Toeplitz correlation matrix with entries rho^|i-j|."""
    rho = float(rho)
    if not abs(rho) < 1:
        raise ValueError(f"|rho| must be below 1, got {rho}")
    return toeplitz(rho ** np.arange(int(p)))


@lru_cache(maxsize=8)
def _sqrt_cov(p, rho):
    """Symmetric PSD square root of ar_covariance(p, rho), cached per shape."""
    values, vectors = np.linalg.eigh(ar_covariance(p, rho))
    root = (vectors * np.sqrt(np.maximum(values, 0.0))[None, :]) @ vectors.T
    return 0.5 * (root + root.T)

def _gaussian_ar(rng, n, p, rho):
    """Exact N(0, ar_covariance) rows via the stationary AR recursion.

    Column j is rho * column (j - 1) + sqrt(1 - rho^2) * z_j.  The recursion
    runs over rows of the transposed draw, so every step reads and writes
    contiguous memory; the result is C-ordered (n, p).
    """
    x = np.ascontiguousarray(rng.standard_normal((n, p)).T)
    x[1:] *= math.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        x[j] += rho * x[j - 1]
    return np.ascontiguousarray(x.T)


def _standard_cauchy(rng, shape):
    """Inverse-CDF standard Cauchy draws: tan(pi (U - 1/2))."""
    return np.tan(np.pi * (rng.random(shape) - 0.5))


def _correlated_cauchy(rng, n, p, rho):
    """Rows x = sqrt(Sigma) u with i.i.d. standard Cauchy coordinates u."""
    return _standard_cauchy(rng, (n, p)) @ _sqrt_cov(p, rho)


def _multivariate_t2(rng, n, p, rho):
    """t_2(0, Sigma) rows: Gaussian divided by sqrt(chi^2_2 / 2)."""
    z = _gaussian_ar(rng, n, p, rho)
    w = rng.chisquare(2.0, n)
    return z / np.sqrt(w / 2.0)[:, None]


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
    rng = np.random.default_rng(int(seed))
    clamped = 0

    if mid in ("1c", "1d"):
        x = _correlated_cauchy(rng, n, p, rho)
    elif mid == "4c":
        x = 0.9 * _gaussian_ar(rng, n, p, rho) + 0.1 * _multivariate_t2(rng, n, p, rho)
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
        seed=int(seed),
        clamp_events=clamped,
        extreme_responses=extreme,
    )
