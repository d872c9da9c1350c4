"""Second-order Gaussian knockoffs.

Standardizes a feature submatrix to correlation scale, picks the diagonal
h-vector (equicorrelated closed form or a small SDP), assembles the joint
second-moment target

    G = [[Sigma, Sigma - diag(h)], [Sigma - diag(h), Sigma]],

and samples knockoff rows from the conditional Gaussian

    Xknock | X ~ N( (Sigma - diag(h)) Sigma^-1 x,
                    2 diag(h) - diag(h) Sigma^-1 diag(h) ),

the unique mechanism matching G exactly for Gaussian X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumn, DimensionMismatch, InfeasibleH, SolverFailure
from .kernel import _seed, as_sample_matrix

MIN_EIGENVALUE = 1e-8
FEASIBILITY_TOL = 1e-8
MAX_NEWTON_STEPS = 500


@dataclass(frozen=True)
class CovarianceEstimate:
    """The correlation matrix of a standardized sample and its smallest eigenvalue.

    ``sigma`` is symmetric with unit diagonal and smallest eigenvalue at least
    1e-8 (jittered toward the identity when necessary; the blend used is
    recorded in ``jitter_applied``).  ``lambda_min`` is
    ``np.linalg.eigvalsh(sigma)[0]``, computed once here so that the h
    constructions need not decompose ``sigma`` again.
    """

    sigma: np.ndarray
    jitter_applied: float
    lambda_min: float


@dataclass(frozen=True)
class KnockoffModel:
    """Everything needed to draw knockoffs: h, conditional factors, diagnostics."""

    h: np.ndarray
    cond_mean_factor: np.ndarray
    cond_cov_root: np.ndarray
    clip_magnitude: float
    g_lambda_min: float


def estimate_covariance(x):
    """Standardize columns to mean 0 / variance 1 and form the correlation matrix.

    Returns ``(z, cov)``: the standardized sample and its
    :class:`CovarianceEstimate`.  Jitters toward the identity (preserving the
    unit diagonal) when the smallest eigenvalue falls below 1e-8.
    """
    xm = as_sample_matrix(x, "x")
    n, d = xm.shape
    mu = xm.mean(axis=0)
    centered = xm - mu
    sumsq = np.einsum("ij,ij->j", centered, centered)
    # a constant column whose mean rounds (0.1 fifty times) leaves rounding
    # noise in sumsq, so equal entries are checked as such
    degenerate = np.all(xm == xm[0], axis=0) | (sumsq <= 0.0)
    if np.any(degenerate):
        column = int(np.argmax(degenerate))
        raise DegenerateColumn(f"column {column} has zero variance", column)
    scale = np.sqrt(sumsq / (n - 1))
    z = centered / scale
    sigma = (z.T @ z) / (n - 1)
    np.fill_diagonal(sigma, 1.0)
    jitter = 0.0
    lam_min = float(np.linalg.eigvalsh(sigma)[0])
    if lam_min < MIN_EIGENVALUE:
        # (sigma + eps I)/(1 + eps) keeps the unit diagonal and lifts the
        # smallest eigenvalue to (lam + eps)/(1 + eps); eps below is the
        # smallest blend restoring the bound, nudged up if round-off bites.
        eps = (MIN_EIGENVALUE - lam_min) / (1.0 - MIN_EIGENVALUE)
        for _ in range(20):
            candidate = (sigma + eps * np.eye(d)) / (1.0 + eps)
            np.fill_diagonal(candidate, 1.0)
            lam_min = float(np.linalg.eigvalsh(candidate)[0])
            if lam_min >= MIN_EIGENVALUE:
                break
            eps *= 1.1
        sigma = candidate
        jitter = eps
    return z, CovarianceEstimate(sigma=sigma, jitter_applied=float(jitter), lambda_min=lam_min)


def equicorrelated_h(cov):
    """The equicorrelated diagonal: h_j = min(2 lambda_min(sigma), 1) for all j."""
    return np.full(cov.sigma.shape[0], min(2.0 * cov.lambda_min, 1.0))


def _log_barrier(two_sigma, h):
    """logdet(2 sigma - diag(h)) + sum log h_j + sum log(1 - h_j), or None
    where h leaves the open box (0, 1)^d or 2 sigma - diag(h) is not
    positive definite."""
    if not (np.all(h > 0.0) and np.all(h < 1.0)):
        return None
    try:
        factor = np.linalg.cholesky(two_sigma - np.diag(h))
    except np.linalg.LinAlgError:
        return None
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor))))
    return logdet + float(np.sum(np.log(h))) + float(np.sum(np.log(1.0 - h)))


def _line_search(two_sigma, h, barrier, step, decrement, mu):
    """The first of h + t step, t = 1, 1/2, ... > 1e-14, that raises the
    objective sum h_j + mu barrier by at least 0.25 t decrement, with its
    barrier; None if no t does."""
    value = float(np.sum(h)) + mu * barrier
    t = 1.0
    while t > 1e-14:
        trial = h + t * step
        trial_barrier = _log_barrier(two_sigma, trial)
        if trial_barrier is not None and (
            float(np.sum(trial)) + mu * trial_barrier > value + 0.25 * t * decrement
        ):
            return trial, trial_barrier
        t *= 0.5
    return None


def sdp_h(cov):
    """Minimize sum |1 - h_j| subject to 0 <= h_j <= 1 and diag(h) <= 2 sigma.

    Log-barrier interior-point method: maximize

        sum h_j + mu [ logdet(2 sigma - diag(h)) + sum log h_j + sum log(1 - h_j) ]

    by damped Newton steps while shrinking mu toward 0, which follows the
    central path to the optimum.  One loop takes at most
    ``MAX_NEWTON_STEPS`` steps; mu starts at 1 and shrinks fivefold when the
    Newton decrement falls below 1e-12, when the line search finds no
    ascent, or after 50 steps at one mu, and the loop ends once mu is at
    most 1e-9.  Running out of steps returns the last iterate, which is
    always feasible.  That iterate is polished by snapping h_j within 1e-6
    of the box ends to exactly 0 or 1 when the result stays feasible within
    ``FEASIBILITY_TOL``, and is compared against the equicorrelated point,
    so the returned objective never exceeds the equicorrelated objective.
    """
    sigma = cov.sigma
    d = sigma.shape[0]
    two_sigma = 2.0 * sigma
    lam_min = cov.lambda_min
    if lam_min <= 0.0:
        raise SolverFailure("2*sigma is not positive definite; no feasible h exists")

    # strictly interior start: uniform h = lambda_min keeps 2 sigma - diag(h)
    # at smallest eigenvalue >= lambda_min > 0
    h = np.full(d, min(lam_min, 1.0 - 1e-4))
    barrier = _log_barrier(two_sigma, h)
    if barrier is None:
        raise SolverFailure("could not find a strictly feasible starting point")

    mu, steps_at_mu, inv = 1.0, 0, None
    for _ in range(MAX_NEWTON_STEPS):
        if inv is None:  # a cut of mu that took no step keeps h, and so its inverse
            inv = np.linalg.inv(two_sigma - np.diag(h))
        grad = 1.0 + mu * (-np.diag(inv) + 1.0 / h - 1.0 / (1.0 - h))
        curv = mu * (inv * inv + np.diag(1.0 / h**2 + 1.0 / (1.0 - h) ** 2))
        step = np.linalg.solve(curv, grad)
        decrement = float(grad @ step)
        steps_at_mu += 1
        found = None
        if decrement >= 1e-12:
            found = _line_search(two_sigma, h, barrier, step, decrement, mu)
        if found is not None:
            h, barrier = found
            inv = None
        if found is None or steps_at_mu == 50:
            mu *= 0.2
            steps_at_mu = 0
            if mu <= 1e-9:
                break

    # polish: exact box values are allowed when feasibility holds within
    # FEASIBILITY_TOL
    snapped = np.where(h > 1.0 - 1e-6, 1.0, np.where(h < 1e-6, 0.0, h))
    if float(np.linalg.eigvalsh(two_sigma - np.diag(snapped))[0]) >= -FEASIBILITY_TOL:
        h = snapped
    h_eq = equicorrelated_h(cov)
    if float(np.sum(np.abs(1.0 - h))) <= float(np.sum(np.abs(1.0 - h_eq))):
        return h
    return h_eq


def build_knockoff_model(cov, h):
    """Assemble conditional-sampling factors and verify the joint target is PSD.

    The conditional mean factor is computed as I - diag(h) sigma^-1 (equal to
    (sigma - diag(h)) sigma^-1), so h = 0 yields the exact identity and a zero
    conditional covariance.  Negative conditional-covariance eigenvalues from
    round-off are clipped at 0 and the clip magnitude recorded.
    """
    sigma = cov.sigma
    d = sigma.shape[0]
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (d,):
        raise DimensionMismatch(f"h has shape {h.shape}, expected ({d},)")
    if np.any(h < -FEASIBILITY_TOL):
        raise InfeasibleH(f"h has negative entries (min {h.min():.3e})")
    h = np.maximum(h, 0.0)
    # G = [[sigma, sigma - D], [sigma - D, sigma]] with D = diag(h) is
    # orthogonally similar to diag(2 sigma - D, D), so its spectrum is theirs
    g_lambda_min = min(float(np.linalg.eigvalsh(2.0 * sigma - np.diag(h))[0]), float(h.min()))
    if g_lambda_min < -FEASIBILITY_TOL:
        raise InfeasibleH(f"joint covariance is not PSD: lambda_min = {g_lambda_min:.3e}")
    sigma_inv = np.linalg.inv(sigma)
    h_sigma_inv = h[:, None] * sigma_inv
    cond_mean_factor = np.eye(d) - h_sigma_inv
    v = np.diag(2.0 * h) - h_sigma_inv * h[None, :]
    v = 0.5 * (v + v.T)
    eigenvalues, vectors = np.linalg.eigh(v)
    clip = float(max(0.0, -eigenvalues[0]))
    root = vectors * np.sqrt(np.maximum(eigenvalues, 0.0))[None, :]
    return KnockoffModel(
        h=h,
        cond_mean_factor=cond_mean_factor,
        cond_cov_root=root,
        clip_magnitude=clip,
        g_lambda_min=g_lambda_min,
    )


def sample_knockoffs(x, model, seed):
    """Draw one knockoff row per observation row of standardized ``x``.

    Row i of the output is cond_mean_factor @ x_i + R @ z_i with z_i standard
    normal from the seeded generator; fully deterministic given (x, model,
    seed).
    """
    xm = as_sample_matrix(x, "x")
    d = model.cond_mean_factor.shape[0]
    if xm.shape[1] != d:
        raise DimensionMismatch(f"x has {xm.shape[1]} columns but the model expects {d}")
    rng = np.random.default_rng(_seed(seed))
    z = rng.standard_normal(xm.shape)
    return xm @ model.cond_mean_factor.T + z @ model.cond_cov_root.T
