"""Generator tests: shapes, determinism, family structure, moment checks,
tail behavior, and overflow tallies for every simulation design."""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest

from pcscreen.errors import UnknownModel
from pcscreen.models import (
    MODEL_IDS,
    ModelSpec,
    _gaussian_ar,
    ar_covariance,
    generate_dataset,
)

BIVARIATE = ("3a", "3b")


# ---------------------------------------------------------------------------
# shapes, determinism, identifiers
# ---------------------------------------------------------------------------


def test_model_id_roster():
    assert len(MODEL_IDS) == 17
    assert len(set(MODEL_IDS)) == 17


@pytest.mark.parametrize("mid", MODEL_IDS)
def test_every_model_generates_expected_shapes(mid):
    spec = ModelSpec(id=mid, n=60, p=12)
    ds = generate_dataset(spec, seed=5)
    assert ds.x.shape == (60, 12)
    q = 2 if mid in BIVARIATE else 1
    assert ds.y.shape == (60, q)
    assert np.all(np.isfinite(ds.x))
    assert np.all(np.isfinite(ds.y))
    assert ds.seed == 5
    assert ds.clamp_events >= 0
    assert ds.extreme_responses >= 0


@pytest.mark.parametrize("mid", MODEL_IDS)
def test_generation_is_deterministic_per_seed(mid):
    spec = ModelSpec(id=mid, n=40, p=12)
    first = generate_dataset(spec, seed=11)
    second = generate_dataset(spec, seed=11)
    npt.assert_array_equal(first.x, second.x)
    npt.assert_array_equal(first.y, second.y)
    other = generate_dataset(spec, seed=12)
    assert not np.array_equal(first.x, other.x)


def test_dotted_uppercase_id_is_canonicalized():
    spec = ModelSpec(id="1.A", n=30, p=6)
    assert spec.id == "1a"
    plain = generate_dataset(ModelSpec(id="1a", n=30, p=6), seed=2)
    dotted = generate_dataset(spec, seed=2)
    npt.assert_array_equal(plain.x, dotted.x)
    npt.assert_array_equal(plain.y, dotted.y)


def test_true_active_is_a_leading_block_per_family():
    assert generate_dataset(ModelSpec(id="1a", n=20, p=9), 0).true_active == tuple(range(5))
    assert generate_dataset(ModelSpec(id="2c", n=20, p=9), 0).true_active == tuple(range(4))
    assert generate_dataset(ModelSpec(id="3b", n=20, p=9), 0).true_active == tuple(range(4))
    assert generate_dataset(ModelSpec(id="4a", n=20, p=12), 0).true_active == tuple(range(10))


def test_active_count_override():
    spec = ModelSpec(id="1a", n=20, p=9, s=7)
    assert spec.active_count == 7
    assert generate_dataset(spec, 0).true_active == tuple(range(7))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_unknown_model_id_rejected():
    with pytest.raises(UnknownModel):
        ModelSpec(id="5a", n=20, p=10)
    with pytest.raises(UnknownModel):
        ModelSpec(id="", n=20, p=10)


def test_fixed_form_families_pin_active_count():
    with pytest.raises(ValueError):
        ModelSpec(id="2a", n=20, p=10, s=3)
    with pytest.raises(ValueError):
        ModelSpec(id="3a", n=20, p=10, s=5)
    # s=4 restates the default and is accepted
    assert ModelSpec(id="2a", n=20, p=10, s=4).active_count == 4


def test_dimension_validation():
    with pytest.raises(ValueError):
        ModelSpec(id="1a", n=20, p=3)  # p below default s=5
    with pytest.raises(ValueError):
        ModelSpec(id="1a", n=20, p=10, s=0)
    with pytest.raises(ValueError):
        ModelSpec(id="1a", n=1, p=10)
    with pytest.raises(ValueError):
        ModelSpec(id="1a", n=20, p=10, rho=1.0)


# ---------------------------------------------------------------------------
# covariance structure
# ---------------------------------------------------------------------------


def test_ar_covariance_rho_zero_is_identity():
    npt.assert_array_equal(ar_covariance(6, 0.0), np.eye(6))


def test_ar_covariance_two_by_two():
    sigma = ar_covariance(2, 0.5)
    npt.assert_allclose(sigma, [[1.0, 0.5], [0.5, 1.0]])
    npt.assert_allclose(np.linalg.eigvalsh(sigma), [0.5, 1.5])


def test_ar_covariance_large_is_positive_definite():
    sigma = ar_covariance(100, 0.5)
    assert np.linalg.eigvalsh(sigma).min() > 0.0
    npt.assert_allclose(sigma, sigma.T)
    npt.assert_allclose(np.diag(sigma), 1.0)


def test_ar_covariance_rejects_unit_rho():
    with pytest.raises(ValueError):
        ar_covariance(5, 1.0)


def test_gaussian_ar_matches_the_column_recursion():
    n, p, rho = 7, 9, 0.5
    z = np.random.default_rng(4).standard_normal((n, p))
    expected = np.empty((n, p))
    expected[:, 0] = z[:, 0]
    for j in range(1, p):
        expected[:, j] = rho * expected[:, j - 1] + math.sqrt(1.0 - rho * rho) * z[:, j]
    got = _gaussian_ar(np.random.default_rng(4), n, p, rho)
    assert got.flags["C_CONTIGUOUS"]
    npt.assert_array_equal(got, expected)


def test_gaussian_design_moments():
    ds = generate_dataset(ModelSpec(id="1a", n=5000, p=8), seed=42)
    x = ds.x
    npt.assert_allclose(x.mean(axis=0), 0.0, atol=0.05)
    npt.assert_allclose(x.var(axis=0, ddof=1), 1.0, atol=0.05)
    lag1 = [np.corrcoef(x[:, j], x[:, j + 1])[0, 1] for j in range(7)]
    npt.assert_allclose(lag1, 0.5, atol=0.05)
    # y = sum of the first five columns plus unit noise
    resid = ds.y[:, 0] - x[:, :5].sum(axis=1)
    npt.assert_allclose(resid.mean(), 0.0, atol=0.05)
    npt.assert_allclose(resid.var(), 1.0, atol=0.06)


# ---------------------------------------------------------------------------
# tails and counts
# ---------------------------------------------------------------------------


def test_cauchy_noise_produces_response_outliers():
    # Gaussian-design control first: no |y| beyond 20 over the same seeds.
    for seed in range(20):
        tame = generate_dataset(ModelSpec(id="1a", n=200, p=10), seed)
        assert np.abs(tame.y).max() < 20.0
    hits = sum(
        bool(np.any(np.abs(generate_dataset(ModelSpec(id="1b", n=200, p=10), seed).y) > 20.0))
        for seed in range(20)
    )
    assert hits >= 19


@pytest.mark.parametrize("mid", ["1c", "1d"])
def test_cauchy_designs_produce_covariate_outliers(mid):
    for seed in range(20):
        tame = generate_dataset(ModelSpec(id="1a", n=200, p=10), seed)
        assert np.abs(tame.x).max() < 20.0
    hits = sum(
        bool(np.any(np.abs(generate_dataset(ModelSpec(id=mid, n=200, p=10), seed).x) > 20.0))
        for seed in range(20)
    )
    assert hits >= 19


@pytest.mark.parametrize("mid", ["1f", "4e"])
def test_count_responses_are_nonnegative_integers(mid):
    ds = generate_dataset(ModelSpec(id=mid, n=100, p=12), seed=0)
    assert np.all(ds.y >= 0)
    npt.assert_array_equal(ds.y, np.floor(ds.y))


def test_overflow_tallies_engage_under_wide_signals():
    # A 400-term signal pushes Poisson rates past the sampler limit ...
    wide_counts = generate_dataset(ModelSpec(id="1f", n=50, p=400, s=400), seed=3)
    assert wide_counts.clamp_events > 0
    assert np.all(np.isfinite(wide_counts.y))
    # ... and exponential responses past the extreme-magnitude threshold.
    wide_exp = generate_dataset(ModelSpec(id="1e", n=50, p=400, s=400), seed=3)
    assert wide_exp.extreme_responses > 0
    assert np.all(np.isfinite(wide_exp.y))
    # Desk-scale designs never clamp.
    tame = generate_dataset(ModelSpec(id="1f", n=100, p=10), seed=0)
    assert tame.clamp_events == 0
    assert tame.extreme_responses == 0
