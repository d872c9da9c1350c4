"""Generator tests: shapes, determinism, family structure, moment checks,
tail behavior, and overflow tallies for every simulation design."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import pcscreen
from pcscreen import models, placement
from pcscreen.errors import UnknownModel
from pcscreen.models import (
    _AR_SCALE_BITS,
    MODEL_IDS,
    ModelSpec,
    _gaussian_ar,
    _sqrt_cov,
    generate_dataset,
)

from .cpus import only_cpus
from .memory import traced_peak
from .reference import ar_covariance

BIVARIATE = ("3a", "3b")

# sha256 of x.tobytes() + y.tobytes() for ModelSpec(id, n=30, p=130) at seed 3
# with one BLAS thread, recorded at commit 5e8120e, before the AR recursion ran
# in place; p = 130 spans three blocks of it.  1c and 1d were re-recorded when
# _sqrt_cov moved from eigh to the closed-form root, which changes their bits
# by rounding.
PINNED_DIGESTS = {
    "1a": "d00ef85cb3df20ac1a6732e3864cf5bc9aacee55c8626518059881b3641f1d9f",
    "1b": "42889bc876f043af020338e48cf92c9059fd50b68f52addbfcfe6ce982c4175e",
    "1c": "464ef947b50204ab923e9b1c784e7f3ea34b55e4650ee7497eda3cbfc8d32052",
    "1d": "d5418a74e753eaf2454f9ed8b7ac17f4e75d7abd4469d07b91cc593d79b275af",
    "1e": "c1d75248315d795326785595e9c51810d981ce8af1d8b54146300768a7eed870",
    "1f": "1e87d7ce21dbea92b652439b72c339c545d83331e6b5eab4417ac383a4288c6e",
    "2a": "6bcf2baa651f8a4a70ff76f5a82cf7da3c2e42d84d786b1259f89d579a12f813",
    "2b": "7b55e1fdfd6237599390e436b9f4547b1be2407bb95223d4ebf2608c59da7666",
    "2c": "e0f4570ac340a1dd986b3deb6652d00ee46c32400de165e72d0255167bcfd21f",
    "2d": "f346596370fb9b810834b71f441e02719dd60be0d222fbcc9eda35a66a406f17",
    "3a": "35e6610c01d75e9104afb390bdf9e8e5f28ab97b6bded6d8919f602100a305f8",
    "3b": "0ae7234ca5cea7f23c7382d257bfb83831c55156e3f1ddc5122dc51fe9f93ac0",
    "4a": "3a1351fda7bd83378342e8a1ba9afe37ddaa63b2b2efbb43f0ace2569acfe2a4",
    "4b": "94ced11ed9b50de3a60e39eda1523b3dde9d13c1d48865c99760c632ef1e6824",
    "4c": "9c932e6594595fc319a623c8c2fc64eec008ab687f57a6bef7e37c54c1b5d5b3",
    "4d": "59d660531031c28b503392805bd7ab01084f35f78045485aa4d1b10f2443b2f3",
    "4e": "2e35daaa5ca1bf9246afe8b8235e3c6f42b08e38d14a08eec82e5d40a7d5146f",
}

_DIGEST_SCRIPT = """
import hashlib, json
from pcscreen.models import MODEL_IDS, ModelSpec, generate_dataset
digests = {}
for mid in MODEL_IDS:
    ds = generate_dataset(ModelSpec(id=mid, n=30, p=130), seed=3)
    digests[mid] = hashlib.sha256(ds.x.tobytes() + ds.y.tobytes()).hexdigest()
print(json.dumps(digests))
"""


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


@pytest.fixture(scope="module")
def generated_digests():
    # a child process with BLAS pinned to one thread: the 1c/1d matrix product
    # rounds differently when OpenBLAS splits it over threads
    src = str(Path(pcscreen.__file__).resolve().parents[1])
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(result.stdout)


@pytest.mark.parametrize("mid", MODEL_IDS)
def test_generated_bits_match_the_pinned_digests(generated_digests, mid):
    assert generated_digests[mid] == PINNED_DIGESTS[mid]


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


@pytest.mark.parametrize("p", [0, 1, 6])
@pytest.mark.parametrize("rho", [0.5, -0.3])
def test_ar_covariance_entries_are_powers_of_rho(p, rho):
    powers = np.power(rho, np.arange(p))
    expected = np.array(
        [[powers[abs(i - j)] for j in range(p)] for i in range(p)], dtype=np.float64
    ).reshape(p, p)
    sigma = ar_covariance(p, rho)
    assert sigma.dtype == np.float64 and sigma.shape == (p, p)
    npt.assert_array_equal(sigma, expected)
    assert np.all(np.diag(sigma) == 1.0)


def test_ar_covariance_rejects_unit_rho():
    with pytest.raises(ValueError):
        ar_covariance(5, 1.0)


@pytest.mark.parametrize("p", [1, 2, 3, 10, 500])
@pytest.mark.parametrize("rho", [-0.9, -0.5, 0.0, 0.1, 0.5, 0.9, 0.99])
def test_closed_form_root_squares_to_the_covariance(p, rho):
    sigma = ar_covariance(p, rho)
    root = _sqrt_cov(p, rho)
    assert np.array_equal(root, root.T)
    assert np.linalg.eigvalsh(root)[0] > 0.0
    # worst case measured over this grid: 5.0e-12, at p=500, rho=-0.9
    assert np.abs(root @ root - sigma).max() <= 1e-11
    values, vectors = np.linalg.eigh(sigma)
    eigh_root = (vectors * np.sqrt(values)) @ vectors.T
    # worst case measured over this grid: 6.5e-13, at p=500, rho=-0.9
    assert np.abs(root - eigh_root).max() <= 1e-12


def test_cached_root_is_read_only():
    root = _sqrt_cov(4, 0.5)
    with pytest.raises(ValueError):
        root[0, 0] = 0.0
    assert _sqrt_cov(4, 0.5) is root
    assert root[0, 0] != 0.0


def _column_recursion(z, rho):
    scale = math.sqrt(1.0 - rho * rho)
    expected = np.empty_like(z)
    expected[:, 0] = z[:, 0]
    for j in range(1, z.shape[1]):
        expected[:, j] = rho * expected[:, j - 1] + scale * z[:, j]
    return expected


def _assert_same_bits(got, expected, msg):
    # int64 views tell -0.0 from +0.0
    assert got.flags["C_CONTIGUOUS"]
    npt.assert_array_equal(got.view(np.int64), expected.view(np.int64), err_msg=msg)


class _FixedDraw:
    """A generator stand-in whose standard normal draw is a given array,
    served in order into the row chunks the generator asks for."""

    def __init__(self, z):
        self.z = z
        self.served = 0

    def standard_normal(self, *, out):
        assert out.shape[1:] == self.z.shape[1:]
        out[...] = self.z[self.served : self.served + len(out)]
        self.served += len(out)


def _span_width(rho):
    """Columns per prefix-sum slab for rho = 2^-k, 1 <= k <= 64; 64 for every
    other rho, which keeps the p values the tests span."""
    mantissa, exponent = math.frexp(rho)
    k = 1 - exponent
    return _AR_SCALE_BITS // k if mantissa == 0.5 and k <= 64 else 64


def test_gaussian_ar_matches_the_column_recursion():
    # 0.5, 0.25 and 2^-64 take the prefix-sum path; -0.5, 0.3, 2^-65 and 0
    # the plain recursion
    for rho in (0.5, -0.5, 0.25, 0.3, 2.0**-64, 2.0**-65, 0.0):
        for n in (2, 7):
            # p - 1 on both sides of one and of two spans of either width
            widths = (_span_width(rho), 64)
            for p in sorted({1, 2} | {v for w in widths for v in (w, w + 1, w + 2, 2 * w + 2)}):
                z = np.random.default_rng(4).standard_normal((n, p))
                got = _gaussian_ar(np.random.default_rng(4), n, p, rho)
                _assert_same_bits(got, _column_recursion(z, rho), f"rho={rho}, n={n}, p={p}")


@pytest.mark.parametrize("rho", [0.5, -0.5, 0.25, -0.25])
def test_gaussian_ar_keeps_the_sign_of_every_zero(rho):
    # Row i is zeros of mixed sign except a pair at column q_i, z_q = -w/rho
    # and z_(q+1) = w, whose second step cancels exactly to +0 (rho is a
    # power of two, so -w/rho is exact); q runs over both sides of the first
    # span boundary, where the carried value is zero.
    w = _span_width(rho)
    p = 2 * w + 4
    qs = [1, 2, 3, w - 1, w, w + 1, w + 2]
    rng = np.random.default_rng(9)
    z = np.where(rng.random((len(qs) + 2, p)) < 0.5, -0.0, 0.0)
    for row, q in zip(z, qs):
        w = rng.standard_normal()
        row[q : q + 2] = -w / rho, w
    z[-1] = -0.0  # an all -0 row, and an all +0 row before it
    z[-2] = 0.0
    expected = _column_recursion(z, rho)
    assert all(expected[i, q + 1] == 0.0 for i, q in enumerate(qs))
    # a block of p elements draws one row a chunk, and with two CPUs a helper
    # runs the recursion beside the draw
    for block_elements in (models._BLOCK_ELEMENTS, p):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(models, "_BLOCK_ELEMENTS", block_elements)
            got = _gaussian_ar(_FixedDraw(z), z.shape[0], p, rho)
        _assert_same_bits(got, expected, f"rho={rho}, block={block_elements}")


def _design_digest(mid, n, p, rho):
    ds = generate_dataset(ModelSpec(id=mid, n=n, p=p, rho=rho), seed=3)
    return hashlib.sha256(ds.x.tobytes() + ds.y.tobytes()).hexdigest()


@pytest.mark.parametrize("rho", [0.5, 0.25, 0.3, -0.5])
def test_generated_bits_do_not_depend_on_the_cpus(monkeypatch, rho):
    # The default block draws every shape below in one chunk, the recursion
    # after it; a 64-element block puts each design in two blocks or more:
    # one row a prefix-sum chunk (n = 2 included), two halves of the rows for
    # the plain recursion.  With the mask at one CPU the recursion follows
    # the draw in this thread; with every CPU a helper runs it beside the
    # draw.  0.5 and 0.25 take the prefix sum, 0.3 and -0.5 the plain path.
    shapes = [(n, p) for n in (2, 3, 30) for p in (40, 130)]

    def digests():
        return {
            (mid, n, p): _design_digest(mid, n, p, rho) for mid in MODEL_IDS for n, p in shapes
        }

    serial = digests()
    monkeypatch.setattr(models, "_BLOCK_ELEMENTS", 64)
    with only_cpus(1):
        one_cpu = digests()
    with only_cpus(len(os.sched_getaffinity(0))):
        every_cpu = digests()
    assert one_cpu == serial
    assert every_cpu == serial


def test_a_one_cpu_mask_generates_without_a_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(models, "_BLOCK_ELEMENTS", 64)
    monkeypatch.setattr(placement.threading, "Thread", no_thread)
    with only_cpus(1):
        assert _design_digest("4c", 30, 130, 0.5) == PINNED_DIGESTS["4c"]


@pytest.mark.parametrize("mid, bound", [("4a", 1.25), ("4c", 2.25)])
def test_generation_peak_memory_stays_near_one_design(mid, bound):
    # numpy reports its buffers to tracemalloc; the covariates are drawn and
    # correlated in place, so the peak is x itself (4c: plus its t_2 part).
    # One untraced call first: the first call in a process also pays one-time
    # set-up, which would make the bound depend on which tests ran before.
    generate_dataset(ModelSpec(id=mid, n=10, p=20), seed=1)
    ds, peak = traced_peak(generate_dataset, ModelSpec(id=mid, n=200, p=2000), seed=1)
    assert peak < bound * ds.x.nbytes


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
