"""Golden digests: the CLI commands write the recorded bytes.

The digests in ``tests/golden.json`` are specific to the environment
recorded next to them (numpy, BLAS, thread setting); a mismatch under
another environment names both.  ``tests/golden_digests.py`` runs the
commands and rewrites the file.

A screen with a univariate response takes the exact integer path, so its
outputs must not depend on that environment at all: the last test changes
one setting at a time in a child process and compares bytes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from .golden_digests import COMMANDS, GOLDEN_PATH, child_digests

GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def computed():
    return child_digests()


@pytest.mark.parametrize("case", ["inputs", *COMMANDS])
def test_cli_outputs_match_the_golden_digests(computed, case):
    assert computed["digests"][case] == GOLDEN["digests"][case], (
        f"{case}: digests moved; recorded under {GOLDEN['environment']}, "
        f"computed under {computed['environment']}"
    )


def test_golden_file_covers_every_case():
    assert set(GOLDEN["digests"]) == {"inputs", *COMMANDS}


def _blas_threads(count):
    return dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), count)


# variant -> (environment changes, extra screen flags)
SCREEN_VARIANTS = {
    "openblas_haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, []),
    "numpy_x86_v3": ({"NPY_ENABLE_CPU_FEATURES": "X86_V3"}, []),
    "blas_1_thread": (_blas_threads("1"), []),
    "blas_2_threads": (_blas_threads("2"), []),
    "cli_1_thread": ({}, ["--threads", "1"]),
    "cli_2_threads": ({}, ["--threads", "2"]),
}


def _child_env(changes):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **changes)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _screen_outputs(csv_path, outdir, changes, flags):
    """ranking.csv and gaps.csv of ``pcscreen screen`` run in a child process
    under the environment ``changes``, or None where numpy refuses that
    environment."""
    env = _child_env(changes)
    if changes:
        probe = subprocess.run(
            [sys.executable, "-c", "import numpy; numpy.ones((2, 2)) @ numpy.ones(2)"],
            env=env, capture_output=True,
        )
        if probe.returncode != 0:
            return None
    result = subprocess.run(
        [sys.executable, "-m", "pcscreen.cli", "screen", str(csv_path), "--response-count", "1",
         "--out", str(outdir), *flags],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return tuple((outdir / name).read_bytes() for name in ("ranking.csv", "gaps.csv"))


@pytest.fixture(scope="module")
def univariate_screen(tmp_path_factory):
    """A fixed univariate-response CSV with ties in x, and its default screen."""
    import numpy as np

    from pcscreen.design import write_design_csv
    from pcscreen.models import ModelSpec, generate_dataset

    workdir = tmp_path_factory.mktemp("univariate_screen")
    ds = generate_dataset(ModelSpec(id="1a", n=120, p=60), seed=19)
    x = ds.x.copy()
    x[:, :5] = np.round(x[:, :5])
    csv_path = workdir / "design.csv"
    write_design_csv(csv_path, x, ds.y)
    return csv_path, _screen_outputs(csv_path, workdir / "default", {}, [])


@pytest.mark.parametrize("variant", list(SCREEN_VARIANTS))
def test_a_univariate_screen_writes_the_same_bytes_under_every_setting(
    univariate_screen, tmp_path, variant
):
    csv_path, default = univariate_screen
    changes, flags = SCREEN_VARIANTS[variant]
    outputs = _screen_outputs(csv_path, tmp_path / variant, changes, flags)
    if outputs is None:
        pytest.skip(f"numpy refuses {changes} on this host")
    assert outputs == default, variant
