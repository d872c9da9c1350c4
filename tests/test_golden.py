"""Golden digests: the CLI commands write the recorded bytes.

The digests in ``tests/golden.json`` are specific to the environment
recorded next to them (numpy, BLAS, thread setting); a mismatch under
another environment names both.  ``tests/golden_digests.py`` runs the
commands and rewrites the file.
"""

from __future__ import annotations

import json

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
