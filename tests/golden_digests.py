"""Golden digests of the design-CSV commands, and the script that records them.

Each case writes a seeded design CSV, runs ``pcscreen screen`` or
``pcscreen pcknockoff`` on it through ``cli_main`` and hashes every file
under ``--out``, the captured stdout and stderr and the exit code.  The
commands run in a child process with BLAS pinned to one thread, because
some products round differently when OpenBLAS splits them over threads.
``tests/test_golden.py`` compares the digests with ``tests/golden.json``.

A change that means to move output bits rewrites the file with::

    PYTHONPATH=src python3 tests/golden_digests.py

and names every digest that moved, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# file name -> (model id, n, p, dataset seed)
INPUTS = {
    "1a.csv": ("1a", 200, 100, 11),
    "1f.csv": ("1f", 200, 100, 12),
    "3a.csv": ("3a", 200, 100, 13),
    "4a.csv": ("4a", 600, 100, 14),
}

# file name -> text, for the error path
TEXT_INPUTS = {"blank_line.csv": "a,b,c\n1,2,3\n\n4,5,6\n"}

# case name -> argv; every --out directory is named after its case
COMMANDS = {
    "screen_1a": ["screen", "1a.csv", "--response-count", "1", "--out", "screen_1a"],
    "screen_1f": ["screen", "1f.csv", "--response-count", "1", "--out", "screen_1f"],
    "screen_3a": ["screen", "3a.csv", "--response-count", "2", "--out", "screen_3a"],
    "pcknockoff_4a": [
        "pcknockoff", "4a.csv", "--response-count", "1", "--seed", "5", "--out", "pcknockoff_4a",
    ],
    "pcknockoff_3a": [
        "pcknockoff", "3a.csv", "--response-count", "2", "--alpha", "0.3", "--seed", "6",
        "--out", "pcknockoff_3a",
    ],
    "screen_blank_line": [
        "screen", "blank_line.csv", "--response-count", "1", "--out", "screen_blank_line",
    ],
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_commands():
    """Run every case in a fresh working directory of this process and
    return {case: {"exit": code, "stdout": digest, "stderr": digest,
    "files": {name: digest}}}, with {"inputs": {file: digest}} for the
    CSVs the cases read."""
    from pcscreen.cli import cli_main
    from pcscreen.harness import write_design_csv
    from pcscreen.models import ModelSpec, generate_dataset

    digests = {}
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, (mid, n, p, seed) in INPUTS.items():
                ds = generate_dataset(ModelSpec(id=mid, n=n, p=p), seed=seed)
                write_design_csv(name, ds.x, ds.y)
            for name, text in TEXT_INPUTS.items():
                Path(name).write_text(text, encoding="utf-8")
            digests["inputs"] = {
                name: _sha256(Path(name).read_bytes()) for name in [*INPUTS, *TEXT_INPUTS]
            }
            for case, argv in COMMANDS.items():
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli_main(list(argv))
                out = Path(argv[argv.index("--out") + 1])
                files = sorted(path for path in out.rglob("*") if path.is_file())
                digests[case] = {
                    "exit": code,
                    "stdout": _sha256(stdout.getvalue().encode("utf-8")),
                    "stderr": _sha256(stderr.getvalue().encode("utf-8")),
                    "files": {
                        path.relative_to(out).as_posix(): _sha256(path.read_bytes())
                        for path in files
                    },
                }
        finally:
            os.chdir(start)
    return digests


def environment():
    """The numpy, BLAS and thread setting the digests were taken under."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '?')}",
        "threads": dict(PINNED_THREADS),
    }


def child_digests():
    """``run_commands`` and ``environment`` in a child process with BLAS
    pinned to one thread."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--print"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout)


def main(argv):
    if argv == ["--print"]:
        print(json.dumps({"environment": environment(), "digests": run_commands()}))
        return 0
    if argv:
        print(f"usage: {Path(__file__).name}", file=sys.stderr)
        return 1
    GOLDEN_PATH.write_text(json.dumps(child_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
