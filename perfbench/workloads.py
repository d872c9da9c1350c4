"""The four benchmark workloads: their shapes, the op inputs a seed selects,
the op itself, and the checks applied to every op's output.

Only the set-up child imports this module; it needs ``pcscreen`` importable.
An op calls one public entry point and looks it up on its module at call
time, so the tracer's wrappers (see ``tracing.py``) see it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pcscreen.cli
import pcscreen.harness
from pcscreen.models import ModelSpec, generate_dataset
from pcscreen.screening import (
    FeatureRanking,
    minimum_model_size,
    pearson_sis_rank,
    rank_features,
)

ALPHAS = (0.10, 0.15, 0.20, 0.25, 0.30)
SCREEN_THREADS = 2

# Seed s selects input block s % N_BLOCKS; HELD_OUT_SEED selects a block of
# its own that no other seed reaches.  References exist for every block, so
# any seed has checked inputs.
N_BLOCKS = 10
HELD_OUT_SEED = 9001
HELD_OUT_BLOCK = N_BLOCKS
BLOCK_STRIDE = 100

# absolute tolerance on scores and thresholds against the references
SCORE_TOL = 1e-9

WORKLOADS = {
    "quantile_desk": {"kind": "quantile", "models": ("1a", "1b", "1c", "1d", "1e", "1f"), "per_model": 4},
    "bivariate_desk": {"kind": "quantile", "models": ("3a", "3b"), "per_model": 2},
    "fdr_paper": {"kind": "fdr", "models": ("4a",), "per_model": 3},
    "screen_csv": {"kind": "screen", "models": ("1f",), "per_model": 1},
}

SHAPES = {
    "paper": {
        "quantile_desk": {"n": 100, "p": 1000},
        "bivariate_desk": {"n": 100, "p": 500},
        "fdr_paper": {"n": 1000, "p": 5000, "n1": 250, "d": 100},
        "screen_csv": {"n": 200, "p": 2000},
    },
    "tiny": {
        "quantile_desk": {"n": 30, "p": 40},
        "bivariate_desk": {"n": 16, "p": 8},
        "fdr_paper": {"n": 120, "p": 60, "n1": 30, "d": 10},
        "screen_csv": {"n": 30, "p": 40},
    },
}


def block_of(seed):
    return HELD_OUT_BLOCK if seed == HELD_OUT_SEED else seed % N_BLOCKS


def op_inputs(workload, seed):
    """The (model, replication seed) inputs of a run, cycled by the op loop.

    The first len(models) inputs, one per model, are the warm-up ops.
    """
    spec = WORKLOADS[workload]
    base = BLOCK_STRIDE * block_of(seed)
    models = spec["models"]
    return [
        (models[i % len(models)], base + i // len(models))
        for i in range(spec["per_model"] * len(models))
    ]


def input_key(inp):
    return f"{inp[0]}/{inp[1]}"


def digest(output):
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_references(path, workload, shape):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)[workload][shape]


class Runner:
    """Runs and checks the ops of one workload at one shape.

    ``execute`` is the timed op; ``output`` turns its result into a JSON-able
    value; ``check`` compares that value with the references and with the
    contracts that need none, returning a list of problems.
    """

    def __init__(self, workload, shape, workdir):
        self.kind = WORKLOADS[workload]["kind"]
        self.shape = dict(SHAPES[shape][workload])
        self.workdir = Path(workdir)

    # -- inputs -------------------------------------------------------------

    def csv_path(self, inp):
        return self.workdir / f"design_{inp[0]}_{inp[1]}.csv"

    def prepare(self, inp):
        """Write the CSV a screen_csv op reads (input generation, untimed)."""
        data = generate_dataset(ModelSpec(inp[0], self.shape["n"], self.shape["p"]), inp[1])
        self.workdir.mkdir(parents=True, exist_ok=True)
        pcscreen.harness.write_design_csv(self.csv_path(inp), data.x, data.y)

    def _config(self, inp):
        cfg = dict(models=(inp[0],), n=self.shape["n"], p=self.shape["p"], replications=1,
                   base_seed=inp[1], threads=1)
        if self.kind == "fdr":
            cfg.update(n1=self.shape["n1"], d=self.shape["d"], construction="sdp", alphas=ALPHAS)
        return pcscreen.harness.ExperimentConfig(**cfg)

    # -- the op -------------------------------------------------------------

    def execute(self, inp):
        if self.kind == "quantile":
            return pcscreen.harness.run_quantile_experiment(self._config(inp))[1]
        if self.kind == "fdr":
            return pcscreen.harness.run_fdr_experiment(self._config(inp))[1]
        argv = ["screen", str(self.csv_path(inp)), "--response-count", "1",
                "--threads", str(SCREEN_THREADS), "--out", str(self.workdir / "out")]
        with contextlib.redirect_stdout(io.StringIO()):
            code = pcscreen.cli.cli_main(argv)
        if code != 0:
            raise RuntimeError(f"cli_main returned exit code {code}")
        return None

    def output(self, inp, raw):
        if self.kind == "quantile":
            return {rec["method"]: rec["mms"] for rec in raw}
        if self.kind == "fdr":
            return [
                {key: rec[key] for key in ("alpha", "selected", "t_alpha", "fdp_hat")}
                for rec in raw
            ]
        out = self.workdir / "out"
        ranking = (out / "ranking.csv").read_text(encoding="utf-8")
        gaps = (out / "gaps.csv").read_text(encoding="utf-8")
        rows = list(csv.reader(io.StringIO(ranking)))[1:]
        return {
            "files_sha256": hashlib.sha256((ranking + gaps).encode()).hexdigest(),
            "rows": [[name, float(omega), int(rank)] for name, omega, rank in rows],
        }

    # -- checks -------------------------------------------------------------

    def check(self, inp, out, references):
        ref = references.get(input_key(inp))
        if ref is None:
            return [f"no reference recorded for {input_key(inp)}"]
        if self.kind == "quantile":
            return self._check_quantile(inp, out, ref)
        if self.kind == "fdr":
            return self._check_fdr(out, ref)
        return self._check_screen(out, ref)

    def _check_quantile(self, inp, out, ref):
        problems = []
        s = ModelSpec(inp[0], self.shape["n"], self.shape["p"]).active_count
        if sorted(out) != sorted(ref):
            problems.append(f"methods {sorted(out)} != reference {sorted(ref)}")
        for method, (_, lo, hi) in ref.items():
            mms = out.get(method)
            if mms is None:
                continue
            if not s <= mms <= self.shape["p"]:
                problems.append(f"{method}: minimum model size {mms} outside [{s}, p]")
            if not lo <= mms <= hi:
                problems.append(f"{method}: minimum model size {mms} outside reference [{lo}, {hi}]")
        return problems

    def _check_fdr(self, out, ref):
        problems = []
        if [rec["alpha"] for rec in out] != [rec["alpha"] for rec in ref]:
            return [f"alphas {[rec['alpha'] for rec in out]} differ from the reference"]
        for got, want in zip(out, ref):
            alpha = got["alpha"]
            if got["selected"] and not got["fdp_hat"] <= alpha:
                problems.append(f"alpha {alpha}: fdp_hat {got['fdp_hat']} > alpha")
            if got["selected"] != want["selected"]:
                problems.append(f"alpha {alpha}: selection {got['selected']} != reference {want['selected']}")
            t_got, t_want = got["t_alpha"], want["t_alpha"]
            if (t_got is None) != (t_want is None) or (
                t_got is not None and abs(t_got - t_want) > SCORE_TOL
            ):
                problems.append(f"alpha {alpha}: t_alpha {t_got} != reference {t_want}")
        return problems

    def _check_screen(self, out, ref):
        rows = out["rows"]
        problems = []
        if [rank for _, _, rank in rows] != list(range(1, len(rows) + 1)):
            problems.append("ranking.csv ranks are not 1..p in order")
        omegas = [omega for _, omega, _ in rows]
        if any(b > a for a, b in zip(omegas, omegas[1:])):
            problems.append("ranking.csv scores are not non-increasing")
        if any(omega > 1.0 for omega in omegas):
            problems.append("a score exceeds 1")
        got = {name: omega for name, omega, _ in rows}
        want = {f"x{j + 1}": omega for j, omega in enumerate(ref)}
        if set(got) != set(want):
            return problems + ["ranked features differ from the reference"]
        worst = max(abs(got[name] - want[name]) for name in want)
        if worst > SCORE_TOL:
            problems.append(f"scores differ from the reference by up to {worst:.3g}")
        return problems

    # -- references ---------------------------------------------------------

    def reference(self, inp, out):
        """The reference entry for one input, from this commit's output."""
        if self.kind == "fdr":
            return [{"alpha": rec["alpha"], "selected": rec["selected"], "t_alpha": rec["t_alpha"]}
                    for rec in out]
        if self.kind == "screen":
            by_name = {name: omega for name, omega, _ in out["rows"]}
            return [float("%.12g" % by_name[f"x{j + 1}"]) for j in range(len(by_name))]
        # Minimum model size with exactly tied scores reordered either way:
        # lo ranks active features first within SCORE_TOL, hi ranks them last.
        data = generate_dataset(ModelSpec(inp[0], self.shape["n"], self.shape["p"]), inp[1])
        entry = {}
        for method, mms in out.items():
            rank = rank_features if method == "pc_screen" else pearson_sis_rank
            scores = _scores_by_feature(rank(data.x, data.y))
            bounds = [
                _mms_with_shift(scores, data.true_active, shift)
                for shift in (SCORE_TOL, -SCORE_TOL)
            ]
            entry[method] = [mms, min(bounds), max(bounds)]
            if not entry[method][1] <= mms <= entry[method][2]:
                raise AssertionError(f"{input_key(inp)} {method}: {mms} outside {bounds}")
        return entry


def _scores_by_feature(ranking):
    scores = [0.0] * len(ranking)
    for j, omega in ranking.entries:
        scores[j] = omega
    return scores


def _mms_with_shift(scores, active, shift):
    shifted = np.array(scores)
    shifted[list(active)] += shift
    order = np.lexsort((np.arange(shifted.size), -shifted))
    return int(minimum_model_size(FeatureRanking(order, shifted[order], 0), active))

