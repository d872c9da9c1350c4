"""pcscreen benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload fdr_paper --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; pcscreen is imported from ``src/``.
Workloads: quantile_desk, bivariate_desk, fdr_paper, screen_csv, or ``all``
(BENCHMARK.json leaves bivariate_desk out; see rationale.json).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Standard output is three JSON lines: a machine and
run header, the full report (every metric with its unit and base), and the
result object, always last.  BENCHMARK.json lists the metrics of the result;
rationale.json says why each workload and metric is there.

Each op runs in a child process (``worker.py``); the environment of this
process and its children pins BLAS to one thread.  An untraced run starts
SETUPS fresh children in turn.  Each imports pcscreen and runs one warm-up op
per model (its set-up; ``setup_s`` is the median over the children), then
runs the timed loop for its share of --seconds, so the timed ops of a run
are spread over all of its wall time.  Each child keeps looping past its
share until the run has at least 11 timed ops, the fewest op_s.tail is
defined on.  A traced run starts one child.

The host is shared, and its speed swings by up to a third for seconds to
minutes at a time.  So each child also times a fixed kernel that does not
touch pcscreen between its ops (``worker.HostClock``), and each end-to-end
time is scaled by CLOCK_REF_S over the kernel's time around it: seconds on a
host of reference speed.  The report line gives the unscaled figures and the
clock readings next to them.  Per-layer figures, except trace.overhead_s,
are not scaled.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("quantile_desk", "bivariate_desk", "fdr_paper", "screen_csv")
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUPS = 3
# op_s.tail needs at least 11 samples: the fastest of 11 has 10 above it
MIN_TAIL_SAMPLES = 11
TIME_LIMIT_S = 170.0
OUT_DIR = ROOT / ".perfbench_out"
ROOT_SPAN = "bench.op"
# Host-clock reading (seconds) that end-to-end times are scaled to: a typical
# reading on the 2-vCPU host the bounds were set on.
CLOCK_REF_S = 0.0035


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=("paper", "tiny"), default="paper",
                        help="tiny shapes are for the smoke check")
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(role, args, workdir, deadline, child=0, seconds=0.0, min_ops=1, spans=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed), "--shape", args.shape,
           "--child", str(child), "--seconds", str(seconds), "--min-ops", str(min_ops),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before the {role} child of {args.workload}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} child of {args.workload} ran past the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} child of {args.workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(values):
    """The highest percentile with at least 10 samples above it, and its label.

    None with fewer than 11 samples, where no sample has 10 above it.  An
    untraced run always has 11 or more; a traced run may not.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < MIN_TAIL_SAMPLES:
        return None, f"undefined (only {n} samples)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f}"


def header(args, env):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **env,
        "blas_threads_applied": BLAS_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": args.shape,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pcscreen").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def run_workload(args, deadline):
    """Run one workload; returns (header, report, result)."""
    workdir = OUT_DIR / f"run-{os.getpid()}-{args.workload}"
    spans = OUT_DIR / "spans" / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
    count = 1 if args.trace else SETUPS
    min_ops = 2 if args.trace else -(-MIN_TAIL_SAMPLES // count)
    try:
        if args.workload == "screen_csv":
            run_child("prepare", args, workdir, deadline)
        children = [
            run_child("run", args, workdir, deadline, i, args.seconds / count, min_ops,
                      spans if args.trace else None)
            for i in range(count)
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = []
    attempted = 0
    failed = 0
    ops = [op for child in children for op in child["ops"]]
    for child in children:
        for key, warm in child["warmups"].items():
            issues = list(warm["problems"])
            if warm["digest"] != children[0]["warmups"][key]["digest"]:
                issues.append(f"{key}: warm-up output differs between processes")
            attempted += 1
            failed += bool(issues)
            problems += issues
    for op in ops:
        attempted += 1
        failed += bool(op["problems"])
        problems += op["problems"]

    # Set-up is scaled by the host-clock reading that follows it.
    untraced = [op["seconds"] for op in ops if not op["traced"]]
    untraced_scaled = [scaled(op) for op in ops if not op["traced"]]
    completed = sum(1 for op in ops if not op["traced"] and not op["problems"])
    setup_times = [child["setup_s"] for child in children]
    setup_scaled = [child["setup_s"] * CLOCK_REF_S / child["ops"][0]["clock_s"][0]
                    for child in children]
    timings, tail_label = time_metrics(untraced_scaled, setup_scaled, completed)
    end_to_end = {
        **timings,
        "peak_rss_mb": metric(max(c["peak_rss_bytes"] for c in children) / 1e6, "MB", count),
        "fail_ratio": metric(failed / attempted, "ratio", attempted),
    }
    report = {
        "workload": args.workload,
        "end_to_end": end_to_end,
        "op_s.tail_percentile": tail_label,
        "setup_s_each": setup_scaled,
        "host_clock": {
            "basis": f"times are scaled to a host on which the clock kernel takes {CLOCK_REF_S} s",
            "reading_s_median": statistics.median(
                reading for op in ops for reading in op["clock_s"]),
            "samples": sum(child["clock_samples"] for child in children),
            "unscaled": time_metrics(untraced, setup_times, completed)[0],
        },
        "problems": problems[:20],
    }
    if args.trace:
        report.update(per_layer_report(children[0], untraced_scaled))
        report["spans_file"] = str(spans.relative_to(ROOT))
        metrics = {name: report["per_layer"][name] for name in result_metrics("per_layer")}
    else:
        metrics = {name: end_to_end[name] for name in result_metrics("end_to_end")}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    return header(args, children[0]["env"]), report, result


def scaled(op):
    """An op's seconds scaled by how fast the host ran around it: CLOCK_REF_S
    over the mean of the host-clock readings right before and after it."""
    return op["seconds"] * CLOCK_REF_S * 2 / sum(op["clock_s"])


def time_metrics(untraced, setup_times, completed):
    """The timing metrics of a run, and the percentile op_s.tail reads."""
    tail_value, tail_label = tail(untraced)
    return {
        "ops_per_s": metric(completed / sum(untraced), "1/s", len(untraced)),
        "op_s.p50": metric(statistics.median(untraced), "s", len(untraced)),
        "op_s.tail": metric(tail_value, "s", len(untraced)),
        "setup_s": metric(statistics.median(setup_times), "s", len(setup_times)),
    }, tail_label


def per_layer_report(child, untraced_scaled):
    """Per-layer metrics per traced op, each with its base."""
    traced = [op["seconds"] for op in child["ops"] if op["traced"]]
    traced_scaled = [scaled(op) for op in child["ops"] if op["traced"]]
    n = len(traced)
    base = child["trace"]["layers"]
    counters = child["trace"]["counters"]

    def self_s(name):
        return base[name]["self_s"]

    def ratio(num, den):
        return num / den if den else 0.0

    shapes = "computed from argument and result shapes, not measured"
    per_layer = {}
    for name in base:
        if name == ROOT_SPAN:
            continue
        per_layer[f"{name}.self_s"] = metric(self_s(name) / n, "s", n)
        per_layer[f"{name}.calls"] = metric(base[name]["calls"] / n, "count", n)
    slices = counters.get("kernel.feature_slices", 0)
    cache_bytes = counters.get("kernel.cache_bytes", 0)
    per_layer.update({
        "kernel.cache_bytes": metric(cache_bytes / n, "B", n) | {"basis": shapes},
        "kernel.cache_useful_ratio": metric(
            ratio(counters.get("kernel.cache_useful_bytes", 0), cache_bytes), "ratio", n
        ) | {"basis": shapes},
        "kernel.feature_slices": metric(slices / n, "count", n) | {"basis": shapes},
        "kernel.feature_slices_per_s": metric(
            ratio(slices, self_s("screening.rank_features") + self_s("fdr.w_statistics")), "1/s", n
        ) | {"basis": "feature_slices over the self time of rank_features plus w_statistics"},
        "knockoffs.sdp_fallback_ratio": metric(
            ratio(counters.get("knockoffs.sdp_fallbacks", 0), base["knockoffs.sdp_h"]["calls"]),
            "ratio", base["knockoffs.sdp_h"]["calls"],
        ),
        "harness.read_design_csv.cells_per_s": metric(
            ratio(counters.get("harness.read_design_csv.cells", 0),
                  self_s("harness.read_design_csv")), "1/s", n,
        ) | {"basis": "cells parsed over read_design_csv self time"},
        "trace.op_s.p50": metric(statistics.median(traced), "s", n),
        "trace.overhead_s": metric(
            statistics.median(traced_scaled) - statistics.median(untraced_scaled), "s",
            n + len(untraced_scaled),
        ) | {"basis": "traced op_s.p50 minus untraced op_s.p50 of the same run, over the "
                      "same inputs, both scaled by the host clock like the end-to-end times"},
    })
    self_sum = sum(row["self_s"] for row in base.values())
    return {
        "per_layer": per_layer,
        "layer_base": {name: row | {"traced_ops": n} for name, row in base.items()},
        "self_time_sum_s": self_sum,
        "traced_op_total_s": sum(traced),
    }


def result_metrics(section):
    """The metric names BENCHMARK.json lists in ``section``, in its order."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return [m["name"] for m in json.load(handle)[section]]


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "pcscreen" / "__init__.py").is_file():
        print(f"error: no pcscreen source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            head, report, result = run_workload(one, time.monotonic() + TIME_LIMIT_S)
            print(json.dumps({"header": head}))
            print(json.dumps({"report": report}))
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
