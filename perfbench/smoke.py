"""Smoke check of the benchmark itself: every workload, one op, tiny shape.

    python3 perfbench/smoke.py

For each workload it runs ``run.py --shape tiny --seconds 0`` untraced and
traced, and asserts that the header, every end-to-end and per-layer metric
(each with its unit), the unscaled times with their host-clock reading and
the result line are printed, that ``fail_ratio`` is 0, and that a traced
op's per-layer self times add up to its duration.  It also checks that
BENCHMARK.json and rationale.json name the same metrics, and that run.py
refuses to run, printing no result, without the source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HEADER_KEYS = ("nproc", "python", "numpy", "scipy", "blas", "blas_threads_applied",
               "seed", "commit", "source_sha256")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workload(workload, spec, rationale):
    e2e_names = list(rationale["end_to_end"])
    for trace in (0, 1):
        proc = run(["--workload", workload, "--seed", "0", "--seconds", "0",
                    "--trace", str(trace), "--shape", "tiny"])
        assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
        head, report, result = (json.loads(line) for line in proc.stdout.splitlines()[-3:])
        missing = [key for key in HEADER_KEYS if key not in head["header"]]
        assert not missing, f"{workload}: header lacks {missing}"
        report = report["report"]
        for name in e2e_names:
            entry = report["end_to_end"][name]
            assert entry["unit"] and "value" in entry, f"{workload}: {name} printed without a unit"
        assert report["end_to_end"]["fail_ratio"]["value"] == 0, f"{workload}: {report['problems']}"
        unscaled = report["host_clock"]["unscaled"]
        assert set(unscaled) == {"ops_per_s", "op_s.p50", "op_s.tail", "setup_s"}, workload
        assert report["host_clock"]["reading_s_median"] > 0, f"{workload}: no host-clock reading"
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in wanted], f"{workload}: metric names"
        for m in wanted:
            assert result["metrics"][m["name"]]["unit"] == m["unit"], f"{workload}: {m['name']} unit"
        if trace:
            for name in rationale["per_layer"]["metrics"]:
                assert report["per_layer"][name]["unit"], f"{workload}: {name} without a unit"
            # the root span opens just inside the op's own timer
            total = report["traced_op_total_s"]
            assert abs(report["self_time_sum_s"] - total) <= 0.01 * total + 0.001, (
                f"{workload}: self times sum to {report['self_time_sum_s']}, op took {total}")
        print(f"ok {workload} trace={trace}")


def check_refuses_without_source():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "quantile_desk", "--seed", "0", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), "ran without the source tree"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without src/")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rationale = json.loads((HERE / "rationale.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(rationale["workloads"])
    assert {m["name"] for m in spec["end_to_end"]} <= set(rationale["end_to_end"])
    assert [m["name"] for m in spec["per_layer"]] == list(rationale["per_layer"]["metrics"])
    for workload in rationale["workloads"]:
        check_workload(workload, spec, rationale)
    check_refuses_without_source()
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
