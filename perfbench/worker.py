"""One benchmark child process.

Roles:
  prepare  write the design CSV a screen_csv run reads;
  run      set up, timing the import of pcscreen plus one untimed warm-up op
           per model together as the set-up; then run the closed op loop for
           --seconds and at least --min-ops ops: one op at a time, each
           checked before the next starts.  With --trace 1 every input is run
           twice in a row, untraced and then traced.  The host's speed is
           read right after set-up and after every op (``HostClock``).

``run.py`` starts these with BLAS pinned to one thread in their environment.
The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import time

# Set-up time starts before pcscreen (and numpy, scipy) is imported.
START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import pcscreen  # noqa: E402
import scipy  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# A host-clock reading is the median of at least CLOCK_MIN_SAMPLES kernel
# runs; right after set-up it lasts SETUP_CLOCK_S, and after an op at least
# CLOCK_SHARE of that op's time.
CLOCK_MIN_SAMPLES = 3
SETUP_CLOCK_S = 0.1
CLOCK_SHARE = 0.04


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("prepare", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--shape", choices=("paper", "tiny"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=1,
                        help="keep looping past --seconds until this many ops have run")
    parser.add_argument("--child", type=int, default=0,
                        help="child i of a run starts its loop at input i")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    return parser.parse_args(argv)


class HostClock:
    """Times a fixed kernel that does not touch pcscreen: a pure-Python loop,
    an einsum, a sort and a cumulative sum, 2-5 ms in all.

    Read between ops, it measures how fast the shared host ran around each
    op; ``run.py`` scales op times by it.  The kernel is part of the
    benchmark, so a change to pcscreen cannot speed it up or slow it down.
    """

    def __init__(self):
        rng = numpy.random.default_rng(20190817)
        self.matrix = rng.standard_normal((1500, 50))
        self.vector = rng.standard_normal(60000)
        self.values = self.vector[:25000].tolist()
        self.samples = 0

    def kernel(self):
        total = 0.0
        for value in self.values:
            total += value * value
        numpy.einsum("ij,ik->jk", self.matrix, self.matrix)
        numpy.sort(self.vector)
        numpy.cumsum(numpy.abs(self.vector))
        return total

    def read(self, seconds):
        """Time the kernel at least CLOCK_MIN_SAMPLES times and for at least
        ``seconds``; the median of those samples."""
        samples = []
        while len(samples) < CLOCK_MIN_SAMPLES or sum(samples) < seconds:
            start = time.perf_counter()
            self.kernel()
            samples.append(time.perf_counter() - start)
        self.samples += len(samples)
        return statistics.median(samples)


def run_op(runner, inp, references, tracer=None, index=None):
    """Run one op and check it: (seconds, output or None, problems)."""
    # every op starts with the garbage the previous one left collected
    gc.collect()
    start = time.perf_counter()
    seconds = None
    out = None
    try:
        if tracer is None:
            raw = runner.execute(inp)
        else:
            with tracer.op(index):
                raw = runner.execute(inp)
        seconds = time.perf_counter() - start
        out = runner.output(inp, raw)
        problems = runner.check(inp, out, references)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        if seconds is None:
            seconds = time.perf_counter() - start
        problems = [f"{workloads.input_key(inp)} raised {type(exc).__name__}: {exc}"]
    if tracer is not None:
        problems += tracer.take_problems()
    return seconds, out, problems


def environment():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "pcscreen": str(Path(pcscreen.__file__).resolve().parent.relative_to(ROOT)),
    }


def main(argv=None):
    args = parse_args(argv)
    if ROOT / "src" not in Path(pcscreen.__file__).resolve().parents:
        print(f"pcscreen was imported from {pcscreen.__file__}, not from src/", file=sys.stderr)
        return 2
    runner = workloads.Runner(args.workload, args.shape, args.workdir)
    inputs = workloads.op_inputs(args.workload, args.seed)
    if args.role == "prepare":
        for inp in inputs:
            runner.prepare(inp)
        print(json.dumps({"role": "prepare"}))
        return 0

    references = workloads.load_references(REFERENCES, args.workload, args.shape)
    warmups = {}
    for inp in inputs[: len(workloads.WORKLOADS[args.workload]["models"])]:
        _, out, problems = run_op(runner, inp, references)
        warmups[workloads.input_key(inp)] = {
            "digest": None if out is None else workloads.digest(out),
            "problems": problems,
        }
    result = {"setup_s": time.perf_counter() - START, "warmups": warmups}

    tracer = Tracer() if args.trace else None
    clock = HostClock()
    first = args.child % len(inputs)
    result["ops"] = measure(runner, inputs[first:] + inputs[:first], references, warmups,
                            args.seconds, args.min_ops, tracer, clock)
    result["clock_samples"] = clock.samples
    result["peak_rss_bytes"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    result["env"] = environment()
    if tracer is not None:
        result["trace"] = {"layers": tracer.layer_totals(), "counters": dict(tracer.counters)}
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w", encoding="utf-8") as handle:
                json.dump(tracer.dump(), handle)
    print(json.dumps(result))
    return 0


def measure(runner, inputs, references, warmups, seconds, min_ops, tracer, clock):
    """The closed loop: ops back to back until ``seconds`` have passed and at
    least ``min_ops`` ops have run.  The host clock is read right after
    set-up, between ops and after the last op; an op records the readings
    before and after it (``clock_s``).

    Every op is checked against the references; an op whose input was also a
    warm-up input must reproduce the warm-up's output exactly.  With a
    tracer, each input runs as an untraced op followed by a traced op of the
    same input, which must give the same output; both sets of ops then cover
    the same models and seeds, and the loop ends after a traced op.
    """
    ops = []
    deadline = time.perf_counter() + seconds
    k = 0
    twin = None
    reading = clock.read(SETUP_CLOCK_S)
    while True:
        traced = tracer is not None and k % 2 == 1
        inp = inputs[(k // 2 if tracer is not None else k) % len(inputs)]
        if traced:
            tracer.install()
        try:
            op_seconds, out, problems = run_op(
                runner, inp, references, tracer if traced else None, k
            )
        finally:
            if traced:
                tracer.uninstall()
        key = workloads.input_key(inp)
        out_digest = None if out is None else workloads.digest(out)
        warm = warmups.get(key)
        if warm is not None and out is not None and out_digest != warm["digest"]:
            problems.append(f"{key}: output differs from its warm-up op")
        if traced and out is not None and twin is not None and out_digest != twin:
            problems.append(f"{key}: traced output differs from its untraced op")
        twin = out_digest
        before, reading = reading, clock.read(CLOCK_SHARE * op_seconds)
        ops.append({"seconds": op_seconds, "traced": traced, "problems": problems,
                    "clock_s": [before, reading]})
        k += 1
        if (time.perf_counter() >= deadline and k >= min_ops
                and (tracer is None or k % 2 == 0)):
            return ops

if __name__ == "__main__":
    sys.exit(main())
