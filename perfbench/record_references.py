"""Record the reference outputs the benchmark checks every op against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record_references.py [--shape tiny]

Runs every input of every seed block (see ``workloads.op_inputs``) once and
rewrites that shape's entries in ``perfbench/references.json``.  Record only
from a commit whose outputs are known good: the references define "correct".
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
OUT_DIR = HERE.parent / ".perfbench_out"


def record(workload, shape):
    entries = {}
    seeds = list(range(workloads.N_BLOCKS)) + [workloads.HELD_OUT_SEED]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        runner = workloads.Runner(workload, shape, workdir)
        for seed in seeds:
            for inp in workloads.op_inputs(workload, seed):
                if runner.kind == "screen":
                    runner.prepare(inp)
                out = runner.output(inp, runner.execute(inp))
                entries[workloads.input_key(inp)] = runner.reference(inp, out)
                print(workload, shape, workloads.input_key(inp), file=sys.stderr)
    return entries


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=("paper", "tiny"), default="paper")
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), action="append")
    args = parser.parse_args(argv)
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for workload in args.workload or workloads.WORKLOADS:
        refs.setdefault(workload, {})[args.shape] = record(workload, args.shape)
        # one line per input keeps diffs of this file readable
        lines = []
        for name in sorted(refs):
            shapes = []
            for shape in sorted(refs[name]):
                rows = ",\n".join(
                    f"      {json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
                    for key, value in sorted(refs[name][shape].items())
                )
                shapes.append(f'    "{shape}": {{\n{rows}\n    }}')
            lines.append(f'  "{name}": {{\n' + ",\n".join(shapes) + "\n  }")
        REFERENCES.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
