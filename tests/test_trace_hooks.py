"""Guards for the benchmark's hooks into the package: perfbench/tracing.py
patches functions by (module, attribute) name, so a rename in the package
would silently drop a traced layer, and perfbench/workloads.py imports public
names and looks up entry points at call time, so removing one would break
the benchmark.  Both modules are loaded by path and never modified."""

from __future__ import annotations

import importlib
import importlib.util
import math
import sys
import threading
from pathlib import Path

from pcscreen import cli, design, harness, kernel, models, pipeline, placement, screening
from pcscreen.harness import ExperimentConfig, run_fdr_experiment, run_quantile_experiment

from .cpus import only_cpus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_workloads_import_and_resolve_their_entry_points(monkeypatch):
    workloads = _load(monkeypatch, "workloads")
    imported = ("FeatureRanking", "minimum_model_size", "pearson_sis_rank", "rank_features")
    assert all(getattr(workloads, name) is getattr(screening, name) for name in imported)
    assert workloads.ModelSpec is models.ModelSpec
    assert workloads.generate_dataset is models.generate_dataset
    looked_up = {
        harness: ("write_design_csv", "ExperimentConfig", "run_quantile_experiment", "run_fdr_experiment"),
        cli: ("cli_main",),
    }
    assert [
        name for module, names in looked_up.items() for name in names if not hasattr(module, name)
    ] == []
    # the benchmark writes its design CSV with the design module's writer
    assert harness.write_design_csv is design.write_design_csv


def test_every_patch_point_resolves(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    missing = [
        (module_name, attr)
        for _, module_name, attr in tracing.PATCH_POINTS
        if not hasattr(importlib.import_module(module_name), attr)
    ]
    assert missing == []
    # the reader patched on cli is the design module's reader
    assert cli.read_design_csv is design.read_design_csv


def test_one_fdr_replication_thresholds_through_pipeline_once_per_alpha(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    assert ("fdr.knockoff_plus_threshold", "pcscreen.pipeline", "knockoff_plus_threshold") in (
        tracing.PATCH_POINTS
    )
    calls = []
    original = pipeline.knockoff_plus_threshold

    def counted(w, alpha):
        calls.append(alpha)
        return original(w, alpha)

    monkeypatch.setattr(pipeline, "knockoff_plus_threshold", counted)
    alphas = (0.1, 0.2, 0.5)
    config = ExperimentConfig(
        models=("4a",), n=120, p=30, replications=1, alphas=alphas, n1=40, d=10, base_seed=300
    )
    _, records = run_fdr_experiment(config)
    assert calls == list(alphas)
    assert len(records) == len(alphas)


def test_one_fdr_replication_calls_each_traced_knockoff_layer_once(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    knockoff_layers = (
        "knockoffs.estimate_covariance",
        "knockoffs.sdp_h",
        "knockoffs.build_knockoff_model",
        "knockoffs.sample_knockoffs",
        "fdr.w_statistics",
    )
    patched = {name for name, module, _ in tracing.PATCH_POINTS if module == "pcscreen.pipeline"}
    assert set(knockoff_layers) <= patched
    config = ExperimentConfig(
        models=("4a",), n=120, p=30, replications=1, alphas=(0.1, 0.2), n1=40, d=10,
        construction="sdp", base_seed=300,
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_fdr_experiment(config)
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    calls = {name: totals[name]["calls"] for name in knockoff_layers}
    assert calls == dict.fromkeys(knockoff_layers, 1)
    # the core and each alpha's threshold run through the names tracing.py
    # patches, so its survivor and fdp_hat checks see every selection
    assert totals["pipeline.pc_knockoff_core"]["calls"] == 1
    assert totals["fdr.knockoff_plus_threshold"]["calls"] == len(config.alphas)
    assert tracer.take_problems() == []


def test_every_workload_passes_its_own_output_check_at_the_tiny_shape(monkeypatch, tmp_path):
    # the first op per model of each workload, run and checked as the
    # benchmark does, so a wrong output or a refused screen argv fails here
    workloads = _load(monkeypatch, "workloads")
    problems = {}
    for name, spec in workloads.WORKLOADS.items():
        runner = workloads.Runner(name, "tiny", tmp_path / name)
        references = workloads.load_references(PERFBENCH / "references.json", name, "tiny")
        for inp in workloads.op_inputs(name, 0)[: len(spec["models"])]:
            if runner.kind == "screen":
                runner.prepare(inp)
            out = runner.output(inp, runner.execute(inp))
            problems[workloads.input_key(inp)] = runner.check(inp, out, references)
    assert problems and not any(problems.values()), problems


def test_traced_spans_nest_on_the_op_thread_while_kernel_helpers_run(monkeypatch):
    # Small blocks make this replication's kernel sweeps and covariate draw
    # start helper threads on a second CPU.
    monkeypatch.setattr(kernel, "_BLOCK_ELEMENTS", 2 * 40)
    monkeypatch.setattr(models, "_BLOCK_ELEMENTS", 2 * 30)
    config = ExperimentConfig(
        models=("4a",), n=120, p=30, replications=1, alphas=(0.1, 0.2), n1=40, d=10, base_seed=300
    )
    _assert_traced_spans_nest(monkeypatch, run_fdr_experiment, config)


def test_traced_quantile_spans_nest_on_the_op_thread_while_kernel_helpers_run(monkeypatch):
    # quantile_desk's shape at the default block: 1000 columns of 100 rows
    # are two blocks, so every sweep hands one to a helper on a second CPU.
    config = ExperimentConfig(models=("1a",), n=100, p=1000, replications=1, base_seed=300)
    _assert_traced_spans_nest(monkeypatch, run_quantile_experiment, config)


def _assert_traced_spans_nest(monkeypatch, run, config):
    # The tracer keeps one span stack and reads every traced call as made by
    # the thread that runs the op.  The helpers' work stays inside the traced
    # calls, so every span still opens on the op's thread, nests in its
    # parent, and the self times add up to the op.
    tracing = _load(monkeypatch, "tracing")
    started = []
    thread = placement.threading.Thread

    def counted(*args, **kwargs):
        started.append(1)
        return thread(*args, **kwargs)

    monkeypatch.setattr(placement.threading, "Thread", counted)
    tracer = tracing.Tracer()
    opened_on = []
    span = tracer.span

    def recorded(name):
        opened_on.append(threading.get_ident())
        return span(name)

    tracer.span = recorded
    with only_cpus(2):
        tracer.install()
        try:
            with tracer.op(0):
                run(config)
        finally:
            tracer.uninstall()
    assert started
    assert set(opened_on) == {threading.get_ident()}
    intervals = {sid: (start, end) for sid, _, _, start, end, _ in tracer.spans}
    roots = [sid for sid, parent, *_ in tracer.spans if parent is None]
    assert len(roots) == 1 and len(tracer.spans) > 1
    for sid, parent, _, start, end, _ in tracer.spans:
        if parent is not None:
            assert intervals[parent][0] <= start <= end <= intervals[parent][1]
    totals = tracer.layer_totals()
    op = totals[tracing.ROOT_SPAN]["total_s"]
    assert math.isclose(sum(row["self_s"] for row in totals.values()), op, rel_tol=1e-9)
