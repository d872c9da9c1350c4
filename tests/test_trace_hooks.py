"""Guards for the benchmark's trace hooks: perfbench/tracing.py patches
functions by (module, attribute) name, so a rename in the package would
silently drop a traced layer.  The tracing module is loaded by path and
never modified."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

from pcscreen import pipeline
from pcscreen.harness import ExperimentConfig, run_fdr_experiment

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    missing = [
        (module_name, attr)
        for _, module_name, attr in tracing.PATCH_POINTS
        if not hasattr(importlib.import_module(module_name), attr)
    ]
    assert missing == []


def test_one_fdr_replication_thresholds_through_pipeline_once_per_alpha(monkeypatch):
    tracing = _load_tracing(monkeypatch)
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
    tracing = _load_tracing(monkeypatch)
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
    assert tracer.take_problems() == []
