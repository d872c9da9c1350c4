"""Replicated experiment runners (minimum-model-size quantiles, and FDR
tables whose empty/partial selection rates show the phase transition over
alpha), per-replication JSON-lines records and the summary CSV writer."""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from dataclasses import dataclass

from .design import write_design_csv  # noqa: F401 - perfbench/workloads.py looks it up here
from .errors import PcScreenError
from .fdr import check_alpha, empirical_fdp
from .kernel import _seed, _whole
from .models import ModelSpec, generate_dataset
from .pipeline import (
    DEFAULT_CONSTRUCTION, check_construction, core_diagnostics, pc_knockoff_core, selection_fields,
    selection_from_core, split_sizes,
)
from .placement import cpus
from .screening import minimum_model_size, pearson_sis_rank, rank_features

QUANTILE_METHODS = ("pc_screen", "pearson_sis")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one replicated experiment needs, seeds included.

    Replication r of every model uses seed ``base_seed + r``.  ``threads``
    caps the size of the one process pool that runs all (model, seed)
    replications of a run, one each, whatever the number of models; results
    are independent of the pool size.  They can depend on the BLAS thread
    count of the processes, which no setting here fixes.  Model ids are
    stored in canonical form (``"1A"`` becomes ``"1a"``), alphas, quantile
    levels and ``rho`` as floats, sizes and seeds (``s``, ``n1`` and ``d``
    included, when given) as ints (a fractional one is refused); an empty
    list, a repeated model, alpha or method and what ModelSpec, split_sizes,
    check_construction, check_alpha or nearest_rank_quantile's level rule
    refuse are refused, with the same messages.
    """

    models: tuple[str, ...]
    n: int
    p: int
    replications: int
    rho: float = 0.5
    s: int | None = None
    methods: tuple[str, ...] = QUANTILE_METHODS
    quantile_levels: tuple[float, ...] = (5.0, 25.0, 50.0, 75.0, 95.0)
    alphas: tuple[float, ...] = (0.2,)
    n1: int | None = None
    d: int | None = None
    construction: str = DEFAULT_CONSTRUCTION
    base_seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if not self.models:
            raise ValueError("at least one model id is required")
        specs = self.specs
        models = tuple(spec.id for spec in specs)
        if len(set(models)) != len(models):
            raise ValueError(f"repeated model id in {models}")
        object.__setattr__(self, "models", models)
        for name in ("n", "p", "rho", "s"):
            object.__setattr__(self, name, getattr(specs[0], name))
        if self.n1 is not None or self.d is not None:
            for name, size in zip(("n1", "d"), split_sizes(self.n, self.n1, self.d)):
                if getattr(self, name) is not None:
                    object.__setattr__(self, name, size)
        object.__setattr__(self, "replications", _whole(self.replications, "replications", 1))
        object.__setattr__(self, "base_seed", _seed(self.base_seed, "base_seed"))
        object.__setattr__(self, "threads", _whole(self.threads, "threads", 1))
        for name in ("methods", "quantile_levels", "alphas"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        levels = tuple(_quantile_level(q) for q in self.quantile_levels)
        object.__setattr__(self, "quantile_levels", levels)
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("quantile levels must be strictly increasing")
        alphas = tuple(check_alpha(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if len(set(alphas)) != len(alphas):
            raise ValueError(f"repeated alpha level in {alphas}")
        unknown = set(self.methods) - set(QUANTILE_METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; known: {QUANTILE_METHODS}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"repeated method in {self.methods}")
        check_construction(self.construction)

    @property
    def specs(self):
        return tuple(ModelSpec(mid, self.n, self.p, self.rho, self.s) for mid in self.models)


@dataclass(frozen=True)
class SummaryTable:
    """A replicated summary: its CSV header and one tuple per row, in the
    order of ``columns``."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def _quantile_level(level):
    """``level`` as a float, refused unless it lies in (0, 100)."""
    level = float(level)
    if not 0.0 < level < 100.0:
        raise ValueError(f"quantile level must lie in (0, 100), got {level}")
    return level


def nearest_rank_quantile(values, level):
    """Nearest-rank empirical quantile: sorted[ceil(level/100 * N) - 1]."""
    level = _quantile_level(level)
    ordered = sorted(values)
    if not ordered:
        raise ValueError("cannot take a quantile of no values")
    # level * N first: integer-valued products stay exact in float arithmetic
    idx = math.ceil(level * len(ordered) / 100.0) - 1
    return ordered[max(0, min(idx, len(ordered) - 1))]


def _quantile_records(data, seed, config):
    """One replication's minimum model size under each ranking method."""
    records = []
    for method in config.methods:
        if method == "pc_screen":
            ranking = rank_features(data.x, data.y)
        elif data.y.shape[1] > 1:
            continue  # Pearson ranking cannot score a multivariate response
        else:
            ranking = pearson_sis_rank(data.x, data.y)
        records.append(
            {
                "record": "quantile",
                "method": method,
                "mms": int(minimum_model_size(ranking, data.true_active)),
                "n": config.n,
                "p": config.p,
            }
        )
    return records


def _fdr_records(data, seed, config):
    """One replication's knockoff selection at each alpha."""
    core = pc_knockoff_core(
        data.x, data.y, n1=config.n1, d=config.d, construction=config.construction, seed=seed
    )
    active = set(data.true_active)
    screened_all = active.issubset(core.survivors)
    replication = {"record": "fdr", "screened_all": screened_all, **core_diagnostics(core)}
    records = []
    for alpha in config.alphas:
        fields = selection_fields(selection_from_core(core, alpha))
        selected = fields["selected"]
        sure = active.issubset(selected)
        records.append(
            {
                **replication,
                **fields,
                "n_selected": len(selected),
                "empirical_fdp": empirical_fdp(selected, active),
                "sure_screening": sure,
                "event": "e1" if not selected else "e2" if sure else "e3",
            }
        )
    return records


def _replicate(args):
    """``build``'s records of one (model, seed) replication, each with the
    model, the seed and the generator's overflow tallies; a failure is
    prefixed with the seed and the model."""
    build, spec, seed, config = args
    try:
        data = generate_dataset(spec, seed)
        replication = {
            "model": spec.id,
            "seed": int(seed),
            "clamp_events": data.clamp_events,
            "extreme_responses": data.extreme_responses,
        }
        return [{**replication, **record} for record in build(data, seed, config)]
    except (PcScreenError, ValueError) as exc:
        exc.args = (f"replication seed {seed} ({spec.id}): {exc}",)
        raise


def _run_replications(build, config):
    """``build``'s records of every (model, seed) pair of a run, in (model,
    seed) order, from one pool of min(``config.threads``, pairs) processes
    (at one, from this process).  The pool starts all its workers at its
    first task, so it is never larger than the run.  Each worker keeps to
    its own share of this process's CPUs (:func:`_take_share`), so two
    workers are not left on one CPU and a worker's kernel threads do not
    crowd another's."""
    argses = [
        (build, spec, config.base_seed + r, config)
        for spec in config.specs
        for r in range(config.replications)
    ]
    workers = min(config.threads, len(argses))
    if workers > 1:
        # imported here: a serial run never loads the process pool
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context()
        initargs = (sorted(cpus()), workers, context.Value("i", 0))
        with ProcessPoolExecutor(workers, context, _take_share, initargs) as pool:
            results = list(pool.map(_replicate, argses))
    else:
        results = [_replicate(args) for args in argses]
    return [record for result in results for record in result]


def _take_share(cpus, workers, started):
    """A pool worker's initializer: keep to share i of the ``cpus`` of the
    pool's parent, i the count of workers ``started`` before this one; with
    more workers than CPUs, each share is one CPU.  A placement hint: where
    the mask cannot be set, the worker runs where it is."""
    with started.get_lock():
        index = started.value % workers
        started.value += 1
    first = index * len(cpus) // workers
    share = cpus[first : max((index + 1) * len(cpus) // workers, first + 1)]
    if share:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, share)


def _summarize(records, keys, columns):
    """A SummaryTable of ``records`` grouped by ``keys``, one row per group in
    the order of its first record: the key values, ``replications`` (the
    group's size), then ``column(group)`` for each entry of ``columns``."""
    groups = {}
    for rec in records:
        groups.setdefault(tuple(rec[key] for key in keys), []).append(rec)
    rows = tuple(
        (*key, len(group), *(column(group) for column in columns.values()))
        for key, group in groups.items()
    )
    return SummaryTable(columns=(*keys, "replications", *columns), rows=rows)


def _mean(value):
    """A column: the mean of ``value(record)`` over a group, summed in record
    order."""
    return lambda group: sum(value(rec) for rec in group) / len(group)


def run_quantile_experiment(config):
    """Minimum-model-size quantiles per (model, method) over replications.

    Pearson marginal ranking is skipped automatically for the multivariate-
    response models it cannot score.
    """
    columns = {
        f"q{level:g}": lambda group, level=level: nearest_rank_quantile(
            [rec["mms"] for rec in group], level
        )
        for level in config.quantile_levels
    }
    if len(columns) != len(config.quantile_levels):
        raise ValueError(f"quantile levels {config.quantile_levels} share a column name")
    records = _run_replications(_quantile_records, config)
    return _summarize(records, ("model", "method"), columns), records


def run_fdr_experiment(config):
    """Per-alpha selection size, sure-screening rate, empirical FDR, the
    rates of empty (e1) and partial (e3) selections and per-active selection
    frequencies, per (model, alpha) over replications.  Every model must be
    of the 4x family and the split sizes valid; both are checked first."""
    for mid in config.models:
        if mid[0] != "4":
            raise ValueError(f"FDR experiments are defined for the 4x model family, got {mid}")
    split_sizes(config.n, config.n1, config.d)
    records = _run_replications(_fdr_records, config)
    s = config.specs[0].active_count
    columns = {
        "mean_selected": _mean(lambda rec: rec["n_selected"]),
        "sure_screening_freq": _mean(lambda rec: rec["sure_screening"]),
        "empirical_fdr": _mean(lambda rec: rec["empirical_fdp"]),
        "e1_freq": _mean(lambda rec: rec["event"] == "e1"),
        "e3_freq": _mean(lambda rec: rec["event"] == "e3"),
        **{f"freq_X{j + 1}": _mean(lambda rec, j=j: j in rec["selected"]) for j in range(s)},
    }
    return _summarize(records, ("model", "alpha"), columns), records


def _record_sort_key(record):
    return (
        record.get("record", ""),
        record.get("model", ""),
        record.get("seed", -1),
        record.get("alpha", -1.0),
        record.get("method", ""),
    )


def write_records_jsonl(records, path):
    """Persist per-replication records, deterministically sorted, one JSON
    object per line."""
    lines = [
        json.dumps(record, sort_keys=True)
        for record in sorted(records, key=_record_sort_key)
    ]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + ("\n" if lines else ""))


def write_summary_csv(table, path):
    """Write a SummaryTable as CSV: its columns, then its rows (floats print
    as ``repr``)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.columns)
        writer.writerows(table.rows)
