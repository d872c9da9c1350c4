"""Placement tests: ``run_pinned`` runs every task, each helper on a CPU of
its own, raises a helper's exception in the caller as itself, joins every
helper and gives the caller its mask back; where it cannot place a thread it
runs the tasks in order and starts none."""

from __future__ import annotations

import os
import threading
import time

import pytest

from pcscreen import placement

from .cpus import only_cpus


def _no_thread(*args, **kwargs):
    raise AssertionError("a thread was started")


def _recorder():
    seen = []

    def task(name):
        def run():
            seen.append((name, os.sched_getaffinity(0), threading.get_ident()))

        return run

    return seen, task


def test_each_task_runs_on_a_cpu_of_its_own_and_the_mask_comes_back():
    seen, task = _recorder()
    before = threading.active_count()
    with only_cpus(2):
        mask = os.sched_getaffinity(0)
        placement.run_pinned([task("caller"), task("helper")])
        assert os.sched_getaffinity(0) == mask
    placed = {name: (cpus, ident) for name, cpus, ident in seen}
    assert placed["caller"][1] == threading.get_ident() != placed["helper"][1]
    assert len(placed["caller"][0]) == len(placed["helper"][0]) == 1
    assert placed["caller"][0] | placed["helper"][0] == mask
    assert threading.active_count() == before


def test_a_helper_error_reaches_the_caller_as_itself():
    error = KeyError("from the helper")
    done = []

    def fails():
        raise error

    before = threading.active_count()
    with only_cpus(2):
        mask = os.sched_getaffinity(0)
        with pytest.raises(KeyError) as caught:
            placement.run_pinned([lambda: done.append("caller"), fails])
        assert os.sched_getaffinity(0) == mask
    assert caught.value is error
    assert done == ["caller"]
    assert threading.active_count() == before


def test_the_caller_error_wins_after_every_helper_is_joined():
    finished = []

    def slow():
        time.sleep(0.05)
        finished.append("helper")

    def fails():
        raise ValueError("from the caller")

    before = threading.active_count()
    with only_cpus(2):
        mask = os.sched_getaffinity(0)
        with pytest.raises(ValueError, match="from the caller"):
            placement.run_pinned([fails, slow])
        assert os.sched_getaffinity(0) == mask
    assert finished == ["helper"]
    assert threading.active_count() == before


def test_a_one_cpu_mask_runs_the_tasks_in_order_without_a_thread(monkeypatch):
    seen, task = _recorder()
    monkeypatch.setattr(placement.threading, "Thread", _no_thread)
    with only_cpus(1):
        placement.run_pinned([task(0), task(1), task(2)])
    assert [name for name, _, _ in seen] == [0, 1, 2]


def test_a_refused_placement_runs_the_tasks_in_order_without_a_thread(monkeypatch):
    if len(placement.cpus()) < 2:
        pytest.skip("needs 2 CPUs in the affinity mask")
    mask = os.sched_getaffinity(0)
    seen, task = _recorder()

    def refuse(pid, cpus):
        raise PermissionError("placement refused")

    monkeypatch.setattr(placement.threading, "Thread", _no_thread)
    monkeypatch.setattr(placement.os, "sched_setaffinity", refuse)
    placement.run_pinned([task(0), task(1)])
    assert [name for name, _, _ in seen] == [0, 1]
    assert os.sched_getaffinity(0) == mask


def test_a_helper_that_cannot_start_runs_its_task_after_the_first(monkeypatch):
    seen, task = _recorder()

    class Unstartable(threading.Thread):
        def start(self):
            raise RuntimeError("can't start new thread")

    monkeypatch.setattr(placement.threading, "Thread", Unstartable)
    with only_cpus(2):
        mask = os.sched_getaffinity(0)
        placement.run_pinned([task(0), task(1)])
        assert os.sched_getaffinity(0) == mask
    assert [name for name, _, _ in seen] == [0, 1]
    assert {ident for _, _, ident in seen} == {threading.get_ident()}


def test_no_affinity_calls_mean_no_cpus(monkeypatch):
    monkeypatch.delattr(placement.os, "sched_setaffinity")
    monkeypatch.setattr(placement.threading, "Thread", _no_thread)
    assert placement.cpus() == set()
    order = []
    placement.run_pinned([lambda: order.append(0), lambda: order.append(1)])
    assert order == [0, 1]
