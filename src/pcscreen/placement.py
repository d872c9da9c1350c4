"""Where the package's work runs: the CPUs of the caller's affinity mask.

On a small host the scheduler at times keeps two busy threads, or a forked
child and its parent, on one CPU while another CPU idles.  Work placed on a
CPU of its own with ``os.sched_setaffinity`` runs beside the rest.  Placement
never changes a result: every caller splits its work into parts whose bits
do not depend on which thread or process runs them, or when.
"""

from __future__ import annotations

import contextlib
import os
import threading


def cpus():
    """The CPUs of this thread's affinity mask, or an empty set where the
    system cannot place a thread."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()


def _cpus_but_this_one(cpus):
    """The CPUs of ``cpus`` but the one this thread runs on, or None where
    /proc does not say which that is."""
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            # field 39, "processor", counted past the parenthesized name
            return cpus - {int(stat.read().rsplit(b")", 1)[1].split()[36])}
    except (OSError, IndexError, ValueError):
        return None


def run_pinned(tasks):
    """Run every callable of ``tasks`` to its end: the first in this thread
    and each other at the same time in a helper thread, each pinned to a CPU
    of its own from this thread's mask.

    This thread keeps the CPU it runs on where /proc says which that is.  Its
    own mask comes back, and every helper is joined, on every exit path.  An
    exception a helper raised is raised here as itself, unless the first
    task raised its own.  Where the mask holds fewer CPUs than there are
    tasks, or this thread cannot be pinned, the tasks run in this thread in
    their order and no thread starts; a helper that cannot start runs its
    task here after the first.  The tasks must therefore allow that order.
    """
    mask = cpus()
    if len(tasks) < 2 or len(mask) < len(tasks):
        return _in_order(tasks)
    others = _cpus_but_this_one(mask)
    if others is None or others == mask:
        others = mask - {min(mask)}
    try:
        os.sched_setaffinity(0, mask - others)
    except OSError:
        return _in_order(tasks)
    errors, threads, left = [], [], []
    try:
        for task, cpu in zip(tasks[1:], sorted(others)):
            thread = threading.Thread(target=_pinned_helper, args=(task, cpu, errors))
            try:
                thread.start()
                threads.append(thread)
            except RuntimeError:  # no thread can be started now
                left.append(task)
        _in_order([tasks[0], *left])
    finally:
        for thread in threads:
            thread.join()
        os.sched_setaffinity(0, mask)
    if errors:
        raise errors[0]


def _in_order(tasks):
    for task in tasks:
        task()


def _pinned_helper(task, cpu, errors):
    """A helper thread's work: ``task`` on ``cpu``; its exception, whatever
    it is, goes to ``errors`` for the caller to raise."""
    try:
        with contextlib.suppress(OSError):  # a placement hint, not a condition
            os.sched_setaffinity(0, {cpu})
        task()
    except BaseException as exc:  # raised again in the caller
        errors.append(exc)
