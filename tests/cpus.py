"""Run a test's calls on some of this thread's CPUs, for the tests that
compare serial and threaded results."""

from __future__ import annotations

import contextlib
import os

import pytest


@contextlib.contextmanager
def only_cpus(count):
    """Restrict this thread's affinity mask to ``count`` of its CPUs for the
    body of the ``with`` block, and restore it on every exit path.  Skips the
    test where the mask holds fewer CPUs or the system cannot set one."""
    if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < count:
        pytest.skip(f"needs {count} CPUs in the affinity mask")
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(mask)[:count])
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)
