"""The tracemalloc peak of one call, for the memory regression tests."""

from __future__ import annotations

import tracemalloc


def traced_peak(fn, *args, **kwargs):
    """Return ``(result, peak)``: what ``fn`` returns and its peak, in bytes.

    numpy reports its buffers to tracemalloc, so the peak counts every array
    the call allocates and nothing that existed before it, inputs included.
    """
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
