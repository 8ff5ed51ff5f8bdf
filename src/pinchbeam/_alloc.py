"""glibc allocator tuning for the numeric hot paths.

The forward/backward passes allocate many megabyte-sized temporaries. With
glibc defaults those come from fresh mmap regions, so every op pays page
faults; raising the mmap/trim thresholds keeps the buffers on the heap.
Measured with the benchmark harness (three alternating 20 s pairs per
workload, 2-CPU x86-64, glibc, OpenBLAS), the 75th-percentile operation time
without it rose by 33% on single-sample C7 inference, 8% on the C5 training
step and 16% on the K8 training step. Best effort: silently does nothing on
non-glibc platforms.
"""

from __future__ import annotations

import ctypes

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_done = False


def tune_allocator() -> bool:
    """Raise malloc's mmap/trim thresholds (idempotent). True on success."""
    global _done
    if _done:
        return True
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        ok = bool(libc.mallopt(_M_MMAP_THRESHOLD, 1 << 30)) \
            and bool(libc.mallopt(_M_TRIM_THRESHOLD, 1 << 30))
    except OSError:
        return False
    _done = ok
    return ok
