"""Span tracing from outside the program.

The benchmark wraps public functions of the ``pinchbeam`` modules in place
(every module namespace that holds the function gets the wrapper), records
one span per call and aggregates the spans into per-layer times. Nothing in
the program changes; uninstalling restores the original objects.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the top). A span's self time is its duration minus the
durations of its direct children; since one thread runs everything here,
children never overlap, so the self times of a tree sum to its root.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Records nested spans and named counters while ``active``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = True
        self._stack: list[int] = []

    def wrap(self, fn, name, tape_arg: int | None = None, count_ops: bool = False):
        """``fn`` recording a span per call.

        ``name`` is a string or ``name(args, kwargs) -> str``. With
        ``tape_arg`` set, the nodes and bytes the call pushed onto the tape
        passed at that position are added to the counters ``<name>.nodes``
        and ``<name>.bytes``; ``count_ops`` also counts them per op kind
        under ``op.<kind>``.
        """
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            tape = args[tape_arg] if tape_arg is not None else None
            n0 = len(tape) if tape is not None else 0
            idx = len(self.spans)
            self.spans.append([label, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                span = self.spans[idx]
                span[1], span[2] = t0, t1
                if tape is not None:
                    self.counts[label + ".nodes"] += len(tape) - n0
                    self.counts[label + ".bytes"] += sum(v.nbytes for v in tape.values[n0:])
                    if count_ops:
                        self.counts.update("op." + op for op in tape.ops[n0:])

        traced.__wrapped__ = fn
        return traced

    def wrap_vjps(self, tape) -> None:
        """Time every backward step of ``tape`` as ``autodiff.bwd.<op>``."""
        for i, vjp in enumerate(tape.vjps):
            if vjp is not None:
                tape.vjps[i] = self.wrap(vjp, "autodiff.bwd." + tape.ops[i])

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counters recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the durations of its direct children (s)."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - c for (_, t0, t1, _), c in zip(spans, child)]


def summarize(spans: list[list]) -> dict[str, list]:
    """name -> [calls, inclusive seconds, self seconds]."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, t0, t1, _), own in zip(spans, self_times(spans)):
        row = out[name]
        row[0] += 1
        row[1] += t1 - t0
        row[2] += own
    return out


class Patches:
    """Replace program functions by traced wrappers in every namespace.

    A function imported by name into another module (``from .physics import
    compute_channel``) is a second reference to the same object; each one is
    swapped, so calls through either path are traced.
    """

    def __init__(self, package: str = "pinchbeam"):
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(self.package + "."))]

    def replace(self, original, wrapper) -> int:
        hits = 0
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    hits += 1
        return hits

    def restore(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()
