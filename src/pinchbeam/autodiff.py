"""Reverse-mode automatic differentiation on float64 and complex128 numpy arrays.

A :class:`Tape` records every primitive application; append order is
execution order, so one reverse sweep computes all adjoints.

Complex values: a node's value is float64 or complex128, and a complex
node's adjoint is ``dL/dRe + j dL/dIm``. With that convention the
holomorphic primitives take complex operands as they are: the VJPs of
``mul``, ``div``, ``matmul`` and ``solve`` conjugate their operands, which
leaves a real operand unchanged (``ndarray.conj()`` of a real array is the
array itself), and ``Tape.backward`` keeps only the real part of an adjoint
that flows into a real node. The ops that cross between real and complex
live in :mod:`pinchbeam.cplx`.

Gradient conventions: ``max_with_scalar``, ``relu`` and the relu fused into
``dense`` use subgradient 0 at the kink. Tests and gradient checks keep
inputs away from kinks; ``verify.kink_distance`` recomputes a fused relu's
pre-activation (:func:`dense_preactivation`), so ``dense`` stores none. An
adjoint handed to a VJP may be a read-only broadcast view (``sum_axis`` and
``mean_axis`` return one), so no VJP writes into its ``g``. ``Tape.backward``
releases each interior adjoint once its VJP has run; only leaf adjoints
outlive the sweep.

Sums over a layer's output: a relu or identity layer whose output only feeds
a sum takes the sum into its ``dense`` node (``reduce``), which stores the
summed value and, for its VJP, a boolean mask of the summed entries instead
of the full-resolution output. The placement GNN sums its other-waveguide
branch over slots and its processor over the other users this way, and
takes its leave-one-out sums as total minus own inside the weight fold
(``placement_gnn.nested_pe_hidden``). ``sum_others`` and
``off_diagonal_sum`` are the leave-one-out sums as single nodes: the
precoder GNN uses the first, and a layer with another activation sums
through ``sum_axis`` or the second (:func:`fnn_layer`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvalidConfigError, SingularityError


def _tape_array(value) -> np.ndarray:
    """``value`` as complex128 if it is complex, else as float64."""
    return np.asarray(value, dtype=np.complex128 if np.iscomplexobj(value) else np.float64)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum an adjoint down to ``shape`` (reverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Var:
    """Handle to one node of a tape."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> np.ndarray:
        return self.tape.values[self.idx]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def ndim(self) -> int:
        return self.value.ndim

    def __repr__(self):
        return f"Var(idx={self.idx}, shape={self.shape})"


class Tape:
    """Append-only record of forward operations.

    Node i's inputs always precede it, so ``backward`` is a single reverse
    iteration over the node list (deterministic accumulation order).
    """

    def __init__(self):
        self.values: list[np.ndarray] = []
        self.parents: list[tuple[int, ...]] = []
        self.vjps: list[Callable | None] = []
        self.ops: list[str] = []
        self.meta: list = []  # op-specific extras (e.g. clamp thresholds)
        self.param_slots: list[tuple[str, int]] = []  # (store name, node idx)

    def __len__(self) -> int:
        return len(self.values)

    def _push(self, value: np.ndarray, parents: tuple[int, ...],
              vjp: Callable | None, op: str, meta=None) -> Var:
        self.values.append(_tape_array(value))
        self.parents.append(parents)
        self.vjps.append(vjp)
        self.ops.append(op)
        self.meta.append(meta)
        return Var(self, len(self.values) - 1)

    def constant(self, value) -> Var:
        """Leaf node; receives an adjoint but propagates nowhere."""
        return self._push(value, (), None, "const")

    def param(self, store: "ParameterStore", name: str) -> Var:
        """Leaf bound to a named parameter; ``backward_into`` routes its adjoint."""
        v = self.constant(store.values[name])
        self.param_slots.append((name, v.idx))
        return v

    def backward(self, loss: Var) -> list[np.ndarray | None]:
        """Adjoint of ``loss`` w.r.t. every leaf (const and param) node.

        An interior node's adjoint is released as soon as its VJP has passed
        it to the parents, so the sweep never holds more than the adjoints
        still waiting to be propagated. The returned list therefore holds
        the leaf adjoints, and None for interior nodes and for leaves the
        loss does not reach. An adjoint that flows into a real node keeps
        only its real part, ``dL/dRe``.
        """
        if loss.tape is not self:
            raise ValueError("loss does not belong to this tape")
        if loss.value.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
        grads: list[np.ndarray | None] = [None] * len(self.values)
        grads[loss.idx] = np.ones_like(self.values[loss.idx])
        for i in range(loss.idx, -1, -1):
            g, vjp = grads[i], self.vjps[i]
            if g is None or vjp is None:
                continue
            grads[i] = None
            for p, pg in zip(self.parents[i], vjp(g)):
                if pg is None:
                    continue
                if pg.dtype.kind == "c" and self.values[p].dtype.kind != "c":
                    pg = pg.real
                if grads[p] is None:
                    grads[p] = pg
                else:
                    grads[p] = grads[p] + pg
        return grads


def _lift(x, tape: Tape) -> Var:
    if isinstance(x, Var):
        return x
    return tape.constant(x)


def _pair(a, b) -> tuple[Var, Var, Tape]:
    if isinstance(a, Var):
        tape = a.tape
    elif isinstance(b, Var):
        tape = b.tape
    else:
        raise TypeError("at least one operand must be a Var")
    return _lift(a, tape), _lift(b, tape), tape


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Var:
    a, b, tape = _pair(a, b)
    av, bv = a.value, b.value

    def vjp(g):
        return _unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)

    return tape._push(av + bv, (a.idx, b.idx), vjp, "add")


def sub(a, b) -> Var:
    a, b, tape = _pair(a, b)
    av, bv = a.value, b.value

    def vjp(g):
        return _unbroadcast(g, av.shape), _unbroadcast(-g, bv.shape)

    return tape._push(av - bv, (a.idx, b.idx), vjp, "sub")


def mul(a, b) -> Var:
    a, b, tape = _pair(a, b)
    av, bv = a.value, b.value

    def vjp(g):
        return (_unbroadcast(g * bv.conj(), av.shape),
                _unbroadcast(g * av.conj(), bv.shape))

    return tape._push(av * bv, (a.idx, b.idx), vjp, "mul")


def div(a, b) -> Var:
    a, b, tape = _pair(a, b)
    av, bv = a.value, b.value

    def vjp(g):
        ga = g / bv.conj()
        return _unbroadcast(ga, av.shape), _unbroadcast(-ga * av.conj() / bv.conj(), bv.shape)

    return tape._push(av / bv, (a.idx, b.idx), vjp, "div")


def scalar_scale(a: Var, c: float) -> Var:
    c = float(c)

    def vjp(g):
        return (g * c,)

    return a.tape._push(a.value * c, (a.idx,), vjp, "scalar_scale")


def matmul(a, b) -> Var:
    a, b, tape = _pair(a, b)
    av, bv = a.value, b.value
    if av.ndim < 2 or bv.ndim < 2:
        raise ValueError(f"matmul needs >= 2-D operands, got {av.shape} @ {bv.shape}")

    def vjp(g):
        ga = g @ np.swapaxes(bv, -1, -2).conj()
        gb = np.swapaxes(av, -1, -2).conj() @ g
        return _unbroadcast(ga, av.shape), _unbroadcast(gb, bv.shape)

    return tape._push(av @ bv, (a.idx, b.idx), vjp, "matmul")


def as_parts(x: Var | Sequence[Var]) -> list[Var]:
    """The parts of a :func:`dense` input: one Var or a sequence of Vars."""
    return [x] if isinstance(x, Var) else list(x)


def row_blocks(xvs: Sequence[np.ndarray], wv: np.ndarray) -> list[np.ndarray]:
    """The row block of ``W`` that each :func:`dense` part multiplies."""
    rows = list(accumulate((v.shape[-1] for v in xvs), initial=0))
    return [wv[r0:r1] for r0, r1 in zip(rows, rows[1:])]


def dense_preactivation(xvs: Sequence[np.ndarray], blocks: Sequence[np.ndarray],
                        bv: np.ndarray | None) -> np.ndarray:
    """``concat(xvs, -1) @ W + b`` as :func:`dense` computes it, before its relu.

    Each part runs one 2-D GEMM against its row block of ``W``
    (:func:`row_blocks`) and the products are broadcast-added, the parts
    with the fewest rows first, so that the reduced-resolution products are
    summed before the running sum grows. ``dense`` and
    ``verify.kink_distance`` share this, so a relu's kink distance is
    measured on the exact values the node clamped.
    """
    n_out = blocks[0].shape[1]
    y = None
    for xv, wb in sorted(zip(xvs, blocks), key=lambda part: math.prod(part[0].shape[:-1])):
        p = (xv.reshape(-1, wb.shape[0]) @ wb).reshape(xv.shape[:-1] + (n_out,))
        if y is None:
            y = p
        elif np.broadcast_shapes(y.shape, p.shape) == y.shape:
            y += p
        else:
            y = y + p  # the running sum grows to the broadcast shape
    if bv is not None:
        y += bv
    return y


def dense(x: Var | Sequence[Var], w: Var, b: Var | None = None,
          relu: bool = False, reduce: int | tuple[int, int] | None = None) -> Var:
    """``act(concat(xs, -1) @ W + b)`` along the last axis as one node, summed
    if ``reduce`` says so.

    ``x`` is one Var or a sequence of parts whose leading shapes broadcast.
    Their concat is never built: each part multiplies its own row block of
    ``W`` at its own resolution and the products are broadcast-added
    (:func:`dense_preactivation`). ``act`` is relu or the identity. Leading
    axes are flattened, so every product and adjoint is one 2-D GEMM. The
    relu has subgradient 0 at the kink, like ``max_with_scalar``.

    ``reduce`` sums the activation inside the node, so the full-resolution
    output is never stored. An int axis is summed over and kept with length
    1, as ``sum_axis(..., keepdims=True)``. A pair ``(axis1, axis2)`` is
    summed over ``axis2``, which is dropped, leaving out the entries whose
    indices on the two axes are equal, as :func:`off_diagonal_sum`. The VJP
    of a reduced relu keeps a boolean mask of the entries that reach the
    sum (1 byte each) in place of the output; an unreduced relu takes its
    mask ``pre > 0`` from the output. The node's meta is ``(relu,
    has_bias)``, from which ``verify.kink_distance`` recomputes the
    pre-activation.
    """
    parts = as_parts(x)
    xvs, wv = [p.value for p in parts], w.value
    shapes = [v.shape for v in xvs]
    if len({len(s) for s in shapes}) != 1:
        raise ValueError(f"dense parts differ in ndim: {shapes}")
    if wv.ndim != 2 or not shapes[0] or sum(s[-1] for s in shapes) != wv.shape[0]:
        raise ValueError(f"dense needs (..., n) parts @ (n, m), got {shapes} @ {wv.shape}")
    n_out = wv.shape[1]
    has_bias = b is not None
    if has_bias and b.value.shape != (n_out,):
        raise ValueError(f"dense bias must have shape ({n_out},), got {b.value.shape}")
    blocks = row_blocks(xvs, wv)
    y = dense_preactivation(xvs, blocks, b.value if has_bias else None)
    full = y.shape
    mask = y > 0.0 if relu and reduce is not None else None
    if relu:
        np.maximum(y, 0.0, out=y)
    if reduce is not None:
        if isinstance(reduce, int):
            axis, diag = reduce % len(full), None
            y = y.sum(axis=axis, keepdims=True)
        else:
            # The sum minus the diagonal, rounded as off_diagonal_sum does.
            diag, axis, pos = _diagonal_axes(full, *reduce)
            off = ~np.eye(full[axis], dtype=bool).reshape(
                [n if i in (diag, axis) else 1 for i, n in enumerate(full)])
            if mask is None:
                mask = off
            else:
                mask &= off
            y = y.sum(axis=axis) - np.moveaxis(np.diagonal(y, axis1=diag, axis2=axis), -1, pos)

    # Captures arrays and flags only: a Var here would tie the tape into a
    # reference cycle and keep it alive until the cyclic collector runs.
    def vjp(g):
        if reduce is not None:
            g = np.broadcast_to(g if diag is None else np.expand_dims(g, axis), full)
            if mask is not None:
                g = g * mask
        elif relu:
            g = np.sign(y) * g  # y >= 0, so sign(y) is the 0/1 mask y > 0
        # g summed down to each part's resolution; parts at one resolution
        # share the sum.
        sums = {g.shape: g}
        gxs, gws = [], []
        for xv, wb in zip(xvs, blocks):
            shape = xv.shape[:-1] + (n_out,)
            if shape not in sums:
                sums[shape] = _unbroadcast(g, shape)
            g2 = sums[shape].reshape(-1, n_out)
            gxs.append((g2 @ wb.T).reshape(xv.shape))
            gws.append(xv.reshape(-1, wb.shape[0]).T @ g2)
        gw = gws[0] if len(gws) == 1 else np.concatenate(gws)
        if has_bias:
            return (*gxs, gw, g.reshape(-1, n_out).sum(axis=0))
        return (*gxs, gw)

    parents = tuple(p.idx for p in parts) + (w.idx,) + ((b.idx,) if has_bias else ())
    return w.tape._push(y, parents, vjp, "dense", meta=(relu, has_bias))


def solve(a: Var, b: Var) -> Var:
    """X with A @ X = B for square A (stacked); differentiable in A and B.

    The adjoints are ``A^{-H} G`` for B and ``-A^{-H} G X^H`` for A.
    """
    av, bv = a.value, b.value
    if av.shape[:-2] != bv.shape[:-2] or av.shape[-1] != av.shape[-2] \
            or av.shape[-1] != bv.shape[-2]:
        raise ValueError(f"bad solve shapes {av.shape}, {bv.shape}")
    try:
        x = np.linalg.solve(av, bv)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"singular linear system: {exc}") from exc
    ah = np.swapaxes(av, -1, -2).conj()

    def vjp(g):
        gb = np.linalg.solve(ah, g)
        ga = -gb @ np.swapaxes(x, -1, -2).conj()
        return ga, gb

    return a.tape._push(x, (a.idx, b.idx), vjp, "solve")


def concat(parts: Sequence[Var], axis: int) -> Var:
    tape = parts[0].tape
    vals = [p.value for p in parts]
    sizes = [v.shape[axis] for v in vals]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return tape._push(np.concatenate(vals, axis=axis),
                      tuple(p.idx for p in parts), vjp, "concat")


def reshape(a: Var, shape: tuple[int, ...]) -> Var:
    old = a.value.shape

    def vjp(g):
        return (g.reshape(old),)

    return a.tape._push(a.value.reshape(shape), (a.idx,), vjp, "reshape")


def slice_axis(a: Var, axis: int, start: int, stop: int) -> Var:
    nd = a.ndim
    axis = axis % nd
    sl = tuple(slice(None) if i != axis else slice(start, stop) for i in range(nd))
    shape = a.value.shape

    def vjp(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[sl] = g
        return (full,)

    return a.tape._push(a.value[sl], (a.idx,), vjp, "slice_axis")


def broadcast_to(a: Var, shape: tuple[int, ...]) -> Var:
    old = a.value.shape

    def vjp(g):
        return (_unbroadcast(g, old),)

    return a.tape._push(np.broadcast_to(a.value, shape).copy(), (a.idx,), vjp,
                        "broadcast_to")


def _diagonal_axes(shape: tuple[int, ...], axis1: int,
                   axis2: int) -> tuple[int, int, int]:
    """Normalised (axis1, axis2) of a square pair of axes, and where axis1
    lands once axis2 is dropped."""
    a1, a2 = axis1 % len(shape), axis2 % len(shape)
    if a1 == a2 or shape[a1] != shape[a2]:
        raise ValueError(f"need two distinct axes of equal length, got "
                         f"axes ({axis1}, {axis2}) of shape {shape}")
    return a1, a2, a1 if a1 < a2 else a1 - 1


def diagonal(a: Var, axis1: int, axis2: int) -> Var:
    """Entries of ``a`` with equal indices on ``axis1`` and ``axis2``.

    The diagonal takes the place of ``axis1`` and ``axis2`` is dropped, so
    for a (B, K, K) input and axes (1, 2) the result is (B, K) with
    ``out[b, k] = a[b, k, k]``.
    """
    shape = a.value.shape
    a1, a2, pos = _diagonal_axes(shape, axis1, axis2)
    idx = np.arange(shape[a1])

    def vjp(g):
        full = np.zeros(shape, dtype=g.dtype)
        np.moveaxis(full, (a1, a2), (-2, -1))[..., idx, idx] = np.moveaxis(g, pos, -1)
        return (full,)

    out = np.moveaxis(np.diagonal(a.value, axis1=a1, axis2=a2), -1, pos)
    return a.tape._push(np.ascontiguousarray(out), (a.idx,), vjp, "diagonal")


def off_diagonal_sum(a: Var, axis1: int, axis2: int) -> Var:
    """Sum over ``axis2`` that skips the entry whose index equals ``axis1``'s.

    For a (B, K, K) input and axes (1, 2), ``out[b, i] = sum_{j != i}
    a[b, i, j]``; ``axis2`` is dropped as in :func:`diagonal`. One node for
    the sum minus the diagonal: its adjoint is ``g`` broadcast along
    ``axis2`` with the diagonal set to 0.
    """
    shape = a.value.shape
    a1, a2, pos = _diagonal_axes(shape, axis1, axis2)
    idx = np.arange(shape[a1])

    def vjp(g):
        full = np.broadcast_to(np.expand_dims(g, a2), shape).copy()
        np.moveaxis(full, (a1, a2), (-2, -1))[..., idx, idx] = 0.0
        return (full,)

    av = a.value
    out = av.sum(axis=a2) - np.moveaxis(np.diagonal(av, axis1=a1, axis2=a2), -1, pos)
    return a.tape._push(out, (a.idx,), vjp, "off_diagonal_sum")


def sum_others(a: Var, axis: int) -> Var:
    """Leave-one-out sum along ``axis``: ``out[.., i, ..] = sum_{j != i} a[.., j, ..]``.

    Same shape as ``a``; one node for ``sum(a, axis, keepdims) - a``, whose
    adjoint has the same form. A length-1 axis gives exact zeros.
    """
    def vjp(g):
        return (g.sum(axis, keepdims=True) - g,)

    av = a.value
    return a.tape._push(av.sum(axis, keepdims=True) - av, (a.idx,), vjp, "sum_others")


def _norm_axis(axis) -> tuple[int, ...]:
    return (axis,) if isinstance(axis, int) else tuple(axis)


def sum_axis(a: Var, axis, keepdims: bool = False) -> Var:
    axes = _norm_axis(axis)
    shape = a.value.shape

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape),)

    return a.tape._push(a.value.sum(axis=axes, keepdims=keepdims), (a.idx,), vjp,
                        "sum_axis")


def mean_axis(a: Var, axis, keepdims: bool = False) -> Var:
    axes = _norm_axis(axis)
    shape = a.value.shape
    count = 1
    for ax in axes:
        count *= shape[ax]

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g / count, shape),)

    return a.tape._push(a.value.mean(axis=axes, keepdims=keepdims), (a.idx,), vjp,
                        "mean_axis")


def max_with_scalar(a: Var, s: float) -> Var:
    mask = a.value > s  # subgradient 0 at the kink

    def vjp(g):
        return (g * mask,)

    return a.tape._push(np.maximum(a.value, s), (a.idx,), vjp, "max_with_scalar",
                        meta=float(s))


def relu(a: Var) -> Var:
    return max_with_scalar(a, 0.0)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Var) -> Var:
    y = _stable_sigmoid(a.value)

    def vjp(g):
        return (g * y * (1.0 - y),)

    return a.tape._push(y, (a.idx,), vjp, "sigmoid")


def tanh(a: Var) -> Var:
    y = np.tanh(a.value)

    def vjp(g):
        return (g * (1.0 - y * y),)

    return a.tape._push(y, (a.idx,), vjp, "tanh")


def softplus(a: Var) -> Var:
    av = a.value

    def vjp(g):
        return (g * _stable_sigmoid(av),)

    return a.tape._push(np.logaddexp(0.0, av), (a.idx,), vjp, "softplus")


def log1p(a: Var) -> Var:
    av = a.value
    if np.any(av <= -1.0):
        raise ValueError("log1p of value <= -1")

    def vjp(g):
        return (g / (1.0 + av),)

    return a.tape._push(np.log1p(av), (a.idx,), vjp, "log1p")


def square(a: Var) -> Var:
    av = a.value

    def vjp(g):
        return (2.0 * av * g,)

    return a.tape._push(av * av, (a.idx,), vjp, "square")


def sqrt(a: Var) -> Var:
    av = a.value
    if np.any(av < 0.0):
        raise ValueError("sqrt of negative value")
    y = np.sqrt(av)

    def vjp(g):
        return (0.5 * g / y,)

    return a.tape._push(y, (a.idx,), vjp, "sqrt")


# ---------------------------------------------------------------------------
# parameter storage


class ParameterStore:
    """Named float64 arrays with matching gradient slots.

    Iteration everywhere is lexicographic by name, which makes optimizer
    updates and serialization order deterministic. Entries added with
    ``trainable=False`` are frozen constants (serialized, never updated,
    skipped by gradient checks).
    """

    def __init__(self):
        self.values: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._frozen: set[str] = set()

    def add(self, name: str, value: np.ndarray, trainable: bool = True) -> None:
        if name in self.values:
            raise ValueError(f"duplicate parameter name {name!r}")
        arr = np.array(value, dtype=np.float64)
        self.values[name] = arr
        self.grads[name] = np.zeros_like(arr)
        if not trainable:
            self._frozen.add(name)

    def names(self) -> list[str]:
        return sorted(self.values)

    def trainable_names(self) -> list[str]:
        return [n for n in sorted(self.values) if n not in self._frozen]

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def __len__(self) -> int:
        return len(self.values)

    def n_parameters(self) -> int:
        return sum(v.size for v in self.values.values())

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def grad_norm(self) -> float:
        return math.sqrt(sum(float(np.sum(g * g)) for g in self.grads.values()))

    def scale_grads(self, factor: float) -> None:
        for g in self.grads.values():
            g *= factor

    def copy(self) -> "ParameterStore":
        out = ParameterStore()
        for name in self.names():
            out.add(name, self.values[name].copy(),
                    trainable=name not in self._frozen)
        return out

    def entries(self) -> list[dict]:
        """Sorted JSON-ready entries: name, shape, flat decimal values."""
        return [{"name": n,
                 "shape": list(self.values[n].shape),
                 "values": self.values[n].ravel().tolist()}
                for n in self.names()]

    @classmethod
    def from_entries(cls, entries: Iterable[dict],
                     frozen: Iterable[str] = ()) -> "ParameterStore":
        frozen = set(frozen)
        store = cls()
        for e in entries:
            store.add(e["name"], np.asarray(e["values"], dtype=np.float64)
                      .reshape(e["shape"]), trainable=e["name"] not in frozen)
        return store


def backward_into(store: ParameterStore, loss: Var) -> None:
    """Zero the store's gradients, then accumulate d(loss)/d(theta).

    Parameters never touched by the tape keep an exactly-zero gradient; a
    parameter bound more than once receives the sum of its slot adjoints.
    """
    store.zero_grads()
    grads = loss.tape.backward(loss)
    for name, idx in loss.tape.param_slots:
        g = grads[idx]
        if g is not None:
            store.grads[name] += g


# ---------------------------------------------------------------------------
# fully-connected building block


# Activation applied after a layer's dense node; None means fused into it.
ACTIVATIONS = {
    "identity": None,
    "relu": None,
    "tanh": tanh,
    "sigmoid": sigmoid,
    "softplus": softplus,
}


@dataclass(frozen=True)
class FnnSpec:
    """Widths (input first) and activations of a fully-connected net."""

    widths: tuple[int, ...]
    activation: str = "relu"
    final_activation: str = "identity"
    has_bias: bool = True

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 2:
            raise InvalidConfigError("FnnSpec needs at least input and output widths")
        if any(w < 1 for w in self.widths):
            raise InvalidConfigError(f"widths must be positive, got {self.widths}")
        for act in (self.activation, self.final_activation):
            if act not in ACTIVATIONS:
                raise InvalidConfigError(f"unknown activation {act!r}")

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1


def init_fnn(store: ParameterStore, prefix: str, spec: FnnSpec,
             rng: np.random.Generator) -> None:
    """Glorot-uniform weights, zero biases, named ``{prefix}.W{i}`` / ``.b{i}``."""
    for i in range(spec.n_layers):
        fan_in, fan_out = spec.widths[i], spec.widths[i + 1]
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        store.add(f"{prefix}.W{i}", rng.uniform(-lim, lim, size=(fan_in, fan_out)))
        if spec.has_bias:
            store.add(f"{prefix}.b{i}", np.zeros(fan_out))


def fnn_layer(x: Var | Sequence[Var], w: Var, b: Var | None, act: str,
              reduce: int | tuple[int, int] | None = None) -> Var:
    """One FNN layer ``act(x @ W + b)``, summed as :func:`dense`'s ``reduce``
    says. Relu and the identity are fused into the dense node together with
    the sum; any other activation is its own node, and the sum
    (``sum_axis`` or :func:`off_diagonal_sum`) one more after it."""
    if ACTIVATIONS[act] is None:
        return dense(x, w, b, relu=act == "relu", reduce=reduce)
    h = ACTIVATIONS[act](dense(x, w, b))
    if reduce is None:
        return h
    if isinstance(reduce, int):
        return sum_axis(h, reduce, keepdims=True)
    return off_diagonal_sum(h, *reduce)


def fnn_forward(tape: Tape, spec: FnnSpec, store: ParameterStore, prefix: str,
                x: Var | Sequence[Var]) -> Var:
    """Apply the net along the last axis of ``x`` (one Var or a list of parts,
    see :func:`dense`); one dense node per layer."""
    width = sum(p.shape[-1] for p in as_parts(x))
    if width != spec.widths[0]:
        raise ValueError(
            f"input width {width} does not match spec width {spec.widths[0]}")
    h = x
    for i in range(spec.n_layers):
        act = spec.final_activation if i == spec.n_layers - 1 else spec.activation
        w = tape.param(store, f"{prefix}.W{i}")
        b = tape.param(store, f"{prefix}.b{i}") if spec.has_bias else None
        h = fnn_layer(h, w, b, act)
    return h


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """First/second moment accumulators, keyed like the store."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_store(cls, store: ParameterStore) -> "AdamState":
        s = cls()
        for name in store.names():
            s.m[name] = np.zeros_like(store.values[name])
            s.v[name] = np.zeros_like(store.values[name])
        return s


def adam_step(store: ParameterStore, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update from the gradients held in the store."""
    state.step += 1
    c1 = 1.0 - beta1 ** state.step
    c2 = 1.0 - beta2 ** state.step
    for name in store.trainable_names():
        g = store.grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        store.values[name] -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(fn: Callable[[ParameterStore], Var], store: ParameterStore,
               eps: float = 1e-5) -> float:
    """Worst relative error of reverse-mode vs central finite differences.

    ``fn`` must build a fresh tape and return the scalar loss Var, reading
    every trainable parameter it uses through :meth:`Tape.param`. Relative
    error uses denominator max(|analytic|, |numeric|, 1e-12) per coordinate.
    Only the parameters the loss's tape binds are probed: the loss does not
    read the others, so their difference and their gradient are both
    exactly 0.
    """
    if not (1e-7 <= eps <= 1e-4):
        raise InvalidConfigError(f"eps must be in [1e-7, 1e-4], got {eps}")
    loss = fn(store)
    bound = {name for name, _ in loss.tape.param_slots}
    backward_into(store, loss)
    names = [n for n in store.trainable_names() if n in bound]
    analytic = {n: store.grads[n].copy() for n in names}

    worst = 0.0
    for name in names:
        theta = store.values[name]
        flat = theta.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(fn(store).value)
            flat[i] = orig - eps
            f_minus = float(fn(store).value)
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise ValueError(f"non-finite loss while probing {name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = analytic[name].ravel()[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            worst = max(worst, err)
    return worst
