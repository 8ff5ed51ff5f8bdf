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

Gradient conventions: ``max_with_scalar`` and the relu fused into ``dense``
use subgradient 0 at the kink. Tests and gradient checks keep inputs away
from kinks; ``verify.kink_distance`` recomputes a fused relu's
pre-activation (:func:`dense_preactivation`), so ``dense`` stores none. A
writable adjoint belongs to the one node that receives it; one handed to two
parents (``add``, via :func:`_unbroadcast`) or broadcast (``sum_axis``) is a
read-only view. So a VJP may write into a writable ``g`` (``dense`` masks
its relu in place, and a reduced relu writes a part's adjoint into the
masked adjoint it owns), and ``Tape.backward`` adds a second adjoint into a
writable first one in place and releases each interior adjoint once its VJP
has run; only leaf adjoints outlive the sweep, and :func:`backward_into`
keeps the parameters' ones as the store's gradients.

Values released in the forward pass and in the sweep: ``Tape.backward``
consumes the tape. Once the sweep has passed a node, its own VJP has run
and so have those of all its consumers, which lie later on the tape; the
sweep then drops the node's value and its VJP, and with the VJP the arrays
its closure captured. Only the leaves (``const`` and ``param``) and the
loss keep their values, so read any other value you need before the sweep.
A ``dense`` node without ``reduce`` whose every part has fewer rows than
its output (parts that cross) also records how to rebuild its value from
its parents' (``Tape.rebuilds``), and so does a ``sum_axis`` of a node that
records one. :meth:`Tape.release` is the one way a value leaves the tape
before the sweep reaches it: the forward pass may release such a value once
its last forward reader has run, and the sweep rebuilds it only while the
VJPs of the node and its consumers run. A released value is the shared empty
array :data:`RELEASED` (0 bytes), never None. ``Tape.value`` and ``Var.value``
rebuild a rebuildable value on demand while its parents hold theirs, and
raise ValueError for any other released value. So ``dense``'s VJP reads
its parts and output from the tape's value list when it runs instead of
capturing them, and no closure holds a ``Var`` or the ``Tape``: reference
counting alone frees what the sweep drops, as it frees a dropped tape.

Forward-only runs: ``Tape(record=False)`` keeps each node's op name and the
parameter bindings (``param_slots``) and nothing else, so ``len(tape)`` and
``tape.ops`` read as on a recording tape and ``values`` stays empty. Each
``Var`` holds its own value, so reference counting frees an interior value
once the model code drops its handle; no VJP, parent list or rebuild is
kept, and ``dense`` makes neither its reduced-relu mask nor its rebuild.
``backward`` and ``release`` raise ValueError. The model code runs the same
on both kinds of tape: inference (``pipeline.policy_forward``) and the
forward-only checks in :mod:`pinchbeam.verify` use this one, losses and
gradient checks a recording one.

Sums over a layer's output: a relu or identity layer whose output only feeds
a sum takes the sum into its ``dense`` node (``reduce``), which stores the
summed value and, for its VJP, a mask of the summed entries packed to 1 bit
per entry instead of the full-resolution output. The placement GNN sums its
other-waveguide branch over slots and its processor over the other users
this way, and takes its leave-one-out sums as total minus own inside the
weight fold (``placement_gnn.nested_pe_hidden``).

Weight folds: :func:`fold` pushes one node whose value numpy code computes
from its parents' values, with a written-out VJP. Both GNNs fold linear
layers that follow each other into the weights and the bias of one
``dense`` node this way, on weight-sized arrays (``placement_gnn`` and
``precoder_gnn``'s ``fold_weights`` and ``fold_bias``), so each fold is one
node, on a recording tape and on one that records nothing alike.

Per-node cost: ``_push`` converts a value only if it is not already a
float64 or complex128 ndarray, ``Var.value`` reads the value list directly
unless the entry is :data:`RELEASED`, and :func:`dense_preactivation` plans
how to add up its products once per tuple of part leading shapes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import SingularityError


# The value of every released node, checked by identity: an empty read-only
# array, so code that sums ``nbytes`` over a tape's values counts it as 0.
RELEASED = np.empty(0)
RELEASED.flags.writeable = False


_TAPE_DTYPES = (np.dtype(np.float64), np.dtype(np.complex128))


def _tape_array(value) -> np.ndarray:
    """``value`` as complex128 if it is complex, else as float64. An ndarray
    that already has one of these dtypes is returned as it is."""
    if type(value) is np.ndarray and value.dtype in _TAPE_DTYPES:
        return value
    return np.asarray(value, dtype=np.complex128 if np.iscomplexobj(value) else np.float64)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum an adjoint down to ``shape`` (reverse of numpy broadcasting); if
    nothing is summed, a read-only view of ``g`` (see the module docstring).
    ``g`` may be a numpy scalar, which arithmetic on 0-d operands returns."""
    g = np.asarray(g)
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    out = g.reshape(shape)
    if not axes and extra <= 0:
        out.flags.writeable = False
    return out


class Var:
    """Handle to one node of a tape."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> np.ndarray:
        v = self.tape.values[self.idx]
        return v if v is not RELEASED else self.tape.value(self.idx)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def ndim(self) -> int:
        return self.value.ndim

    def __repr__(self):
        v = self.tape.values[self.idx]
        return f"Var(idx={self.idx}, shape={'released' if v is RELEASED else v.shape})"


class _HeldVar(Var):
    """Node of a tape that records nothing. Its ``value`` slot shadows
    :attr:`Var.value`, so the value lives as long as the handle."""

    __slots__ = ("value",)

    def __init__(self, tape: "Tape", idx: int, value: np.ndarray):
        super().__init__(tape, idx)
        self.value = value

    def __repr__(self):
        return f"Var(idx={self.idx}, shape={self.value.shape})"


class Tape:
    """Append-only record of forward operations.

    Node i's inputs always precede it, so ``backward`` is a single reverse
    iteration over the node list (deterministic accumulation order).
    ``backward`` consumes the tape (module docstring). ``rebuilds`` maps
    the nodes whose value :meth:`release` may drop before the sweep reaches
    them to a function that recomputes it from the parents' values (read
    through the accessor it is passed); :meth:`value` reads a node's value.
    A released entry of ``values`` is :data:`RELEASED`.

    With ``record=False`` the tape is for forward-only runs (module
    docstring): ``ops`` and ``param_slots`` fill as on a recording tape,
    while ``values``, ``parents``, ``vjps``, ``meta`` and ``rebuilds`` stay
    empty and each node's :class:`Var` holds its own value.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self.values: list[np.ndarray] = []
        self.parents: list[tuple[int, ...]] = []
        self.vjps: list[Callable | None] = []
        self.ops: list[str] = []
        self.meta: list = []  # op-specific extras (e.g. clamp thresholds)
        self.param_slots: list[tuple[str, int]] = []  # (store name, node idx)
        self.rebuilds: dict[int, Callable] = {}

    def __len__(self) -> int:
        return len(self.ops)

    def value(self, i: int) -> np.ndarray:
        """Node i's value. A released one is rebuilt from its parents' values
        if the node records a rebuild, whether :meth:`release` or
        ``backward`` released it; reading any other released value raises
        ValueError (module docstring)."""
        v = self.values[i]
        if v is not RELEASED:
            return v
        if i in self.rebuilds:
            return self.rebuilds[i](self.value)
        raise self._released(i)

    def release(self, *nodes: Var) -> None:
        """Drop the values of ``nodes`` before the sweep, once no later
        forward op reads them. Each must record a rebuild, which ``backward``
        runs before the VJPs that read it; ValueError if one does not, so
        nothing is dropped that cannot be rebuilt."""
        self._check_records("release")
        for v in nodes:
            if v.idx not in self.rebuilds:
                raise ValueError(f"node {v.idx} ({self.ops[v.idx]}) records no rebuild")
        for v in nodes:
            self.values[v.idx] = RELEASED

    def _released(self, i: int) -> ValueError:
        return ValueError(f"node {i} ({self.ops[i]}) was released by a backward sweep")

    def _check_records(self, what: str) -> None:
        if not self.record:
            raise ValueError(f"cannot {what} on a tape that records nothing")

    def _push(self, value: np.ndarray, parents: tuple[int, ...],
              vjp: Callable | None, op: str, meta=None, rebuild=None) -> Var:
        idx = len(self.ops)
        self.ops.append(op)
        if not self.record:
            return _HeldVar(self, idx, _tape_array(value))
        self.values.append(_tape_array(value))
        self.parents.append(parents)
        self.vjps.append(vjp)
        self.meta.append(meta)
        if rebuild is not None:
            self.rebuilds[idx] = rebuild
        return Var(self, idx)

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

        The sweep consumes the tape. An interior node's adjoint is released
        as soon as its VJP has passed it to the parents, so the sweep never
        holds more than the adjoints still waiting to be propagated. Once
        the sweep has passed a node, every consumer of its value lies behind
        it, so it drops the node's value and VJP (and with the VJP the
        arrays its closure captured). Only the leaves (``parents == ()``)
        and ``loss`` keep their values. The returned list holds the leaf
        adjoints, and None for interior nodes and for leaves the loss does
        not reach. An adjoint that flows into a real node keeps only its
        real part, ``dL/dRe``. A second adjoint is added into a writable
        first one in place (module docstring).

        A value that :meth:`release` dropped in the forward pass is rebuilt
        before the first VJP of the node or of a consumer runs, and released
        again once the sweep has passed the node. A second
        ``backward`` on a swept tape raises ValueError, as does
        :meth:`value` of a released node that cannot be rebuilt.
        """
        self._check_records("run backward")
        if loss.tape is not self:
            raise ValueError("loss does not belong to this tape")
        if loss.value.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
        values, vjps = self.values, self.vjps
        grads: list[np.ndarray | None] = [None] * len(values)
        grads[loss.idx] = np.ones_like(loss.value)
        for i in range(loss.idx, -1, -1):
            parents, g, vjp = self.parents[i], grads[i], vjps[i]
            if not parents:
                continue
            if g is not None:
                if vjp is None:
                    raise self._released(i)
                grads[i] = None
                for j in (i, *parents):
                    if values[j] is RELEASED:
                        values[j] = self.value(j)
                for p, pg in zip(parents, vjp(g)):
                    if pg.dtype.kind == "c" and values[p].dtype.kind != "c":
                        pg = pg.real
                    if grads[p] is None:
                        grads[p] = pg
                    elif grads[p].flags.writeable:
                        grads[p] += pg
                    else:
                        grads[p] = grads[p] + pg
            vjps[i] = None
            if i != loss.idx:
                values[i] = RELEASED
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


def _fits(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    """Whether shape ``small`` broadcasts into ``big`` of the same length."""
    return all(m in (1, n) for m, n in zip(small, big))


@functools.lru_cache(maxsize=256)
def _sum_plan(leading: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...],
                                                            tuple[int | None, ...]]:
    """How :func:`dense_preactivation` adds up the products of parts with
    these leading shapes: the parts by product size, smallest first (ties in
    part order), and for each the first later one its product broadcasts
    into, or None if it starts a group of its own."""
    order = tuple(sorted(range(len(leading)), key=lambda i: math.prod(leading[i])))
    hosts = tuple(next((j for j in order[pos + 1:] if _fits(leading[i], leading[j])), None)
                  for pos, i in enumerate(order))
    return order, hosts


def dense_preactivation(xvs: Sequence[np.ndarray], blocks: Sequence[np.ndarray],
                        bv: np.ndarray) -> np.ndarray:
    """``concat(xvs, -1) @ W + b`` as :func:`dense` computes it, before its relu.

    Each part runs one 2-D GEMM against its row block of ``W``
    (:func:`row_blocks`). The bias goes into the product with the fewest
    rows; then, smallest first, each product is added in place into the
    next product it broadcasts into, and the products left are summed,
    largest first. So a full-resolution output is written by its GEMM and
    takes one add per other group of products, not one per part.
    ``dense`` and ``verify.kink_distance`` share this, so a relu's kink
    distance is measured on the exact values the node clamped.
    """
    n_out = blocks[0].shape[1]
    prods = [(xv.reshape(-1, wb.shape[0]) @ wb).reshape(xv.shape[:-1] + (n_out,))
             for xv, wb in zip(xvs, blocks)]
    order, hosts = _sum_plan(tuple(xv.shape[:-1] for xv in xvs))
    prods[order[0]] += bv
    groups = []
    for i, host in zip(order, hosts):
        if host is None:
            groups.append(prods[i])
        else:
            prods[host] += prods[i]
    y = groups.pop()
    if groups:  # parts that cross: their sum takes their broadcast shape
        y = np.broadcast_to(y, np.broadcast_shapes(y.shape, *(p.shape for p in groups))).copy()
        for p in reversed(groups):
            y += p
    return y


def dense(x: Var | Sequence[Var], w: Var, b: Var,
          relu: bool = False, reduce: int | tuple[int, int] | None = None) -> Var:
    """``act(concat(xs, -1) @ W + b)`` along the last axis as one node, summed
    if ``reduce`` says so.

    ``x`` is one Var or a sequence of parts whose leading shapes broadcast.
    Their concat is never built: each part multiplies its own row block of
    ``W`` at its own resolution and the products are broadcast-added
    (:func:`dense_preactivation`). ``act`` is relu or the identity. Leading
    axes are flattened, so every product and adjoint is one 2-D GEMM. The
    relu has subgradient 0 at the kink, like ``max_with_scalar``. The VJP
    sums the adjoint down to each part's resolution once, from the smallest
    sum already taken that covers it, takes the bias gradient from the
    smallest sum and drops each sum once the last part that reads it has
    taken its GEMMs; an unreduced relu masks a writable adjoint in place. A
    reduced relu owns its masked adjoint. Where that adjoint spans two or
    more row blocks of about 1 MiB, the VJP writes the adjoint of a
    full-resolution part as wide as the output back into it, in row
    blocks, once every sum and weight and bias gradient is taken.

    ``reduce`` sums the activation inside the node, so the full-resolution
    output is never stored. An int axis is summed over and kept with length
    1, as ``sum_axis(..., keepdims=True)``. A pair ``(axis1, axis2)`` is
    summed over ``axis2``, which is dropped, leaving out the entries whose
    indices on the two axes are equal (``sum_{j != k}``). The VJP
    of a reduced node keeps the mask of the entries that reach the sum,
    packed to 1 bit each (``np.packbits``), in place of the output; an
    unreduced relu takes its mask ``pre > 0`` from the output. The bias
    ``b`` is required. The node's meta is the relu flag, from which
    ``verify.kink_distance`` knows to recompute the pre-activation. Without
    ``reduce``, a node whose every part has fewer rows than its output
    records a rebuild from its parents, so ``Tape.release`` may release it
    (module docstring). On a tape that records nothing the node makes
    neither the mask nor the rebuild, since only the VJP reads them.
    """
    parts = as_parts(x)
    xvs, wv = [p.value for p in parts], w.value
    shapes = [v.shape for v in xvs]
    if len({len(s) for s in shapes}) != 1:
        raise ValueError(f"dense parts differ in ndim: {shapes}")
    if wv.ndim != 2 or not shapes[0] or sum(s[-1] for s in shapes) != wv.shape[0]:
        raise ValueError(f"dense needs (..., n) parts @ (n, m), got {shapes} @ {wv.shape}")
    n_out = wv.shape[1]
    if b.value.shape != (n_out,):
        raise ValueError(f"dense bias must have shape ({n_out},), got {b.value.shape}")
    blocks = row_blocks(xvs, wv)
    y = dense_preactivation(xvs, blocks, b.value)
    full = y.shape
    record = w.tape.record  # only the VJP reads the mask and the rebuild
    mask = y > 0.0 if relu and reduce is not None and record else None
    if relu:
        np.maximum(y, 0.0, out=y)
    if reduce is not None:
        if isinstance(reduce, int):
            axis, diag = reduce % len(full), None
            y = y.sum(axis=axis, keepdims=True)
        else:
            # The sum minus the diagonal, rounded as sub(sum_axis, diagonal).
            diag, axis, pos = _diagonal_axes(full, *reduce)
            if record:
                off = ~np.eye(full[axis], dtype=bool).reshape(
                    [n if i in (diag, axis) else 1 for i, n in enumerate(full)])
                mask = off if mask is None else np.logical_and(mask, off, out=mask)
            y = y.sum(axis=axis) - np.moveaxis(np.diagonal(y, axis1=diag, axis2=axis), -1, pos)
        if mask is not None:
            mask_shape, mask = mask.shape, np.packbits(mask.ravel())  # 1 bit per entry

    # Captures indices, flags and weight-sized arrays only. The parts and the
    # output are read from the value list when the VJP runs, so a value that
    # Tape.backward released is not held here; a Var would tie the tape into
    # a reference cycle and keep it alive until the cyclic collector runs.
    values, idx = w.tape.values, len(w.tape.values)
    part_idx = [p.idx for p in parts]

    def vjp(g):
        xvs = [values[i] for i in part_idx]
        if reduce is not None:
            g = np.broadcast_to(g if diag is None else np.expand_dims(g, axis), full)
            if mask is not None:
                # C order: the write-back below writes through g.reshape(-1,
                # n_out), which silently copies any other layout, and g, still
                # the masked adjoint, would be returned as the part's gradient.
                g = np.array(g, order="C")
                g *= np.unpackbits(mask, count=math.prod(mask_shape)).view(bool).reshape(
                    mask_shape)
        elif relu:
            g = np.multiply(g, values[idx] > 0.0, out=g if g.flags.writeable else None)
        # g summed down to each part's resolution, largest first; parts at
        # one resolution share the sum.
        res = [v.shape[:-1] + (n_out,) for v in xvs]
        sums = {g.shape: g}
        for shape in sorted(res, key=math.prod, reverse=True):
            if shape not in sums:
                src = min((s for s in sums if _fits(shape, s)), key=math.prod)
                sums[shape] = _unbroadcast(sums[src], shape)
        gb = min(sums.values(), key=np.size).reshape(-1, n_out).sum(axis=0)
        # A reduced node owns its masked g: where g spans two or more row
        # blocks of about 1 MiB, the adjoint of one full-resolution part as
        # wide as the output is written back into it, last. A one-block
        # adjoint is a fresh GEMM, which the write-back would only copy.
        own = None if mask is None or g.nbytes <= 2**20 else next(
            (k for k, xv in enumerate(xvs) if xv.shape == g.shape), None)
        # Each sum is dropped once the last part that reads it has taken
        # its GEMMs.
        last = {shape: k for k, shape in enumerate(res)}
        gxs, gws = [], []
        for k, (xv, wb) in enumerate(zip(xvs, blocks)):
            g2 = sums[res[k]].reshape(-1, n_out)
            gxs.append(None if k == own else (g2 @ wb.T).reshape(xv.shape))
            gws.append(xv.reshape(-1, wb.shape[0]).T @ g2)
            if last[res[k]] == k:
                del sums[res[k]], g2
        gw = gws[0] if len(gws) == 1 else np.concatenate(gws)
        if own is not None:
            # Row blocks of about 1 MiB, split evenly: blocks of a few rows
            # would switch BLAS kernels and round differently.
            wt = blocks[own].T
            for rows in np.array_split(g.reshape(-1, n_out), -(-g.nbytes // 2**20)):
                rows[...] = rows @ wt
            gxs[own] = g
        return (*gxs, gw, gb)

    rebuild = None
    if record and reduce is None and all(math.prod(s[:-1]) < math.prod(full[:-1])
                                         for s in shapes):
        # Every part is smaller than the output: Tape.release may release
        # the value and this rebuilds it from the parents, bit for bit.
        w_idx, b_idx = w.idx, b.idx

        def rebuild(get):
            xs = [get(i) for i in part_idx]
            out = dense_preactivation(xs, row_blocks(xs, get(w_idx)), get(b_idx))
            return np.maximum(out, 0.0, out=out) if relu else out

    return w.tape._push(y, (*part_idx, w.idx, b.idx), vjp, "dense", meta=relu,
                        rebuild=rebuild)


def fold(op: str, parents: Sequence[Var], fn: Callable) -> Var:
    """One node whose value ``fn`` computes from its parents' values.

    ``fn(*values)`` returns the value and its VJP, which maps the node's
    adjoint to one adjoint per parent. The model code folds the weights of
    linear layers that follow each other into the weights of one ``dense``
    node this way, on weight-sized arrays, with the VJP written out in
    numpy. Like every VJP, ``fn``'s captures arrays and numbers only, never a
    ``Var`` or the ``Tape`` (module docstring).
    """
    value, vjp = fn(*(p.value for p in parents))
    return parents[0].tape._push(value, tuple(p.idx for p in parents), vjp, op)


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


def _norm_axis(axis) -> tuple[int, ...]:
    return (axis,) if isinstance(axis, int) else tuple(axis)


def sum_axis(a: Var, axis, keepdims: bool = False) -> Var:
    """Sum over ``axis`` (an int or a tuple). A sum of a node that records a
    rebuild records one too, the same sum of the rebuilt value, so both can
    be released (module docstring)."""
    axes = _norm_axis(axis)
    shape = a.value.shape

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape),)

    rebuild = None
    if a.idx in a.tape.rebuilds:
        a_idx = a.idx

        def rebuild(get):
            return get(a_idx).sum(axis=axes, keepdims=keepdims)

    return a.tape._push(a.value.sum(axis=axes, keepdims=keepdims), (a.idx,), vjp,
                        "sum_axis", rebuild=rebuild)


def mean_axis(a: Var, axis) -> Var:
    axes = _norm_axis(axis)
    shape = a.value.shape
    count = 1
    for ax in axes:
        count *= shape[ax]

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g, axes) / count, shape),)

    return a.tape._push(a.value.mean(axis=axes), (a.idx,), vjp, "mean_axis")


def max_with_scalar(a: Var, s: float) -> Var:
    mask = a.value > s  # subgradient 0 at the kink

    def vjp(g):
        return (g * mask,)

    return a.tape._push(np.maximum(a.value, s), (a.idx,), vjp, "max_with_scalar",
                        meta=float(s))


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
    """Named float64 arrays, and their gradients once a sweep has made them.

    Iteration everywhere is lexicographic by name, which makes optimizer
    updates and serialization order deterministic. Entries added with
    ``trainable=False`` are frozen constants (serialized, never updated,
    skipped by gradient checks). A store holds values only until
    :func:`backward_into` fills ``grads``, one array per entry in ``values``
    order; inference never allocates them.
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
        if not trainable:
            self._frozen.add(name)

    def names(self) -> list[str]:
        return sorted(self.values)

    def trainable_names(self) -> list[str]:
        return [n for n in sorted(self.values) if n not in self._frozen]

    def n_parameters(self) -> int:
        return sum(v.size for v in self.values.values())

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
            if not all(type(v) in (int, float) for v in e["values"]):  # not "1.5", true
                raise TypeError(f"entry {e['name']} values must be numbers")
            store.add(e["name"], np.asarray(e["values"], dtype=np.float64)
                      .reshape(e["shape"]), trainable=e["name"] not in frozen)
        return store


def backward_into(store: ParameterStore, loss: Var) -> None:
    """Replace the store's gradients with d(loss)/d(theta).

    The previous gradients are dropped before the sweep. Each parameter's
    gradient is its leaf adjoint from :meth:`Tape.backward`, taken as it is
    when it is an owned, writable, C-contiguous float64 array (the sweep
    hands a writable adjoint to one node only) and copied otherwise. A
    parameter bound more than once receives the sum of its slot adjoints in
    ``param_slots`` order; one the loss does not reach gets exact zeros.
    ``grads`` keeps the order of ``values``.
    """
    store.grads = {}
    grads = loss.tape.backward(loss)
    acc: dict[str, np.ndarray] = {}
    for name, idx in loss.tape.param_slots:
        g = grads[idx]
        if g is None:
            continue
        if name in acc:
            acc[name] += g
        elif (g.dtype == np.float64 and g.flags.c_contiguous and g.flags.writeable
              and g.flags.owndata):
            acc[name] = g
        else:
            acc[name] = np.array(g, dtype=np.float64)
    store.grads = {name: acc[name] if name in acc else np.zeros_like(v)
                   for name, v in store.values.items()}


# ---------------------------------------------------------------------------
# fully-connected weights


def init_fnn(store: ParameterStore, prefix: str, widths: Sequence[int],
             rng: np.random.Generator) -> None:
    """Glorot-uniform weights, zero biases, named ``{prefix}.W{i}`` / ``.b{i}``:
    layer i maps width ``widths[i]`` to ``widths[i + 1]``."""
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        store.add(f"{prefix}.W{i}", rng.uniform(-lim, lim, size=(fan_in, fan_out)))
        store.add(f"{prefix}.b{i}", np.zeros(fan_out))


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


# Adam's moment decays and denominator floor (Kingma and Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(store: ParameterStore, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update from the gradients held in the store."""
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for name in store.trainable_names():
        g = store.grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        store.values[name] -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# gradient checking


# Central-difference step of grad_check.
GRAD_CHECK_EPS = 1e-5


def grad_check(fn: Callable[[ParameterStore], Var], store: ParameterStore) -> float:
    """Worst relative error of reverse-mode vs central finite differences.

    ``fn`` must build a fresh tape and return the scalar loss Var, reading
    every trainable parameter it uses through :meth:`Tape.param`. Each probe
    moves one coordinate by +-``GRAD_CHECK_EPS``. Relative error uses
    denominator max(|analytic|, |numeric|, 1e-12) per coordinate.
    Only the parameters the loss's tape binds are probed: the loss does not
    read the others, so their difference and their gradient are both
    exactly 0.
    """
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
            flat[i] = orig + GRAD_CHECK_EPS
            f_plus = float(fn(store).value)
            flat[i] = orig - GRAD_CHECK_EPS
            f_minus = float(fn(store).value)
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise ValueError(f"non-finite loss while probing {name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * GRAD_CHECK_EPS)
            a = analytic[name].ravel()[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            worst = max(worst, err)
    return worst
