"""Placement sub-GNN: user positions -> feasible antenna layout.

Edge-update network over (antenna slot, user) pairs. Each layer combines a
per-user message pass (the processor sees both endpoints, reflecting
inter-user interference) with update functions that are equivariant to
nested permutations: waveguides may be reordered, and antenna slots within a
waveguide may be reordered together with their index features.

Tensors carry shape (B, N, M, K, width): batch, waveguides, antenna slots per
waveguide, users, features. Constraints (minimum gap, region bounds) hold by
construction of the output stage, not by penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tape, Var
from .config import ModelConfig, SystemConfig

# Keeps the sigmoid placement fraction strictly inside (0, 1) so that derived
# positions stay inside [0, D] even after float rounding of the prefix sums.
_FRAC_EPS = 1e-9

# Temperature on the placement head. The SE carries phase terms that
# oscillate on the guide-wavelength scale of the antenna positions; early in
# training their gradients dominate the smooth path-loss signal and can walk
# the sigmoid into saturation before the power allocation settles (after
# which the placement landscape is phase-benign). Dividing the head output
# slows that subsystem without changing what it can express.
X1_TEMPERATURE = 8.0


def index_feature(n_waveguides: int, n_per_wg: int) -> np.ndarray:
    """(N, M) slot indices, 1..M on every waveguide."""
    return np.tile(np.arange(1, n_per_wg + 1, dtype=np.float64), (n_waveguides, 1))


def init_edges(tape: Tape, phi: np.ndarray, s: np.ndarray, cfg: SystemConfig) -> Var:
    """First-layer edge features [x_k/D, y_k/D, s/M], shape (B, N, M, K, 3),
    from user positions ``phi`` (B, K, 2).

    The user z-coordinate is identically zero and is dropped.
    """
    phi = np.asarray(phi, dtype=np.float64)
    b, k, _ = phi.shape
    n, m = s.shape
    feats = np.empty((b, n, m, k, 3))
    feats[..., 0] = phi[:, None, None, :, 0] / cfg.D
    feats[..., 1] = phi[:, None, None, :, 1] / cfg.D
    feats[..., 2] = (np.asarray(s, dtype=np.float64) / cfg.M)[None, :, :, None]
    return tape.constant(feats)


def layer_widths(in_width: int, model: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Widths (input first) of one layer's subnets at edge input width
    ``in_width``, in init order: update f = (ff, qf1, qf2), processor q =
    (fq, qq1, qq2), each a relu hidden layer and an identity output layer."""
    h, md = model.hidden, model.message_dim
    pair, comb = 2 * in_width, in_width + md
    return {"ff": (comb + 2 * md, h, h), "qf1": (comb, h, md), "qf2": (comb, h, md),
            "fq": (pair + 2 * md, h, md), "qq1": (pair, h, md), "qq2": (pair, h, md)}


def param_widths(model: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(parameter prefix, widths) of every subnet and head, in init order,
    one layer at a time."""
    width = 3
    for layer in range(1, model.pbf_layers + 1):
        for name, widths in layer_widths(width, model).items():
            yield f"pbf.layer{layer}.{name}", widths
        width = model.hidden
    for name in ("gap", "x1"):
        yield f"pbf.head.{name}", (model.hidden, 1)


def _output_layer(tape: Tape, store: ParameterStore, prefix: str, h: Var, count: int) -> Var:
    """A subnet's identity output layer applied to a sum of ``count`` hidden
    states: sum_i (r_i W + b) = (sum_i r_i) W + count * b."""
    w, b = tape.param(store, f"{prefix}.W1"), tape.param(store, f"{prefix}.b1")
    return ad.dense(h, w, b if count == 1 else ad.scalar_scale(b, count))


def _hidden(tape: Tape, store: ParameterStore, prefix: str, zs: list[Var],
            reduce: int | tuple[int, int] | None = None) -> Var:
    """A subnet's hidden state relu(z W0 + b0), summed as ``reduce`` says
    (:func:`ad.dense`). Parts ``zs`` narrower than the subnet's input read
    the leading rows of W0: the trailing input is an empty message that was
    skipped, whose rows would multiply exact zeros."""
    w0 = tape.param(store, f"{prefix}.W0")
    width = sum(p.shape[-1] for p in zs)
    if width < w0.shape[0]:
        w0 = ad.slice_axis(w0, 0, 0, width)
    return ad.dense(zs, w0, tape.param(store, f"{prefix}.b0"), relu=True, reduce=reduce)


def fold_weights(w0: Var, w_outs: Sequence[Var], width: int, rows: Sequence[int]) -> Var:
    """Main's folded first-layer weights ``[W0_z, -F_1, F_1, -F_2, F_2, ...]``
    as one node (:func:`nested_pe_hidden`).

    ``W0_z`` is the first ``width`` rows of main's ``W0``, and ``F_i =
    W_out_i W0_i``, where ``W_out_i`` is a branch's output weights and
    ``W0_i`` the rows of ``W0`` from ``rows[i]`` that read it. The value and
    the adjoints are bit for bit those of the slice, matmul, negation and
    concat nodes the fold stands for, as the sweep would run them: a
    branch's rows of the ``W0`` adjoint are added into zeros, as the sum of
    the slices' zero-padded adjoints adds them (which turns -0.0 into 0.0).
    """
    def fn(w0v, *wouts):
        w0_rows = [w0v[r:r + wo.shape[1]] for r, wo in zip(rows, wouts)]
        blocks = [w0v[:width]]
        for wo, wr in zip(wouts, w0_rows):
            f = wo @ wr
            blocks += [f * -1.0, f]

        def vjp(g):
            gw0 = np.zeros(w0v.shape)
            gw0[:width] = g[:width]
            gouts, start = [], width
            for r, wo, wr in zip(rows, wouts, w0_rows):
                h = wo.shape[0]
                gf = g[start + h:start + 2 * h] + g[start:start + h] * -1.0
                start += 2 * h
                gouts.append(gf @ wr.T)
                gw0[r:r + wr.shape[0]] += wo.T @ gf
            return (gw0, *gouts)

        return (np.concatenate(blocks) if wouts else blocks[0]), vjp

    return ad.fold("pbf_weight_fold", [w0, *w_outs], fn)


def fold_bias(b0: Var, w0: Var, b_outs: Sequence[Var], counts: Sequence[int],
              rows: Sequence[int]) -> Var:
    """Main's folded first-layer bias ``b0 + sum_i count_i b_out_i W0_i`` as
    one node (:func:`nested_pe_hidden`), with ``W0_i`` as in
    :func:`fold_weights`.

    The terms are added last branch first, each as the identity ``dense``
    of the count-scaled bias that it stands for, and the value and the
    adjoints are bit for bit those of those nodes. The adjoint of ``W0``
    holds the branches' rows and zeros elsewhere.
    """
    def fn(b0v, w0v, *bouts):
        scaled = [bo * float(c) for bo, c in zip(bouts, counts)]
        w0_rows = [w0v[r:r + bo.shape[0]] for r, bo in zip(rows, bouts)]
        b = b0v
        for sv, wr in zip(reversed(scaled), reversed(w0_rows)):
            b = (sv.reshape(1, -1) @ wr).reshape(-1) + b

        def vjp(g):
            gw0 = np.zeros(w0v.shape)
            gouts = []
            for r, c, sv, wr in zip(rows, counts, scaled, w0_rows):
                g2 = g.reshape(1, -1)
                gouts.append((g2 @ wr.T).reshape(-1) * float(c))
                gw0[r:r + wr.shape[0]] = sv.reshape(1, -1).T @ g2
                g = g2.sum(axis=0)
            return (g, gw0, *gouts)

        return b, vjp

    return ad.fold("pbf_bias_fold", [b0, w0, *b_outs], fn)


def nested_pe_hidden(tape: Tape, z: Var | list[Var], store: ParameterStore, prefix: str,
                     names: tuple[str, str, str],
                     reduce: int | tuple[int, int] | None = None) -> Var:
    """Hidden state of the main net of :func:`nested_pe_map`, summed as
    ``reduce`` says (:func:`ad.dense`).

    Every subnet has one hidden layer and an identity output layer
    (:func:`layer_widths`), and a linear layer commutes with a sum. So
    ``same`` and ``other`` run to their hidden states only, and their
    output layers are folded into main's first layer: with ``F = W_out
    W0_rows`` (the branch's output weights times the rows of main's W0 that
    read it), main adds ``(sum_{i != m} r_a) F_a`` and ``(sum_{j != n}
    sum_i r_b) F_b``. Each leave-one-out sum is taken as total minus own,
    ``(S r) F - r F``, so it is never built: main's first layer reads the
    parts ``[z, r_a, S_M r_a, s_b, S_N s_b]`` with row blocks ``[W0_z, -F_a,
    F_a, -F_b, F_b]``, where S is a keepdims sum over slots (M) or
    waveguides (N) and ``s_b = S_M r_b`` comes from ``other``'s dense node
    with the sum fused into it (r_b itself is never stored). The bias is
    ``b0 + (M-1) b_a W0_s + (N-1) M b_b W0_o``. The weights and the bias
    are one node each (:func:`fold_weights`, :func:`fold_bias`), computed
    from the stored parameters on weight-sized arrays.
    Besides main's hidden state, r_a is the only value stored at the
    resolution of ``z``'s broadcast. Where ``z``'s parts cross, as in the
    processor's pair, r_a's dense node is smaller in every part than in its
    output, so r_a and its slot sum record rebuilds: they are released as
    soon as main's dense node has read them (``Tape.release``), and the
    sweep rebuilds them for main's VJP.

    A branch whose index set is empty (``same`` at M = 1, ``other`` at
    N = 1) would add exact zeros, so it is not built: its parts, its row
    blocks and its bias term drop out, and its parameters never reach the
    tape (their gradients stay exactly zero); with neither branch, the bias
    is b0 itself. ``z`` may also lack a
    trailing empty part (:func:`pbf_layer` at K = 1); every first layer then
    reads the leading rows of its weights that the parts present cover.
    """
    main_name, same_name, other_name = names
    zs = ad.as_parts(z)
    n, m = np.broadcast_shapes(*(p.shape[:-1] for p in zs))[1:3]
    hidden = {}  # own and total hidden state of each branch with a non-empty index set
    # other goes on the tape first, so the reverse sweep reaches r_a right
    # after main and frees r_a's rebuilt value and adjoint before s_b's VJP.
    # At B=8, (8,3,8) the step's traced peak is then 44.1 MB, set inside
    # layer 3's processor main VJP, instead of 48.6 MB with same first.
    if n > 1:
        s_b = _hidden(tape, store, f"{prefix}.{other_name}", zs, 2)
        hidden[other_name] = [s_b, ad.sum_axis(s_b, 1, keepdims=True)]
    if m > 1:
        r_a = _hidden(tape, store, f"{prefix}.{same_name}", zs)
        hidden[same_name] = [r_a, ad.sum_axis(r_a, 2, keepdims=True)]
    branches = [name for name in (same_name, other_name) if name in hidden]
    md = store.values[f"{prefix}.{same_name}.W1"].shape[1]
    zw = store.values[f"{prefix}.{main_name}.W0"].shape[0] - 2 * md
    rows = [zw if name == same_name else zw + md for name in branches]
    outs = [(tape.param(store, f"{prefix}.{name}.W1"), tape.param(store, f"{prefix}.{name}.b1"))
            for name in branches]
    w0 = tape.param(store, f"{prefix}.{main_name}.W0")
    b = tape.param(store, f"{prefix}.{main_name}.b0")
    w = fold_weights(w0, [o[0] for o in outs], sum(p.shape[-1] for p in zs), rows)
    if branches:
        counts = {same_name: m - 1, other_name: (n - 1) * m}
        b = fold_bias(b, w0, [o[1] for o in outs], [counts[name] for name in branches], rows)
    h = ad.dense(zs + [p for name in branches for p in hidden[name]], w, b, relu=True,
                 reduce=reduce)
    # Main was r_a's last forward reader: where r_a can be rebuilt, it and
    # its slot sum go now, and the sweep rebuilds them for main's VJP.
    if same_name in hidden and hidden[same_name][0].idx in tape.rebuilds:
        tape.release(*hidden[same_name])
    return h


def nested_pe_map(tape: Tape, z: Var | list[Var], store: ParameterStore, prefix: str,
                  names: tuple[str, str, str]) -> Var:
    """Row map equivariant to nested (waveguide, within-waveguide) permutations.

    ``z`` is one Var or a list of parts, read as their broadcast concat along
    the last axis; each has shape (B, N, M, R..., d) with any number of free
    replication axes R. Output row (n, m) is main([z_nm, sum_{i != m}
    same(z_ni), sum_{j != n} sum_i other(z_ji)]); an empty index set would
    contribute exact zeros, so its branch is not built. The waveguide context
    stays at (B, N, 1, R...) resolution.
    The output layers of ``same`` and ``other`` are folded into main's first
    layer (:func:`nested_pe_hidden`), so they never run at row resolution.
    """
    h = nested_pe_hidden(tape, z, store, prefix, names)
    return _output_layer(tape, store, f"{prefix}.{names[0]}", h, 1)


def pbf_layer(tape: Tape, d: Var, store: ParameterStore, prefix: str) -> Var:
    """One edge-update layer: d (B, N, M, K, w) -> (B, N, M, K, hidden).

    The message of user k is sum_{j != k} q(d_k, d_j) with the processor q
    of (fq, qq1, qq2); the update is the nested map of (ff, qf1, qf2) over
    [d, message]. The processor sees the pair (d_k, d_j) as two parts at K
    resolution, (B, N, M, K, 1, w) and (B, N, M, 1, K, w), so the K x K pair
    tensor of their concat is never built. ``fq``'s identity output layer
    runs after the sum over j: the off-diagonal sum is taken over its hidden
    state r_q inside r_q's dense node (``reduce=(3, 4)``), which stores only
    the sum, and the layer then applies at K resolution with bias (K-1) b.
    With the folds of :func:`nested_pe_hidden`, the only value a layer
    computes at pair resolution (B N M K^2 rows) is qq1's hidden state, at
    M > 1 only, and the tape holds it only until main has read it.

    At K = 1 the message is an empty sum, so the processor is not built and
    the update reads d alone through the leading rows of its first-layer
    weights. The widths come from the stored weights.
    """
    bsz, n, m, k, w = d.shape
    z = [d]
    if k > 1:
        pair = [ad.reshape(d, (bsz, n, m, k, 1, w)), ad.reshape(d, (bsz, n, m, 1, k, w))]
        msg_h = nested_pe_hidden(tape, pair, store, prefix, ("fq", "qq1", "qq2"), (3, 4))
        z.append(_output_layer(tape, store, f"{prefix}.fq", msg_h, k - 1))
    return nested_pe_map(tape, z, store, prefix, ("ff", "qf1", "qf2"))


def output_actions(tape: Tape, d_last: Var, store: ParameterStore,
                   cfg: SystemConfig, s: np.ndarray) -> tuple[Var, Var]:
    """Heads + feasibility stage: final edge states -> per-slot actions.

    Returns (first_x (B, N), gap_slots (B, N, M)). The gap of slot (n, m) is
    max(mean over users of the gap head, 0) + min_gap; slot gaps whose index
    feature is >= 2 form the waveguide span. Spans exceeding the region budget
    are shrunk uniformly toward min_gap (largest feasible factor), and the
    first-antenna position takes a sigmoid fraction of the remaining room, so
    every emitted layout is feasible by construction.
    """
    gap_edge = ad.dense(d_last, tape.param(store, "pbf.head.gap.W0"),
                        tape.param(store, "pbf.head.gap.b0"))
    gap_mean = ad.mean_axis(ad.reshape(gap_edge, d_last.shape[:-1]), -1)
    gap_slots = ad.add(ad.max_with_scalar(gap_mean, 0.0), cfg.min_gap_m)

    x1_edge = ad.dense(d_last, tape.param(store, "pbf.head.x1.W0"),
                       tape.param(store, "pbf.head.x1.b0"))
    x1_units = ad.mean_axis(ad.reshape(x1_edge, d_last.shape[:-1]), (-2, -1))

    n_gaps = cfg.M - 1
    cap = cfg.excess_cap  # > 0: SystemConfig rejects a config without room
    mask = tape.constant((np.asarray(s, dtype=np.float64) >= 2.0).astype(np.float64))
    excess = ad.sub(ad.sum_axis(ad.mul(gap_slots, mask), -1), n_gaps * cfg.min_gap_m)
    rho = ad.div(cap, ad.max_with_scalar(excess, cap))
    rho = ad.reshape(rho, rho.shape + (1,))
    gap_slots = ad.add(ad.mul(rho, ad.sub(gap_slots, cfg.min_gap_m)), cfg.min_gap_m)
    span = ad.sum_axis(ad.mul(gap_slots, mask), -1)

    frac = ad.add(ad.scalar_scale(
        ad.sigmoid(ad.scalar_scale(x1_units, 1.0 / X1_TEMPERATURE)),
        1.0 - 2.0 * _FRAC_EPS), _FRAC_EPS)
    first_x = ad.mul(frac, ad.sub(cfg.D, span))
    return first_x, gap_slots


def pbf_actions(tape: Tape, phi: np.ndarray, s: np.ndarray, store: ParameterStore,
                cfg: SystemConfig, model: ModelConfig) -> tuple[Var, Var]:
    """Full action map (phi, s) -> (first_x, per-slot gaps).

    This is the surface on which the permutation property is stated: permuting
    users leaves the actions unchanged, permuting waveguide blocks (and their
    index features) permutes actions identically, and permuting index features
    within a waveguide permutes that waveguide's gap slots.
    """
    d = init_edges(tape, phi, s, cfg)
    for layer in range(1, model.pbf_layers + 1):
        d = pbf_layer(tape, d, store, f"pbf.layer{layer}")
    return output_actions(tape, d, store, cfg, s)


@dataclass(frozen=True)
class PbfOut:
    """Differentiable layout: handles stay on the tape."""

    first_x: Var     # (B, N)
    gaps: Var        # (B, N, M-1)
    positions_x: Var  # (B, N, M)


def pbf_forward(tape: Tape, phi: np.ndarray, store: ParameterStore,
                cfg: SystemConfig, model: ModelConfig) -> PbfOut:
    """Layout in canonical slot order (index feature 1..M per waveguide)."""
    s = index_feature(cfg.N, cfg.M)
    first_x, gap_slots = pbf_actions(tape, phi, s, store, cfg, model)
    gaps = ad.slice_axis(gap_slots, -1, 1, cfg.M)
    csum = ad.matmul(gaps, tape.constant(np.triu(np.ones((cfg.M - 1, cfg.M - 1)))))
    zeros = tape.constant(np.zeros(gaps.shape[:-1] + (1,)))
    offsets = ad.concat([zeros, csum], axis=-1)
    positions_x = ad.add(ad.reshape(first_x, first_x.shape + (1,)), offsets)
    return PbfOut(first_x, gaps, positions_x)
