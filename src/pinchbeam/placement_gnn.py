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

import numpy as np

from . import autodiff as ad
from .autodiff import FnnSpec, ParameterStore, Tape, Var, fnn_forward, init_fnn
from .config import ModelConfig, SystemConfig
from .errors import InvalidConfigError

# f is composed of (ff, qf1, qf2); the processor q of (fq, qq1, qq2).
SUBNET_NAMES = ("ff", "qf1", "qf2", "fq", "qq1", "qq2")

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

# Fraction of the region length reserved by the span projection.
SPAN_MARGIN_FRACTION = 1e-3


def index_feature(n_waveguides: int, n_per_wg: int) -> np.ndarray:
    """(N, M) slot indices, 1..M on every waveguide."""
    return np.tile(np.arange(1, n_per_wg + 1, dtype=np.float64), (n_waveguides, 1))


def init_edges(tape: Tape, phi: np.ndarray, s: np.ndarray, cfg: SystemConfig) -> Var:
    """First-layer edge features [x_k/D, y_k/D, s/M], shape (B, N, M, K, 3).

    The user z-coordinate is identically zero and is dropped.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim == 2:
        phi = phi[None]
    b, k, _ = phi.shape
    n, m = s.shape
    feats = np.empty((b, n, m, k, 3))
    feats[..., 0] = phi[:, None, None, :, 0] / cfg.D
    feats[..., 1] = phi[:, None, None, :, 1] / cfg.D
    feats[..., 2] = (np.asarray(s, dtype=np.float64) / cfg.M)[None, :, :, None]
    return tape.constant(feats)


def layer_specs(in_width: int, model: ModelConfig) -> dict[str, FnnSpec]:
    """Subnet widths for one layer whose edge input width is ``in_width``."""
    h, md, act = model.hidden, model.message_dim, model.activation
    pair = 2 * in_width
    comb = in_width + md
    return {
        "qq1": FnnSpec((pair, h, md), act),
        "qq2": FnnSpec((pair, h, md), act),
        "fq": FnnSpec((pair + 2 * md, h, md), act),
        "qf1": FnnSpec((comb, h, md), act),
        "qf2": FnnSpec((comb, h, md), act),
        "ff": FnnSpec((comb + 2 * md, h, h), act),
    }


HEAD_NAMES = ("gap", "x1")


def head_spec(model: ModelConfig) -> FnnSpec:
    return FnnSpec((model.hidden, 1))


def init_params(store: ParameterStore, cfg: SystemConfig, model: ModelConfig,
                rng: np.random.Generator) -> None:
    width = 3
    for layer in range(1, model.pbf_layers + 1):
        specs = layer_specs(width, model)
        for name in SUBNET_NAMES:
            init_fnn(store, f"pbf.layer{layer}.{name}", specs[name], rng)
        width = model.hidden
    for name in HEAD_NAMES:
        init_fnn(store, f"pbf.head.{name}", head_spec(model), rng)


def _output_params(tape: Tape, spec: FnnSpec, store: ParameterStore,
                   prefix: str) -> tuple[Var, Var]:
    last = spec.n_layers - 1
    return tape.param(store, f"{prefix}.W{last}"), tape.param(store, f"{prefix}.b{last}")


def _output_layer(tape: Tape, spec: FnnSpec, store: ParameterStore, prefix: str,
                  h: Var, count: int) -> Var:
    """A subnet's identity output layer applied to a sum of ``count`` hidden
    states: sum_i (r_i W + b) = (sum_i r_i) W + count * b."""
    w, b = _output_params(tape, spec, store, prefix)
    return ad.dense(h, w, b if count == 1 else ad.scalar_scale(b, count))


def _hidden(tape: Tape, spec: FnnSpec, store: ParameterStore, prefix: str,
            zs: list[Var], reduce: int | tuple[int, int] | None = None) -> Var:
    """A subnet's hidden state act(z W0 + b0), summed as ``reduce`` says
    (:func:`ad.fnn_layer`). Parts ``zs`` narrower than the subnet's input
    read the leading rows of W0: the trailing input is an empty message that
    was skipped, whose rows would multiply exact zeros."""
    w0 = tape.param(store, f"{prefix}.W0")
    width = sum(p.shape[-1] for p in zs)
    if width < w0.shape[0]:
        w0 = ad.slice_axis(w0, 0, 0, width)
    return ad.fnn_layer(zs, w0, tape.param(store, f"{prefix}.b0"), spec.activation,
                        reduce)


def nested_pe_hidden(tape: Tape, z: Var | list[Var], store: ParameterStore, prefix: str,
                     names: tuple[str, str, str], specs: dict[str, FnnSpec],
                     reduce: int | tuple[int, int] | None = None) -> Var:
    """Hidden state of the main net of :func:`nested_pe_map`, summed as
    ``reduce`` says (:func:`ad.dense`).

    Every subnet has one hidden layer and an identity output layer
    (:func:`layer_specs`), and a linear layer commutes with a sum. So
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
    ``b0 + (M-1) b_a W0_s + (N-1) M b_b W0_o``. The fold is computed on the
    tape from the stored parameters and touches only weight-sized arrays.
    Besides main's hidden state, r_a is the only value stored at the
    resolution of ``z``'s broadcast.

    A branch whose index set is empty (``same`` at M = 1, ``other`` at
    N = 1) would add exact zeros, so it is not built: its parts, its row
    blocks and its bias term drop out, and its parameters never reach the
    tape (their gradients stay exactly zero). ``z`` may also lack a
    trailing empty part (:func:`pbf_layer` at K = 1); every first layer then
    reads the leading rows of its weights that the parts present cover.
    """
    main_name, same_name, other_name = names
    zs = ad.as_parts(z)
    n, m = np.broadcast_shapes(*(p.shape[:-1] for p in zs))[1:3]
    parts = {}  # own and total hidden state of each branch with a non-empty index set
    if m > 1:
        r_a = _hidden(tape, specs[same_name], store, f"{prefix}.{same_name}", zs)
        parts[same_name] = [r_a, ad.sum_axis(r_a, 2, keepdims=True)]
    if n > 1:
        s_b = _hidden(tape, specs[other_name], store, f"{prefix}.{other_name}", zs, 2)
        parts[other_name] = [s_b, ad.sum_axis(s_b, 1, keepdims=True)]
    counts = {same_name: m - 1, other_name: (n - 1) * m}

    outs = {name: _output_params(tape, specs[name], store, f"{prefix}.{name}")
            for name in parts}
    w0 = tape.param(store, f"{prefix}.{main_name}.W0")
    b0 = tape.param(store, f"{prefix}.{main_name}.b0")
    md = specs[same_name].widths[-1]
    zw = w0.shape[0] - 2 * md
    first_row = {same_name: zw, other_name: zw + md}
    w0_rows = {name: ad.slice_axis(w0, 0, first_row[name], first_row[name] + md)
               for name in parts}
    blocks = [ad.slice_axis(w0, 0, 0, sum(p.shape[-1] for p in zs))]
    for name in parts:
        fold = ad.matmul(outs[name][0], w0_rows[name])
        blocks += [ad.scalar_scale(fold, -1.0), fold]
    w = ad.concat(blocks, axis=0) if parts else blocks[0]
    scaled = {name: ad.scalar_scale(outs[name][1], counts[name]) for name in parts}
    b = b0
    for name in reversed(parts):
        b = ad.dense(scaled[name], w0_rows[name], b)
    return ad.fnn_layer(zs + [p for pair in parts.values() for p in pair], w, b,
                        specs[main_name].activation, reduce)


def nested_pe_map(tape: Tape, z: Var | list[Var], store: ParameterStore, prefix: str,
                  names: tuple[str, str, str], specs: dict[str, FnnSpec]) -> Var:
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
    h = nested_pe_hidden(tape, z, store, prefix, names, specs)
    return _output_layer(tape, specs[names[0]], store, f"{prefix}.{names[0]}", h, 1)


def pbf_layer(tape: Tape, d: Var, store: ParameterStore, prefix: str,
              in_width: int, model: ModelConfig) -> Var:
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
    stores at pair resolution (B N M K^2 rows) is qq1's hidden state, and
    at M > 1 only. At K = 1 the message is an empty sum, so the processor
    is not built and the update reads d alone through the leading rows of
    its first-layer weights.
    """
    specs = layer_specs(in_width, model)
    bsz, n, m, k, w = d.shape
    z = [d]
    if k > 1:
        pair = [ad.reshape(d, (bsz, n, m, k, 1, w)), ad.reshape(d, (bsz, n, m, 1, k, w))]
        msg_h = nested_pe_hidden(tape, pair, store, prefix, ("fq", "qq1", "qq2"), specs,
                                 (3, 4))
        z.append(_output_layer(tape, specs["fq"], store, f"{prefix}.fq", msg_h, k - 1))
    return nested_pe_map(tape, z, store, prefix, ("ff", "qf1", "qf2"), specs)


def _edge_stack(tape: Tape, phi: np.ndarray, s: np.ndarray, store: ParameterStore,
                cfg: SystemConfig, model: ModelConfig) -> Var:
    d = init_edges(tape, phi, s, cfg)
    width = 3
    for layer in range(1, model.pbf_layers + 1):
        d = pbf_layer(tape, d, store, f"pbf.layer{layer}", width, model)
        width = model.hidden
    return d


def output_actions(tape: Tape, d_last: Var, store: ParameterStore,
                   cfg: SystemConfig, model: ModelConfig, s: np.ndarray) -> tuple[Var, Var]:
    """Heads + feasibility stage: final edge states -> per-slot actions.

    Returns (first_x (B, N), gap_slots (B, N, M)). The gap of slot (n, m) is
    max(mean over users of the gap head, 0) + min_gap; slot gaps whose index
    feature is >= 2 form the waveguide span. Spans exceeding the region budget
    are shrunk uniformly toward min_gap (largest feasible factor), and the
    first-antenna position takes a sigmoid fraction of the remaining room, so
    every emitted layout is feasible by construction.
    """
    spec = head_spec(model)
    gap_edge = fnn_forward(tape, spec, store, "pbf.head.gap", d_last)
    gap_mean = ad.mean_axis(ad.reshape(gap_edge, d_last.shape[:-1]), -1)
    gap_slots = ad.add(ad.max_with_scalar(gap_mean, 0.0), cfg.min_gap_m)

    x1_edge = fnn_forward(tape, spec, store, "pbf.head.x1", d_last)
    x1_units = ad.mean_axis(ad.reshape(x1_edge, d_last.shape[:-1]), (-2, -1))

    n_gaps = cfg.M - 1
    margin = SPAN_MARGIN_FRACTION * cfg.D
    cap = (cfg.D - margin) - n_gaps * cfg.min_gap_m
    if cap <= 0:
        raise InvalidConfigError(
            f"(M-1)*min_gap = {n_gaps * cfg.min_gap_m:.4g} m leaves no placement room")
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
    d = _edge_stack(tape, phi, s, store, cfg, model)
    return output_actions(tape, d, store, cfg, model, s)


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
    if cfg.M > 1:
        csum = ad.matmul(gaps, tape.constant(np.triu(np.ones((cfg.M - 1, cfg.M - 1)))))
        zeros = tape.constant(np.zeros(gaps.shape[:-1] + (1,)))
        offsets = ad.concat([zeros, csum], axis=-1)
    else:
        offsets = tape.constant(np.zeros(first_x.shape + (1,)))
    positions_x = ad.add(ad.reshape(first_x, first_x.shape + (1,)), offsets)
    return PbfOut(first_x, gaps, positions_x)
