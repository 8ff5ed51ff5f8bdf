"""Precoding sub-GNN: effective channel -> power allocations -> precoder.

Learns 2K scalars (downlink powers p, uplink powers lambda) over a waveguide
by user edge graph, then recovers the precoding matrix through its known
optimal structure W = H (Lambda H^H H + noise I)^{-1} P^{1/2} and rescales to
the exact power budget. Edge states have shape (B, N, K, width).

Unlike the placement network, the per-user message here depends only on the
sending user's edges, and the inner update functions are plain linear maps
(the combiner's main map carries the only nonlinearity), equivariant to
waveguide permutations. A layer is therefore the exchangeable-matrix layer
of Hartford et al., "Deep Models of Interactions Across Sets" (ICML 2018),
relu(d A + S_N d B + S_K d C + S_NK d D + beta) with sums S over waveguides
and users, and it runs as one ``dense`` node whose weights and bias are
folded from the stored subnet weights (:func:`tbf_layer`).
"""

from __future__ import annotations

import functools
from dataclasses import replace
from typing import Iterator

import numpy as np

from . import autodiff as ad
from . import cplx as cx
from .autodiff import ParameterStore, Tape, Var
from .config import ModelConfig, SystemConfig
from .errors import DegenerateInputError, InvalidConfigError
from .physics import (build_pinching_matrix, compute_channel, effective_channel,
                      random_scenarios)

# Seed of the frozen input-scale estimate (stored in every checkpoint).
INPUT_SCALE_SEED = 20260401
INPUT_SCALE_SAMPLES = 1000
# Draws per pass through the physics oracle; bounds the estimate's temporaries.
INPUT_SCALE_CHUNK = 64

# Additive floor under the softplus power head. Training gladly starves the
# weaker user toward zero power, where sqrt(p) has an unbounded derivative;
# the floor keeps that path smooth at a negligible allocation distortion.
POWER_FLOOR = 1e-8


def layer_widths(in_width: int, model: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Widths (input first) of one layer's single-layer subnets at edge input
    width ``in_width``, in init order (:func:`tbf_layer`)."""
    md = model.message_dim
    return {"ff": (in_width + 2 * md, model.hidden), "qf": (in_width + md, md),
            "fq": (in_width + md, md), "qq": (in_width, md)}


def param_widths(model: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(parameter prefix, widths) of every subnet and head, in init order,
    one layer at a time."""
    width = 2
    for layer in range(1, model.tbf_layers + 1):
        for name, widths in layer_widths(width, model).items():
            yield f"tbf.layer{layer}.{name}", widths
        width = model.hidden
    for name in ("p", "lambda"):
        yield f"tbf.head.{name}", (model.hidden, 1)


@functools.lru_cache(maxsize=16)
def _input_scale_cached(cfg: SystemConfig, path_const_override_m2: float | None) -> float:
    # The override is compare=False, so cfg's hash leaves it out: it is
    # passed again only to key the cache.
    rng = np.random.default_rng(INPUT_SCALE_SEED)
    # Re and Im of each draw in turn: the element order fixes the float sums.
    parts = np.empty((INPUT_SCALE_SAMPLES, 2, cfg.N, cfg.K))
    for start in range(0, INPUT_SCALE_SAMPLES, INPUT_SCALE_CHUNK):
        chunk = parts[start:start + INPUT_SCALE_CHUNK]
        users, layout = random_scenarios(rng, cfg, len(chunk))
        h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
        ht = effective_channel(h, build_pinching_matrix(layout, cfg.guide_wavelength))
        chunk[:, 0] = ht.real
        chunk[:, 1] = ht.imag
    return float(np.std(parts))


def input_scale(cfg: SystemConfig) -> float:
    """Empirical std of effective-channel entries at this geometry.

    Computed once from a fixed-seed Monte-Carlo draw of
    ``INPUT_SCALE_SAMPLES`` scenarios and frozen into the checkpoint; the
    power budget does not enter. The draws go through the physics oracle
    ``INPUT_SCALE_CHUNK`` at a time from one generator, which draws the
    same stream as one pass, so the value does not depend on the chunk.
    """
    return _input_scale_cached(replace(cfg, power_budget_w=1.0, noise_power_w=1.0),
                               cfg.path_const_override_m2)


def tbf_init_edges(tape: Tape, ht: Var, scale: float) -> Var:
    """Edge features [Re, Im]/scale, shape (B, N, K, 2)."""
    return ad.scalar_scale(cx.real_imag(ht), 1.0 / scale)


def _blocks(w: int, w_fq: np.ndarray, w_qf: np.ndarray, w_ff: np.ndarray):
    """Row blocks ``(F_d, F_c), (R_d, R_m), (G_d, G_m, G_c)`` of fq, qf and ff's
    W0 at input width ``w`` (views)."""
    md = w_fq.shape[1]
    return ((w_fq[:w], w_fq[w:]), (w_qf[:w], w_qf[w:]),
            (w_ff[:w], w_ff[w:w + md], w_ff[w + md:]))


def fold_weights(qq: Var, fq: Var, qf: Var, ff: Var, n: int) -> Var:
    """The row blocks ``[A; B; C; D]`` of a :func:`tbf_layer` node as one node.

    ``qq``, ``fq``, ``qf`` and ``ff`` are the subnets' W0. With row blocks
    ``fq = [F_d; F_c]``, ``qf = [R_d; R_m]``, ``ff = [G_d; G_m; G_c]``,
    ``P = W_qq F_c`` and ``U = R_m G_c``::

        A = G_d - F_d G_m + P G_m - R_d G_c + F_d U - P U
        B = -P G_m + R_d G_c - F_d U - (N-2) P U
        C = F_d G_m - P G_m - F_d U + P U
        D = P G_m + F_d U + (N-2) P U

    computed as ``E = F_d - P``, ``C = E (G_m - U)``, ``D = P (G_m + (N-1)
    U) + E U``, ``A = G_d - C - R_d G_c`` and ``B = R_d G_c - D``.
    """
    def fn(w_qq, w_fq, w_qf, w_ff):
        (f_d, f_c), (r_d, r_m), (g_d, g_m, g_c) = _blocks(w_qq.shape[0], w_fq, w_qf, w_ff)
        p, u = w_qq @ f_c, r_m @ g_c
        e, v, q = f_d - p, g_m - u, g_m + (n - 1) * u
        rg, c = r_d @ g_c, e @ v
        d = p @ q + e @ u

        def vjp(g):
            ga, gb, gc, gd = np.split(g, 4)
            gc, grg, gd = gc - ga, gb - ga, gd - gb
            ge = gc @ v.T + gd @ u.T
            gv, gq = e.T @ gc, p.T @ gd
            gp = gd @ q.T - ge
            gu = e.T @ gd - gv + (n - 1) * gq
            return (gp @ f_c.T,
                    np.concatenate([ge, w_qq.T @ gp]),
                    np.concatenate([grg @ g_c.T, gu @ g_c.T]),
                    np.concatenate([ga, gv + gq, r_d.T @ grg + r_m.T @ gu]))

        return np.concatenate([g_d - c - rg, rg - d, c, d]), vjp

    return ad.fold("tbf_weight_fold", [qq, fq, qf, ff], fn)


def fold_bias(b_qq: Var, b_fq: Var, b_qf: Var, b_ff: Var, fq: Var, qf: Var, ff: Var,
              n: int, k: int) -> Var:
    """The bias of a :func:`tbf_layer` node as one node::

        beta = (K-1) c G_m + (N-1) ((K-1) c R_m + b_qf) G_c + b_ff,
        c = (N-1) b_qq F_c + b_fq

    with the row blocks of :func:`fold_weights`; ``fq``, ``qf`` and ``ff``
    are the subnets' W0, whose rows that read ``d`` get zero adjoints.
    """
    def fn(bv_qq, bv_fq, bv_qf, bv_ff, w_fq, w_qf, w_ff):
        w = w_fq.shape[0] - bv_qq.shape[0]
        (_, f_c), (_, r_m), (_, g_m, g_c) = _blocks(w, w_fq, w_qf, w_ff)
        c = (n - 1) * (bv_qq @ f_c) + bv_fq
        e = (k - 1) * (c @ r_m) + bv_qf

        def vjp(g):
            ge = (n - 1) * (g @ g_c.T)
            gc = (k - 1) * (g @ g_m.T + ge @ r_m.T)
            grads = [np.zeros(w_fq.shape), np.zeros(w_qf.shape), np.zeros(w_ff.shape)]
            grads[0][w:] = (n - 1) * np.outer(bv_qq, gc)
            grads[1][w:] = (k - 1) * np.outer(c, ge)
            grads[2][w:] = np.concatenate([(k - 1) * np.outer(c, g),
                                           (n - 1) * np.outer(e, g)])
            return ((n - 1) * (gc @ f_c.T), gc, ge, g, *grads)

        return (k - 1) * (c @ g_m) + (n - 1) * (e @ g_c) + bv_ff, vjp

    return ad.fold("tbf_bias_fold", [b_qq, b_fq, b_qf, b_ff, fq, qf, ff], fn)


def tbf_layer(tape: Tape, d: Var, store: ParameterStore, prefix: str) -> Var:
    """One edge-update layer: d (B, N, K, w) -> (B, N, K, hidden).

    The layer composes the four subnets (all linear but ``ff``'s relu):
    ``q = fq([d, S'_N qq(d)])``, the message ``S'_K q`` and ``ff([d,
    message, S'_N qf([d, message])])``, where ``S'`` is a leave-one-out sum
    over waveguides (N, axis 1) or users (K, axis 2). Expanded, that is the
    exchangeable layer ``relu(d A + S_N d B + S_K d C + S_NK d D + beta)``
    with keepdims sums S, so it runs as one ``dense`` node over the parts
    ``[d, S_N d, S_K d, S_NK d]``, whose weights and bias are folded from
    the stored ones (:func:`fold_weights`, :func:`fold_bias`). The widths
    are implied by the stored weights.
    """
    _, n, k, _ = d.shape
    w = {name: tape.param(store, f"{prefix}.{name}.W0") for name in ("ff", "qf", "fq", "qq")}
    b = [tape.param(store, f"{prefix}.{name}.b0") for name in ("qq", "fq", "qf", "ff")]
    s_n = ad.sum_axis(d, 1, keepdims=True)
    parts = [d, s_n, ad.sum_axis(d, 2, keepdims=True), ad.sum_axis(s_n, 2, keepdims=True)]
    return ad.dense(parts, fold_weights(w["qq"], w["fq"], w["qf"], w["ff"], n),
                    fold_bias(*b, w["fq"], w["qf"], w["ff"], n, k), relu=True)


def output_powers(tape: Tape, d_last: Var, store: ParameterStore,
                  p_max: float) -> tuple[Var, Var]:
    """Pool over waveguides, head + softplus; p rescaled to sum to p_max.

    Returns (p, lam), each (B, K) and strictly positive. The rescaling of p is
    a conditioning choice only: the final precoder is power-normalized anyway.
    """
    pooled = ad.mean_axis(d_last, -3)
    p_head = ad.dense(pooled, tape.param(store, "tbf.head.p.W0"),
                      tape.param(store, "tbf.head.p.b0"))
    p_raw = ad.add(ad.softplus(ad.reshape(p_head, pooled.shape[:-1])), POWER_FLOOR)
    lam_head = ad.dense(pooled, tape.param(store, "tbf.head.lambda.W0"),
                        tape.param(store, "tbf.head.lambda.b0"))
    lam = ad.softplus(ad.reshape(lam_head, pooled.shape[:-1]))
    total = ad.sum_axis(p_raw, -1, keepdims=True)
    p = ad.scalar_scale(ad.div(p_raw, total), p_max)
    return p, lam


def recover_precoder(tape: Tape, ht: Var, p: Var, lam: Var,
                     noise_power: float) -> Var:
    """W = H (diag(lam) H^H H + noise I)^{-1} diag(sqrt(p)).

    ht is (B, N, K); p, lam are (B, K) and nonnegative, which makes the K x K
    system nonsingular for any positive noise power. Differentiable through
    the direct solve (no explicit inverse).
    """
    if noise_power <= 0:
        raise InvalidConfigError(f"noise power must be > 0, got {noise_power}")
    k = ht.shape[-1]
    hth = ad.matmul(cx.htranspose(ht), ht)
    a = ad.add(ad.mul(ad.reshape(lam, lam.shape + (1,)), hth),
               tape.constant(noise_power * np.eye(k)))
    rhs = ad.mul(ad.reshape(ad.sqrt(p), p.shape + (1,)), tape.constant(np.eye(k)))
    return ad.matmul(ht, ad.solve(a, rhs))


def normalize_power(tape: Tape, w: Var, p_max: float) -> Var:
    """Scale to the exact power budget: ||W'||_F^2 = p_max."""
    n2 = ad.sum_axis(cx.abs2(w), (-2, -1), keepdims=True)
    if np.any(n2.value <= 0.0):
        raise DegenerateInputError("cannot normalize a zero precoder")
    return ad.mul(w, ad.sqrt(ad.div(p_max, n2)))


def tbf_powers(tape: Tape, ht: Var, store: ParameterStore, cfg: SystemConfig,
               model: ModelConfig) -> tuple[Var, Var]:
    """The learned (p, lam) alone; the surface of the permutation property."""
    scale = float(store.values["tbf.input_scale"])
    d = tbf_init_edges(tape, ht, scale)
    for layer in range(1, model.tbf_layers + 1):
        d = tbf_layer(tape, d, store, f"tbf.layer{layer}")
    return output_powers(tape, d, store, cfg.power_budget_w)


def tbf_forward(tape: Tape, ht: Var, store: ParameterStore, cfg: SystemConfig,
                model: ModelConfig) -> Var:
    """Effective channel (B, N, K) -> power-exact precoder (B, N, K)."""
    p, lam = tbf_powers(tape, ht, store, cfg, model)
    w = recover_precoder(tape, ht, p, lam, cfg.noise_power_w)
    return normalize_power(tape, w, cfg.power_budget_w)


# ---------------------------------------------------------------------------
# plain-numpy twins, used by the brute-force searches and as test oracles


def recover_precoder_np(ht: np.ndarray, p: np.ndarray, lam: np.ndarray,
                        noise_power: float) -> np.ndarray:
    """Batched numpy version of `recover_precoder`; ht is (..., N, K) complex."""
    if noise_power <= 0:
        raise InvalidConfigError(f"noise power must be > 0, got {noise_power}")
    k = ht.shape[-1]
    hth = np.swapaxes(ht, -1, -2).conj() @ ht
    a = lam[..., :, None] * hth + noise_power * np.eye(k)
    rhs = np.sqrt(p)[..., :, None] * np.eye(k, dtype=np.complex128)
    return ht @ np.linalg.solve(a, rhs)


def normalize_power_np(w: np.ndarray, p_max: float) -> np.ndarray:
    n2 = np.sum(np.abs(w) ** 2, axis=(-2, -1), keepdims=True)
    if np.any(n2 <= 0.0):
        raise DegenerateInputError("cannot normalize a zero precoder")
    return w * np.sqrt(p_max / n2)
