"""Precoding sub-GNN: effective channel -> power allocations -> precoder.

Learns 2K scalars (downlink powers p, uplink powers lambda) over a waveguide
by user edge graph, then recovers the precoding matrix through its known
optimal structure W = H (Lambda H^H H + noise I)^{-1} P^{1/2} and rescales to
the exact power budget. Edge states have shape (B, N, K, width).

Unlike the placement network, the per-user message here depends only on the
sending user's edges, and the inner update functions are plain linear maps
(the combiner's main map carries the only nonlinearity), equivariant to
waveguide permutations.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from . import cplx as cx
from .autodiff import FnnSpec, ParameterStore, Tape, Var, fnn_forward, init_fnn
from .config import ModelConfig, SystemConfig
from .errors import DegenerateInputError, InvalidConfigError
from .physics import (build_pinching_matrix, compute_channel, effective_channel,
                      random_scenarios)

SUBNET_NAMES = ("ff", "qf", "fq", "qq")
HEAD_NAMES = ("p", "lambda")

# Seed of the frozen input-scale estimate (stored in every checkpoint).
INPUT_SCALE_SEED = 20260401
INPUT_SCALE_SAMPLES = 1000

# Additive floor under the softplus power head. Training gladly starves the
# weaker user toward zero power, where sqrt(p) has an unbounded derivative;
# the floor keeps that path smooth at a negligible allocation distortion.
POWER_FLOOR = 1e-8


def layer_specs(in_width: int, model: ModelConfig) -> dict[str, FnnSpec]:
    """One layer's update functions; all linear except the final combiner."""
    md = model.message_dim
    lin = dict(activation="identity", final_activation="identity")
    return {
        "qq": FnnSpec((in_width, md), **lin),
        "fq": FnnSpec((in_width + md, md), **lin),
        "qf": FnnSpec((in_width + md, md), **lin),
        "ff": FnnSpec((in_width + 2 * md, model.hidden), activation="identity",
                      final_activation=model.activation),
    }


def head_spec(model: ModelConfig) -> FnnSpec:
    return FnnSpec((model.hidden, 1))


def init_params(store: ParameterStore, cfg: SystemConfig, model: ModelConfig,
                rng: np.random.Generator) -> None:
    width = 2
    for layer in range(1, model.tbf_layers + 1):
        specs = layer_specs(width, model)
        for name in SUBNET_NAMES:
            init_fnn(store, f"tbf.layer{layer}.{name}", specs[name], rng)
        width = model.hidden
    for name in HEAD_NAMES:
        init_fnn(store, f"tbf.head.{name}", head_spec(model), rng)


@functools.lru_cache(maxsize=16)
def _input_scale_cached(key: tuple) -> float:
    cfg = SystemConfig(*key[:-1], path_const_override_m2=key[-1])
    rng = np.random.default_rng(INPUT_SCALE_SEED)
    users, layout = random_scenarios(rng, cfg, INPUT_SCALE_SAMPLES)
    h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
    g = build_pinching_matrix(layout, cfg.guide_wavelength)
    ht = effective_channel(h, g)
    # Re and Im of each draw in turn: the element order fixes the float sums.
    return float(np.std(np.stack([ht.real, ht.imag], axis=1).ravel()))


def input_scale(cfg: SystemConfig) -> float:
    """Empirical std of effective-channel entries at this geometry.

    Computed once from a fixed-seed Monte-Carlo draw and frozen into the
    checkpoint; the power budget does not enter.
    """
    key = (cfg.n_waveguides, cfg.n_pinch_per_wg, cfg.n_users, cfg.region_side_m,
           cfg.height_m, cfg.carrier_freq_hz, cfg.refractive_index, cfg.min_gap_m,
           1.0, 1.0, cfg.speed_of_light_m_s, cfg.waveguide_y_mode,
           cfg.path_const_override_m2)
    return _input_scale_cached(key)


def tbf_init_edges(tape: Tape, ht: Var, scale: float) -> Var:
    """Edge features [Re, Im]/scale, shape (B, N, K, 2)."""
    return ad.scalar_scale(cx.real_imag(ht), 1.0 / scale)


def waveguide_pe_map(tape: Tape, z: Var | list[Var], store: ParameterStore,
                     prefix: str, names: tuple[str, str],
                     specs: dict[str, FnnSpec]) -> Var:
    """Row map on (B, N, R, d): y_n = main([z_n, sum_{i != n} ctx(z_i)]).

    ``z`` is one Var or a list of parts (see :func:`ad.dense`); the sum runs
    over the waveguide axis 1.
    """
    main_name, ctx_name = names
    zs = ad.as_parts(z)
    a = fnn_forward(tape, specs[ctx_name], store, f"{prefix}.{ctx_name}", zs)
    ctx = ad.sum_others(a, 1)
    return fnn_forward(tape, specs[main_name], store, f"{prefix}.{main_name}",
                       zs + [ctx])


def tbf_layer(tape: Tape, d: Var, store: ParameterStore, prefix: str,
              in_width: int, model: ModelConfig) -> Var:
    """One edge-update layer: d (B, N, K, w) -> (B, N, K, hidden)."""
    specs = layer_specs(in_width, model)
    q_out = waveguide_pe_map(tape, d, store, prefix, ("fq", "qq"), specs)
    msg = ad.sum_others(q_out, -2)
    return waveguide_pe_map(tape, [d, msg], store, prefix, ("ff", "qf"), specs)


def output_powers(tape: Tape, d_last: Var, store: ParameterStore,
                  model: ModelConfig, p_max: float) -> tuple[Var, Var]:
    """Pool over waveguides, head + softplus; p rescaled to sum to p_max.

    Returns (p, lam), each (B, K) and strictly positive. The rescaling of p is
    a conditioning choice only: the final precoder is power-normalized anyway.
    """
    pooled = ad.mean_axis(d_last, -3)
    spec = head_spec(model)
    p_raw = ad.add(ad.softplus(ad.reshape(
        fnn_forward(tape, spec, store, "tbf.head.p", pooled), pooled.shape[:-1])),
        POWER_FLOOR)
    lam = ad.softplus(ad.reshape(
        fnn_forward(tape, spec, store, "tbf.head.lambda", pooled), pooled.shape[:-1]))
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
    width = 2
    for layer in range(1, model.tbf_layers + 1):
        d = tbf_layer(tape, d, store, f"tbf.layer{layer}", width, model)
        width = model.hidden
    return output_powers(tape, d, store, model, cfg.power_budget_w)


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
