"""End-to-end differentiable policy: positions -> layout -> channel -> precoder -> SE.

The physics stages here mirror :mod:`pinchbeam.physics` op for op but stay on
the tape, so the spectral efficiency is differentiable in every network
parameter, including through the channel phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import cplx as cx
from . import placement_gnn as pbf
from . import precoder_gnn as tbf
from .autodiff import ParameterStore, Tape, Var
from .config import ModelConfig, SystemConfig
from .cplx import CVar
from .errors import SingularityError
from .physics import MIN_DISTANCE_M, AntennaLayout
from .placement_gnn import PbfOut


def init_parameters(cfg: SystemConfig, model: ModelConfig, seed) -> ParameterStore:
    """Fresh Glorot-initialized parameters for both sub-GNNs.

    Also freezes the effective-channel feature scale into the store under
    ``tbf.input_scale`` so checkpoints are self-contained.
    """
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    pbf.init_params(store, cfg, model, rng)
    tbf.init_params(store, cfg, model, rng)
    store.add("tbf.input_scale", np.array(tbf.input_scale(cfg)), trainable=False)
    return store


def effective_channel_on_tape(tape: Tape, positions_x: Var, phi: np.ndarray,
                              cfg: SystemConfig) -> CVar:
    """Effective channel (B, N, K) from antenna x-positions (B, N, M).

    Composes the LoS channel sqrt(eta) e^{-j 2 pi r / lambda} / r with the
    conjugated pinching phases e^{+j 2 pi x / lambda_g} / sqrt(M) and sums
    over the antennas of each waveguide.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim == 2:
        phi = phi[None]
    wy = cfg.waveguide_y()
    # (B, N, 1, K) squared distance of each user to each waveguide axis.
    c2 = (wy[None, :, None] - phi[:, None, :, 1]) ** 2 + cfg.d ** 2
    dx = ad.sub(ad.reshape(positions_x, positions_x.shape + (1,)),
                tape.constant(phi[:, None, None, :, 0]))
    r = ad.sqrt(ad.add(ad.square(dx), tape.constant(c2[:, :, None, :])))
    if float(np.min(r.value)) < MIN_DISTANCE_M:
        raise SingularityError("a user coincides with a pinching antenna")
    amp = ad.div(math.sqrt(cfg.path_const), r)
    theta = ad.scalar_scale(r, 2.0 * math.pi / cfg.wavelength)
    h_re = ad.mul(amp, ad.cos(theta))
    h_im = ad.neg(ad.mul(amp, ad.sin(theta)))

    phase_g = ad.scalar_scale(positions_x, 2.0 * math.pi / cfg.guide_wavelength)
    inv_sqrt_m = 1.0 / math.sqrt(cfg.M)
    g_re = ad.reshape(ad.scalar_scale(ad.cos(phase_g), inv_sqrt_m),
                      positions_x.shape + (1,))
    g_im = ad.reshape(ad.scalar_scale(ad.sin(phase_g), inv_sqrt_m),
                      positions_x.shape + (1,))
    ht_re = ad.sum_axis(ad.sub(ad.mul(g_re, h_re), ad.mul(g_im, h_im)), 2)
    ht_im = ad.sum_axis(ad.add(ad.mul(g_re, h_im), ad.mul(g_im, h_re)), 2)
    return CVar(ht_re, ht_im)


def se_on_tape(tape: Tape, ht: CVar, w: CVar, noise_power: float) -> Var:
    """Per-sample sum spectral efficiency, shape (B,)."""
    cross = cx.matmul(cx.htranspose(ht), w)
    power = cx.abs2(cross)
    signal = ad.diagonal(power, -2, -1)
    interference = ad.add(ad.sub(ad.sum_axis(power, -1), signal), noise_power)
    return ad.scalar_scale(
        ad.sum_axis(ad.log1p(ad.div(signal, interference)), -1), 1.0 / math.log(2.0))


@dataclass(frozen=True)
class ForwardOut:
    placement: PbfOut
    h_tilde: CVar
    w: CVar
    se: Var


def forward_on_tape(tape: Tape, phi: np.ndarray, store: ParameterStore,
                    cfg: SystemConfig, model: ModelConfig) -> ForwardOut:
    """Whole policy on one tape for a batch of user draws (B, K, 2)."""
    placement = pbf.pbf_forward(tape, phi, store, cfg, model)
    ht = effective_channel_on_tape(tape, placement.positions_x, phi, cfg)
    w = tbf.tbf_forward(tape, ht, store, cfg, model)
    se = se_on_tape(tape, ht, w, cfg.noise_power_w)
    return ForwardOut(placement, ht, w, se)


@dataclass(frozen=True)
class PolicyResult:
    layout: AntennaLayout
    w: np.ndarray       # (N, K) complex precoder
    se: float           # SE evaluated on the tape path


def policy_forward(phi: np.ndarray, store: ParameterStore, cfg: SystemConfig,
                   model: ModelConfig) -> PolicyResult:
    """Single-sample inference; materializes the layout and precoder."""
    phi = np.asarray(phi, dtype=np.float64)
    out = forward_on_tape(Tape(), phi[None], store, cfg, model)
    layout = AntennaLayout(out.placement.first_x.value[0],
                           out.placement.gaps.value[0],
                           cfg.waveguide_y(), cfg.d)
    w = out.w.re.value[0] + 1j * out.w.im.value[0]
    return PolicyResult(layout, w, float(out.se.value[0]))
