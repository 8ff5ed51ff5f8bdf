"""Heuristic baseline and brute-force searches used to ground the tests.

The baseline clusters each waveguide's antennas at the minimum gap around the
user closest to that waveguide and applies zero-forcing with equal per-user
power, at every (N, M, K). It and ``zero_forcing`` take optional leading batch
axes; a batched call equals the stack of its per-draw calls bit for bit. The
grid searches are deliberately guarded to desk scale; they exist to estimate
optima, not to run large systems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .errors import DegenerateInputError, OracleIneligibleError, RankDeficientError
from .physics import (AntennaLayout, UserPositions, build_pinching_matrix,
                      compute_channel, compute_se, effective_channel,
                      layout_positions)
from .precoder_gnn import normalize_power_np

# Condition-number guard for the zero-forcing Gram matrix.
_RANK_RTOL = 1e-10


def _full_rank(ht: np.ndarray) -> np.ndarray:
    """(...) bool: the draw's (N, K) effective channel has K <= N and full
    column rank to the condition-number guard."""
    sv = np.linalg.svd(ht, compute_uv=False)
    return (ht.shape[-1] <= ht.shape[-2]) & (sv[..., -1] > _RANK_RTOL * sv[..., 0])


def zero_forcing(h_tilde, p_max: float) -> np.ndarray:
    """ZF precoder (..., N, K) with equal per-user power and ||W||^2 = p_max.

    Directions follow H (H^H H)^{-1}; each column is normalized, then scaled
    by sqrt(p_max / K). Requires K <= N and full column rank in every draw.
    """
    ht = np.asarray(h_tilde, dtype=np.complex128)
    k = ht.shape[-1]
    if not np.all(_full_rank(ht)):
        raise RankDeficientError(f"zero-forcing needs K <= N and full column rank, "
                                 f"got a (numerically) rank deficient {ht.shape} channel")
    gram = ht.conj().swapaxes(-1, -2) @ ht
    w = ht @ np.linalg.solve(gram, np.eye(k, dtype=np.complex128))
    w = w / np.linalg.norm(w, axis=-2, keepdims=True)
    return w * np.sqrt(p_max / k)


@dataclass(frozen=True)
class BaselineResult:
    """The baseline of one draw or of a batch: plain complex128 arrays with
    the users' leading axes (...)."""

    layout: AntennaLayout
    w: np.ndarray          # (..., N, K) complex
    h_tilde: np.ndarray    # (..., N, K) complex
    used_pinv: np.ndarray  # (...) bool, True where ZF fell back to a pseudo-inverse


def baseline_closest_user(users: UserPositions, cfg: SystemConfig) -> BaselineResult:
    """Closest-user placement + zero-forcing, at every (N, M, K), per draw.

    "Closest" means closest to the waveguide axis (the line y = y_n, z = d);
    x does not enter since the antennas can slide along the guide. Ties break
    toward the lowest user index. Waveguide n's antennas sit ``min_gap_m``
    apart, centred on that user's x and shifted into [0, D]. A draw whose
    channel is rank deficient gets the normalized pseudo-inverse instead of ZF.
    """
    wy = cfg.waveguide_y()
    # Squared distance of user k to waveguide n's axis: (y_k - y_n)^2 + d^2.
    dist2 = (users.positions[..., None, :, 1] - wy[:, None]) ** 2 + cfg.d ** 2
    chosen = np.argmin(dist2, axis=-1)
    gaps = np.full(chosen.shape + (cfg.M - 1,), cfg.min_gap_m)
    # The end antennas' distance as the layout's own cumulative sum makes it.
    span = AntennaLayout(np.zeros(chosen.shape), gaps, wy, cfg.d).x_positions()[..., -1]
    first_x = np.clip(np.take_along_axis(users.positions[..., 0], chosen, axis=-1)
                      - span / 2, 0.0, cfg.D - span)
    # D - span may round up, so that first_x + span lands one ulp past D.
    first_x = np.where(first_x + span > cfg.D, np.nextafter(first_x, 0.0), first_x)
    layout = layout_positions(cfg, first_x, gaps)
    h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
    g = build_pinching_matrix(layout, cfg.guide_wavelength)
    ht = effective_channel(h, g)
    used_pinv = ~_full_rank(ht)
    w = np.empty_like(ht)
    if not np.all(used_pinv):
        w[~used_pinv] = zero_forcing(ht[~used_pinv], cfg.power_budget_w)
    if np.any(used_pinv):
        wp = np.linalg.pinv(ht[used_pinv].conj().swapaxes(-1, -2))
        norms = np.linalg.norm(wp, axis=-2, keepdims=True)
        if np.any(norms == 0.0):
            raise DegenerateInputError("pseudo-inverse produced a zero column")
        w[used_pinv] = wp / norms * np.sqrt(cfg.power_budget_w / cfg.K)
    return BaselineResult(layout, w, ht, used_pinv)


def baseline_se(users: UserPositions, cfg: SystemConfig) -> float | np.ndarray:
    """The baseline's sum SE per draw: a float for one draw, else (...)."""
    res = baseline_closest_user(users, cfg)
    return compute_se(res.h_tilde, res.w, cfg.noise_power_w)


# ---------------------------------------------------------------------------
# brute-force searches


@dataclass(frozen=True)
class OracleResult:
    best_se: float
    layout: AntennaLayout
    w: np.ndarray
    grid_n: int


def structure_power_sweep(h_tilde, p_max: float, noise_power: float,
                          n_grid: int = 50) -> tuple[float, np.ndarray]:
    """Best SE reachable through the optimal-structure parameterization.

    Sweeps a dense grid over (p_1 / p_max, lam_1, lam_2) for K = 2 (for K = 1
    the matched filter at full power is returned directly), recovers each
    candidate precoder and normalizes it to the power budget. Returns
    (best SE, best precoder).
    """
    ht = np.asarray(h_tilde, dtype=np.complex128)
    n, k = ht.shape
    if k == 1:
        w = np.sqrt(p_max) * ht / np.linalg.norm(ht)
        return float(compute_se(ht, w, noise_power)), w
    if k != 2:
        raise OracleIneligibleError(f"power sweep supports K <= 2, got K={k}")
    hth = ht.conj().T @ ht                                   # (2, 2)
    lam = np.linspace(0.0, p_max, n_grid)
    l1 = lam[:, None, None, None]
    l2 = lam[None, :, None, None]
    # A = diag(lam) @ hth + noise * I, assembled entrywise over the lam grid.
    a00 = l1 * hth[0, 0] + noise_power
    a01 = l1 * hth[0, 1]
    a10 = l2 * hth[1, 0]
    a11 = l2 * hth[1, 1] + noise_power
    det = a00 * a11 - a01 * a10
    p1 = np.linspace(0.0, 1.0, n_grid)[None, None, :, None] * p_max
    s1 = np.sqrt(p1)
    s2 = np.sqrt(p_max - p1)
    # Columns of X = A^{-1} diag(sqrt(p)) via the closed-form 2x2 inverse.
    x = np.empty((n_grid, n_grid, n_grid, 2, 2), dtype=np.complex128)
    x[..., 0, 0] = (a11 * s1 / det)[..., 0]
    x[..., 1, 0] = (-a10 * s1 / det)[..., 0]
    x[..., 0, 1] = (-a01 * s2 / det)[..., 0]
    x[..., 1, 1] = (a00 * s2 / det)[..., 0]
    w = ht @ x                                               # (g, g, g, N, 2)
    w = normalize_power_np(w, p_max)
    se = compute_se(np.broadcast_to(ht, w.shape[:-2] + ht.shape), w, noise_power)
    flat = int(np.argmax(se))
    idx = np.unravel_index(flat, se.shape)
    return float(se[idx]), w[idx]


def random_precoder_search(h_tilde, p_max: float, noise_power: float,
                           n_draws: int, seed: int) -> float:
    """Best SE over random precoders drawn on the power sphere ||W||^2 = p_max."""
    ht = np.asarray(h_tilde, dtype=np.complex128)
    n, k = ht.shape
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n_draws, n, k)) + 1j * rng.standard_normal((n_draws, n, k))
    w = normalize_power_np(w, p_max)
    se = compute_se(np.broadcast_to(ht, w.shape), w, noise_power)
    return float(np.max(se))


def grid_search_oracle(users: UserPositions, cfg: SystemConfig, grid_n: int = 1000,
                       power_grid_n: int = 50) -> OracleResult:
    """Exhaustive placement grid, guarded to M = 1 and K * N <= 2.

    K = 1: the matched filter at full power is optimal, so the search reduces
    to maximizing sum_n eta / r_n^2 independently per waveguide. K = 2 (one
    waveguide): each grid position is swept through the structure power grid.
    """
    if cfg.M != 1 or cfg.K * cfg.N > 2:
        raise OracleIneligibleError(
            f"grid search requires M = 1 and K * N <= 2, got M={cfg.M}, "
            f"K={cfg.K}, N={cfg.N}")
    grid = np.linspace(0.0, cfg.D, grid_n)
    wy = cfg.waveguide_y()
    p_max, noise = cfg.power_budget_w, cfg.noise_power_w

    if cfg.K == 1:
        # SE = log2(1 + P * sum_n eta/r_n^2 / noise): waveguides separate.
        first_x = np.empty(cfg.N)
        for n in range(cfg.N):
            r2 = ((grid - users.positions[0, 0]) ** 2
                  + (wy[n] - users.positions[0, 1]) ** 2 + cfg.d ** 2)
            first_x[n] = grid[int(np.argmin(r2))]
        layout = layout_positions(cfg, first_x, np.zeros((cfg.N, 0)))
        h = compute_channel(users, layout, cfg.wavelength, cfg.path_const)
        g = build_pinching_matrix(layout, cfg.guide_wavelength)
        ht = effective_channel(h, g)
        w = np.sqrt(p_max) * ht / np.linalg.norm(ht)
        return OracleResult(float(compute_se(ht, w, noise)), layout, w, grid_n)

    # K = 2, N = 1: every grid position as one batched layout.
    layouts = layout_positions(cfg, grid[:, None], np.zeros((grid_n, 1, 0)))
    h = compute_channel(users, layouts, cfg.wavelength, cfg.path_const)
    hts = effective_channel(h, build_pinching_matrix(layouts, cfg.guide_wavelength))
    best = (-np.inf, 0, None)
    for i in range(grid_n):
        se, w = structure_power_sweep(hts[i], p_max, noise, power_grid_n)
        if se > best[0]:
            best = (se, i, w)
    layout = layout_positions(cfg, np.array([grid[best[1]]]), np.zeros((1, 0)))
    return OracleResult(best[0], layout, best[2], grid_n)
