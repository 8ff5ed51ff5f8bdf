"""Physical model: geometry, LoS channel, pinching matrix, spectral efficiency.

Everything here is a pure function of its inputs, usable as the reference
path against which the differentiable pipeline is checked. Channels and
matrices are plain complex128 arrays. Positions, layouts, the channel, the
pinching matrix, the effective channel and the SE take optional leading
batch axes (...); a batched call equals the stack of its per-sample calls
bit for bit. ``check_feasibility`` checks one sample. Antenna rows are stacked
waveguide-major: row index = n*M + m for waveguide n (0-based) and antenna m
on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .errors import (ConstraintViolationError, InvalidConfigError,
                     SingularityError)

# Any user-antenna distance below this raises instead of clamping.
MIN_DISTANCE_M = 1e-6


@dataclass(frozen=True)
class UserPositions:
    """User positions on the ground plane, (..., K, 3); third column identically zero."""

    positions: np.ndarray  # (..., K, 3) meters

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim < 2 or pos.shape[-1] != 3:
            raise ValueError(f"positions must be (..., K, 3), got {pos.shape}")
        if np.any(pos[..., 2] != 0.0):
            raise ValueError("user z-coordinates must be exactly 0")
        object.__setattr__(self, "positions", pos)

    @classmethod
    def from_xy(cls, xy: np.ndarray) -> "UserPositions":
        xy = np.asarray(xy, dtype=np.float64)
        pos = np.zeros(xy.shape[:-1] + (3,))
        pos[..., :2] = xy
        return cls(pos)

    @property
    def xy(self) -> np.ndarray:
        return self.positions[..., :2]


def sample_users(seed, config: SystemConfig) -> UserPositions:
    """K users i.i.d. uniform on the [0, D] x [0, D] square, z = 0.

    ``seed`` is anything numpy's default_rng accepts (int, SeedSequence, or a
    Generator, which is consumed).
    """
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, config.D, size=(config.K, 2))
    return UserPositions.from_xy(xy)


@dataclass(frozen=True)
class AntennaLayout:
    """Per-waveguide first-antenna positions and inter-antenna gaps.

    Positions are derived by cumulative sums: x[n, m] = first_x[n] + sum of
    gaps[n, :m]. The feed point of waveguide n sits at (0, y_n, height).
    ``first_x`` and ``gaps`` may carry the same leading batch axes; the
    waveguide rows and the height are shared by every sample.
    """

    first_x: np.ndarray      # (..., N) meters
    gaps: np.ndarray         # (..., N, M-1) meters
    waveguide_y: np.ndarray  # (N,) meters
    height: float            # meters

    def __post_init__(self):
        fx = np.atleast_1d(np.asarray(self.first_x, dtype=np.float64))
        gaps = np.asarray(self.gaps, dtype=np.float64)
        if gaps.shape[:-1] != fx.shape:
            raise ValueError(f"gaps must be {fx.shape} + (M-1,), got {gaps.shape}")
        wy = np.atleast_1d(np.asarray(self.waveguide_y, dtype=np.float64))
        if wy.shape != fx.shape[-1:]:
            raise ValueError("waveguide_y and first_x must have equal length")
        object.__setattr__(self, "first_x", fx)
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "waveguide_y", wy)

    @property
    def n_waveguides(self) -> int:
        return self.first_x.shape[-1]

    @property
    def n_per_waveguide(self) -> int:
        return self.gaps.shape[-1] + 1

    def x_positions(self) -> np.ndarray:
        """(..., N, M) antenna x-coordinates."""
        start = np.zeros(self.first_x.shape + (1,))
        offsets = np.concatenate([start, np.cumsum(self.gaps, axis=-1)], axis=-1)
        return self.first_x[..., None] + offsets

    def antenna_positions(self) -> np.ndarray:
        """(..., N, M, 3) positions of every pinching antenna."""
        x = self.x_positions()
        pos = np.empty(x.shape + (3,))
        pos[..., 0] = x
        pos[..., 1] = self.waveguide_y[:, None]
        pos[..., 2] = self.height
        return pos


def _sample(index) -> str:
    """Error-message prefix naming the offending sample of a batched call."""
    return f"sample {', '.join(str(int(i)) for i in index)}: " if len(index) else ""


def layout_positions(config: SystemConfig, first_x: np.ndarray,
                     gaps: np.ndarray) -> AntennaLayout:
    """Validated layout from first-antenna positions (..., N) and gaps (..., N, M-1).

    Raises ConstraintViolationError when a gap is below the minimum or any
    derived position leaves [0, D]; in a batch the message names the first
    offending sample.
    """
    layout = AntennaLayout(first_x, gaps, config.waveguide_y(), config.d)
    if layout.n_waveguides != config.N or layout.n_per_waveguide != config.M:
        raise InvalidConfigError(
            f"layout is {layout.n_waveguides}x{layout.n_per_waveguide}, "
            f"config wants {config.N}x{config.M}")
    if layout.gaps.size and np.min(layout.gaps) < config.min_gap_m:
        bad = np.argwhere(layout.gaps < config.min_gap_m)[0]
        raise ConstraintViolationError(
            f"{_sample(bad[:-2])}gap {layout.gaps[tuple(bad)]:.6g} m below minimum "
            f"{config.min_gap_m:.6g} m at waveguide {bad[-2]}, slot {bad[-1] + 1}")
    x = layout.x_positions()
    low, high = np.min(x, axis=(-2, -1)), np.max(x, axis=(-2, -1))
    outside = (low < 0.0) | (high > config.D)
    if np.any(outside):
        bad = tuple(np.argwhere(outside)[0])
        raise ConstraintViolationError(
            f"{_sample(bad)}antenna x-positions must lie in [0, {config.D}], got "
            f"[{low[bad]:.6g}, {high[bad]:.6g}]")
    return layout


def compute_channel(users: UserPositions, layout: AntennaLayout,
                    wavelength: float, path_const: float) -> np.ndarray:
    """LoS channel H (..., M*N, K): entry = sqrt(eta) * exp(-j*2*pi*r/lambda) / r.

    The leading axes of ``users`` and ``layout`` broadcast against each other.
    """
    ant = layout.antenna_positions()
    ant = ant.reshape(ant.shape[:-3] + (-1, 3))                     # (..., N*M, 3) waveguide-major
    diff = users.positions[..., None, :, :] - ant[..., :, None, :]  # (..., N*M, K, 3)
    r = np.linalg.norm(diff, axis=-1)
    if np.min(r) < MIN_DISTANCE_M:
        bad = np.unravel_index(np.argmin(r), r.shape)
        raise SingularityError(
            f"{_sample(bad[:-2])}user {bad[-1]} is {r[bad]:.3g} m from antenna row "
            f"{bad[-2]}; below {MIN_DISTANCE_M} m")
    return np.sqrt(path_const) * np.exp(-2j * np.pi * r / wavelength) / r


def build_pinching_matrix(layout: AntennaLayout, guide_wavelength: float) -> np.ndarray:
    """Block-diagonal pinching matrix G (..., M*N, N).

    Block n holds the phase shifts exp(-j*2*pi*||feed - antenna||/lambda_g)
    of waveguide n, scaled by 1/sqrt(M) so each block has unit norm and
    ||G w|| = ||w||. Off-block entries are exact zeros.
    """
    n, m = layout.n_waveguides, layout.n_per_waveguide
    # Feed sits at x = 0 on the waveguide axis, so the travel distance is x.
    x = layout.x_positions()
    g = np.exp(-2j * np.pi * x / guide_wavelength) / np.sqrt(m)
    full = np.zeros(x.shape[:-2] + (n * m, n), dtype=np.complex128)
    for i in range(n):
        full[..., i * m:(i + 1) * m, i] = g[..., i, :]
    return full


def effective_channel(h, g) -> np.ndarray:
    """Effective channel H_tilde = G^H @ H (..., N, K), so h_k^H G w = h_tilde_k^H w."""
    hc = np.asarray(h, dtype=np.complex128)
    gc = np.asarray(g, dtype=np.complex128)
    if hc.shape[-2] != gc.shape[-2]:
        raise ValueError(f"row mismatch: H is {hc.shape}, G is {gc.shape}")
    return gc.conj().swapaxes(-1, -2) @ hc


def compute_se(h_tilde, w, noise_power: float) -> float | np.ndarray:
    """Sum spectral efficiency in bits/s/Hz.

    SE = sum_k log2(1 + |h_k^H w_k|^2 / (sum_{j != k} |h_k^H w_j|^2 + noise)).
    Accepts stacked inputs of shape (..., N, K); returns matching leading shape.
    """
    if noise_power <= 0:
        raise InvalidConfigError(f"noise power must be > 0, got {noise_power}")
    ht = np.asarray(h_tilde, dtype=np.complex128)
    wc = np.asarray(w, dtype=np.complex128)
    cross = np.swapaxes(ht, -1, -2).conj() @ wc              # (..., K, K), [k, j] = h_k^H w_j
    p = np.abs(cross) ** 2
    sig = np.diagonal(p, axis1=-2, axis2=-1)
    interf = p.sum(axis=-1) - sig + noise_power
    se = np.sum(np.log1p(sig / interf), axis=-1) / np.log(2.0)
    return float(se) if se.ndim == 0 else se


@dataclass(frozen=True)
class Violation:
    """One violated constraint; margin is the amount by which it is broken."""

    kind: str            # "gap_min" | "position_low" | "position_high" | "power"
    index: tuple | None  # (waveguide, slot) for geometry, None for power
    margin: float


# Relative tolerance on the power budget check.
POWER_RTOL = 1e-9


def check_feasibility(layout: AntennaLayout | None, w, config: SystemConfig) -> list[Violation]:
    """Every violated constraint of the placement/power problem; empty iff feasible.

    ``w`` may be None to check geometry only. Violations are data, not errors.
    Checks one sample: a batched layout or precoder raises ValueError.
    """
    out: list[Violation] = []
    if layout is not None:
        if layout.first_x.ndim != 1:
            raise ValueError(
                f"check_feasibility takes one layout, got batch {layout.first_x.shape[:-1]}")
        for n in range(layout.n_waveguides):
            for i, gap in enumerate(layout.gaps[n]):
                if gap < config.min_gap_m:
                    out.append(Violation("gap_min", (n, i + 1), config.min_gap_m - gap))
        x = layout.x_positions()
        for n in range(x.shape[0]):
            for m in range(x.shape[1]):
                if x[n, m] < 0.0:
                    out.append(Violation("position_low", (n, m), -x[n, m]))
                elif x[n, m] > config.D:
                    out.append(Violation("position_high", (n, m), x[n, m] - config.D))
    if w is not None:
        if np.ndim(w) != 2:
            raise ValueError(f"check_feasibility takes one (N, K) precoder, got {np.shape(w)}")
        power = float(np.sum(np.abs(np.asarray(w, dtype=np.complex128)) ** 2))
        if power > config.power_budget_w * (1.0 + POWER_RTOL):
            out.append(Violation("power", None, power - config.power_budget_w))
    return out


def _layout_from_fractions(config: SystemConfig, gap_u: np.ndarray,
                           first_u: np.ndarray) -> AntennaLayout:
    """Validated layout from uniform [0, 1) draws of shapes (..., N, M-1) and (..., N)."""
    slack = config.D - (config.M - 1) * config.min_gap_m
    # Keep expected spans well inside the region so first_x has room.
    gaps = config.min_gap_m + slack / (config.M + 1) * gap_u
    first_x = (config.D - gaps.sum(axis=-1)) * first_u
    return layout_positions(config, first_x, gaps)


def random_feasible_layout(rng: np.random.Generator, config: SystemConfig) -> AntennaLayout:
    """Uniformly random layout satisfying the gap and region constraints."""
    n, m = config.N, config.M
    gap_u = rng.random((n, m - 1))
    return _layout_from_fractions(config, gap_u, rng.random(n))


def random_scenarios(rng: np.random.Generator, config: SystemConfig,
                     count: int) -> tuple[UserPositions, AntennaLayout]:
    """``count`` (users, layout) draws with leading batch axis (count,).

    Draws the same stream, in the same order, as ``count`` alternating calls
    of ``sample_users(rng, config)`` and ``random_feasible_layout(rng,
    config)``, so sample i equals the i-th pair of that loop bit for bit
    (``Generator.uniform(lo, hi)`` is ``lo + (hi - lo) * random()``).
    """
    n, m, k = config.N, config.M, config.K
    u = rng.random((count, 2 * k + n * (m - 1) + n))
    users = UserPositions.from_xy(config.D * u[:, :2 * k].reshape(count, k, 2))
    gap_u = u[:, 2 * k:2 * k + n * (m - 1)].reshape(count, n, m - 1)
    return users, _layout_from_fractions(config, gap_u, u[:, 2 * k + n * (m - 1):])
