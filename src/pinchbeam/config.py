"""System and model configuration.

All physical quantities are SI (meters, Hz, watts). The JSON schema of
:class:`SystemConfig` is flat and uses the exact key names listed in
``JSON_KEYS``; anything else in a config file is rejected.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .autodiff import ACTIVATIONS
from .errors import InvalidConfigError

# Exact value used for every wavelength/constant derivation. Serialized with
# the config so results can be re-derived under a different convention.
SPEED_OF_LIGHT = 2.99792458e8  # m/s

JSON_KEYS = (
    "n_waveguides",
    "n_pinch_per_wg",
    "n_users",
    "region_side_m",
    "height_m",
    "carrier_freq_hz",
    "refractive_index",
    "min_gap_m",
    "power_budget_w",
    "noise_power_w",
    "speed_of_light_m_s",
    "waveguide_y_mode",
)


def _check_finite(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise InvalidConfigError(f"{name} must be a finite number, got {value!r}")


def _integer(name: str, value, low: int) -> int:
    """``value`` as an int >= ``low``; bools, non-finite and non-integral
    numbers fail."""
    _check_finite(name, value)
    if not float(value).is_integer():
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
    if int(value) < low:
        raise InvalidConfigError(f"{name} must be >= {low}, got {int(value)}")
    return int(value)


def positive_integer(name: str, value) -> int:
    """``value`` as an int >= 1 (a count); anything else raises InvalidConfigError."""
    return _integer(name, value, 1)


def non_negative_integer(name: str, value) -> int:
    """``value`` as an int >= 0 (a seed); anything else raises InvalidConfigError."""
    return _integer(name, value, 0)


def derive_constants(carrier_freq_hz: float, refractive_index: float,
                     c: float = SPEED_OF_LIGHT) -> tuple[float, float, float]:
    """Free-space wavelength, guide wavelength and path-gain constant.

    Returns (lam, lam_g, eta) with lam = c/f_c, lam_g = lam/n_eff and
    eta = c/(2*pi*f_c) in m^2 (amplitude constant of the LoS channel).
    """
    if carrier_freq_hz <= 0:
        raise InvalidConfigError(f"carrier frequency must be > 0, got {carrier_freq_hz}")
    if refractive_index < 1.0:
        raise InvalidConfigError(f"refractive index must be >= 1, got {refractive_index}")
    lam = c / carrier_freq_hz
    lam_g = lam / refractive_index
    eta = c / (2.0 * math.pi * carrier_freq_hz)
    return lam, lam_g, eta


@dataclass(frozen=True)
class SystemConfig:
    """Physical and problem constants of one deployment."""

    n_waveguides: int
    n_pinch_per_wg: int
    n_users: int
    region_side_m: float = 10.0
    height_m: float = 3.0
    carrier_freq_hz: float = 28e9
    refractive_index: float = 1.4
    min_gap_m: float = 0.0        # 0 means "use the guide wavelength"
    power_budget_w: float = 10.0
    noise_power_w: float = 1.0
    speed_of_light_m_s: float = SPEED_OF_LIGHT
    waveguide_y_mode: str = "uniform"
    # Not serialized: overrides eta = c/(2*pi*f_c) when set.
    path_const_override_m2: float | None = field(default=None, compare=False)

    def __post_init__(self):
        for name in ("n_waveguides", "n_pinch_per_wg", "n_users"):
            object.__setattr__(self, name, positive_integer(name, getattr(self, name)))
        for name in ("region_side_m", "height_m", "carrier_freq_hz", "refractive_index",
                     "min_gap_m", "power_budget_w", "noise_power_w", "speed_of_light_m_s"):
            _check_finite(name, getattr(self, name))
        for name in ("region_side_m", "height_m", "carrier_freq_hz", "power_budget_w",
                     "noise_power_w", "speed_of_light_m_s"):
            if getattr(self, name) <= 0:
                raise InvalidConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.refractive_index < 1.0:
            raise InvalidConfigError(
                f"refractive_index must be >= 1, got {self.refractive_index}")
        if self.waveguide_y_mode != "uniform":
            raise InvalidConfigError(
                f"unsupported waveguide_y_mode {self.waveguide_y_mode!r}")
        if self.min_gap_m == 0.0:
            object.__setattr__(self, "min_gap_m", self.guide_wavelength)
        if self.min_gap_m < 0:
            raise InvalidConfigError(f"min_gap_m must be > 0, got {self.min_gap_m}")
        if (self.n_pinch_per_wg - 1) * self.min_gap_m >= self.region_side_m:
            raise InvalidConfigError(
                f"(M-1)*min_gap = {(self.n_pinch_per_wg - 1) * self.min_gap_m:.4g} m "
                f"leaves no feasible layout in a {self.region_side_m} m region")

    # Short aliases used throughout the numerics.
    @property
    def N(self) -> int:
        return int(self.n_waveguides)

    @property
    def M(self) -> int:
        return int(self.n_pinch_per_wg)

    @property
    def K(self) -> int:
        return int(self.n_users)

    @property
    def D(self) -> float:
        return float(self.region_side_m)

    @property
    def d(self) -> float:
        return float(self.height_m)

    @property
    def wavelength(self) -> float:
        return self.speed_of_light_m_s / self.carrier_freq_hz

    @property
    def guide_wavelength(self) -> float:
        return self.wavelength / self.refractive_index

    @property
    def path_const(self) -> float:
        """Amplitude constant eta (m^2); square root enters the channel gain."""
        if self.path_const_override_m2 is not None:
            return self.path_const_override_m2
        return self.speed_of_light_m_s / (2.0 * math.pi * self.carrier_freq_hz)

    def waveguide_y(self) -> np.ndarray:
        """y-coordinate of each waveguide: (n - 1/2) * D / N, n = 1..N."""
        n = np.arange(1, self.N + 1, dtype=np.float64)
        return (n - 0.5) * self.D / self.N

    def snr_db(self) -> float:
        return 10.0 * math.log10(self.power_budget_w / self.noise_power_w)

    def with_snr_db(self, snr_db: float) -> "SystemConfig":
        """Same deployment with the power budget set to snr * noise power."""
        return replace(self, power_budget_w=self.noise_power_w * 10.0 ** (snr_db / 10.0))

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d.pop("path_const_override_m2")
        return {k: d[k] for k in JSON_KEYS}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SystemConfig":
        if not isinstance(data, dict):
            raise InvalidConfigError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(JSON_KEYS)
        if unknown:
            raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = set(JSON_KEYS) - set(data)
        if missing:
            raise InvalidConfigError(f"missing config keys: {sorted(missing)}")
        try:
            return cls(**{k: data[k] for k in JSON_KEYS})
        except (TypeError, ValueError) as exc:
            raise InvalidConfigError(str(exc)) from exc

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "SystemConfig":
        p = Path(path)
        if not p.exists():
            raise InvalidConfigError(f"config file not found: {p}")
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise InvalidConfigError(f"config file {p} is not valid JSON: {exc}") from exc
        return cls.from_json_dict(data)


def default_config(n_waveguides: int, n_pinch_per_wg: int, n_users: int,
                   snr_db: float = 10.0) -> SystemConfig:
    """Deployment with the standard desk constants.

    10 x 10 m region, waveguides at 3 m height, 28 GHz carrier, n_eff = 1.4,
    minimum gap of one guide wavelength, unit noise power and a power budget
    of 10^(snr_db/10) W.
    """
    return SystemConfig(
        n_waveguides=n_waveguides,
        n_pinch_per_wg=n_pinch_per_wg,
        n_users=n_users,
        power_budget_w=10.0 ** (snr_db / 10.0),
        noise_power_w=1.0,
    )


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters shared by the two sub-GNNs."""

    pbf_layers: int = 3
    tbf_layers: int = 3
    hidden: int = 64        # edge representation width
    message_dim: int = 64   # processor output width
    activation: str = "relu"

    def __post_init__(self):
        for name in ("pbf_layers", "tbf_layers", "hidden", "message_dim"):
            object.__setattr__(self, name, positive_integer(name, getattr(self, name)))
        if not isinstance(self.activation, str) or self.activation not in ACTIVATIONS:
            raise InvalidConfigError(f"unknown activation {self.activation!r}")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ModelConfig":
        return cls(**data)
