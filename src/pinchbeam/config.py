"""System and model configuration.

All physical quantities are SI (meters, Hz, watts). The JSON schema of
:class:`SystemConfig` is flat and uses the exact key names listed in
``JSON_KEYS``; anything else in a config file is rejected.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import InvalidConfigError

# Exact value used for every wavelength/constant derivation. Serialized with
# the config so results can be re-derived under a different convention.
SPEED_OF_LIGHT = 2.99792458e8  # m/s

# Fraction of the region length that the placement GNN's span projection
# reserves, so rounding never pushes an antenna past the region edge.
SPAN_MARGIN_FRACTION = 1e-3

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


def check_finite(name: str, value) -> None:
    """Raise InvalidConfigError unless ``value`` is a finite real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise InvalidConfigError(f"{name} must be a finite number, got {value!r}")


def _integer(name: str, value, low: int) -> int:
    """``value`` as an int >= ``low``; bools, non-finite and non-integral
    numbers fail."""
    check_finite(name, value)
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


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file and ``os.replace``,
    so a reader sees the old file or the whole new one; newlines are
    written as given."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


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
    # Not serialized: overrides eta = c/(2*pi*f_c), a length in m, when set.
    path_const_override_m2: float | None = field(default=None, compare=False)

    def __post_init__(self):
        for name in ("n_waveguides", "n_pinch_per_wg", "n_users"):
            object.__setattr__(self, name, positive_integer(name, getattr(self, name)))
        for name in ("region_side_m", "height_m", "carrier_freq_hz", "refractive_index",
                     "min_gap_m", "power_budget_w", "noise_power_w", "speed_of_light_m_s"):
            check_finite(name, getattr(self, name))
        for name in ("region_side_m", "height_m", "carrier_freq_hz", "power_budget_w",
                     "noise_power_w", "speed_of_light_m_s"):
            if getattr(self, name) <= 0:
                raise InvalidConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.path_const_override_m2 is not None:
            check_finite("path_const_override_m2", self.path_const_override_m2)
            if self.path_const_override_m2 <= 0:
                raise InvalidConfigError(f"path_const_override_m2 must be > 0, got "
                                         f"{self.path_const_override_m2}")
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
        if self.excess_cap <= 0:
            raise InvalidConfigError(
                f"(M-1)*min_gap = {(self.n_pinch_per_wg - 1) * self.min_gap_m:.4g} m "
                f"leaves no feasible layout in a {self.region_side_m} m region "
                f"less its {SPAN_MARGIN_FRACTION:g} span margin")

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
    def excess_cap(self) -> float:
        """Most that a waveguide's gaps may exceed min_gap in total: the
        region length, less the span margin and the M-1 minimum gaps.
        ``__post_init__`` rejects a config where it is not positive."""
        return (self.D - SPAN_MARGIN_FRACTION * self.D) - (self.M - 1) * self.min_gap_m

    @property
    def path_const(self) -> float:
        """Amplitude constant eta = c/(2 pi f_c), a length in m; its square
        root enters the channel gain."""
        if self.path_const_override_m2 is not None:
            return self.path_const_override_m2
        return self.speed_of_light_m_s / (2.0 * math.pi * self.carrier_freq_hz)

    def waveguide_y(self) -> np.ndarray:
        """y-coordinate of each waveguide: (n - 1/2) * D / N, n = 1..N."""
        n = np.arange(1, self.N + 1, dtype=np.float64)
        return (n - 0.5) * self.D / self.N

    def with_snr_db(self, snr_db: float) -> "SystemConfig":
        """Same deployment with the power budget set to snr * noise power.

        Raises InvalidConfigError when that budget overflows or underflows
        to 0 in float64.
        """
        try:
            budget = self.noise_power_w * 10.0 ** (snr_db / 10.0)
        except OverflowError:
            budget = math.inf
        if not 0.0 < budget < math.inf:
            raise InvalidConfigError(
                f"snr_db = {snr_db} puts the power budget out of float range ({budget} W)")
        return replace(self, power_budget_w=budget)

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
        write_atomic(path, json.dumps(self.to_json_dict(), indent=2) + "\n")

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
        noise_power_w=1.0,
    ).with_snr_db(snr_db)


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters shared by the two sub-GNNs; every hidden layer is relu."""

    pbf_layers: int = 3
    tbf_layers: int = 3
    hidden: int = 64        # edge representation width
    message_dim: int = 64   # processor output width

    def __post_init__(self):
        for name in ("pbf_layers", "tbf_layers", "hidden", "message_dim"):
            object.__setattr__(self, name, positive_integer(name, getattr(self, name)))

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ModelConfig":
        data = dict(data)
        # Format-1 checkpoints may name the activation; relu is the only one.
        act = data.pop("activation", "relu")
        if act != "relu":
            raise InvalidConfigError(f"unsupported activation {act!r}; hidden layers are relu")
        return cls(**data)
