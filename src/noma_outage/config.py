"""Scenario configuration: physical constants, sweep setup, YAML loading.

Defaults reproduce the reference deployment: a ground station 500 m above
mean sea level at the center of a 222 km cell, aircraft at 10 km altitude
with 10 km minimum separation, a 64-element half-wavelength planar array at
987 MHz, 41 dBm transmit power and -107 dBm noise power per antenna.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from typing import Any

EQUAL_RATE = "equal_rate"
VARIABLE_RATE = "variable_rate"

SPEED_OF_LIGHT = 299_792_458.0

#: Canonical algorithm tokens accepted in configs and on the CLI.  LGSA takes
#: a group-size limit suffix, e.g. "LGSA:2".
ALGORITHM_TOKENS = ("ISU", "SIC_RANDOM", "SIC_CGTR", "SIC_VBLAST", "SSA", "LGSA", "GSA")

DEFAULT_ALGORITHMS = ("ISU", "SIC_RANDOM", "SIC_CGTR", "SIC_VBLAST", "SSA", "LGSA:2", "LGSA:4", "GSA")


class ConfigError(ValueError):
    """Raised when a configuration violates the schema."""


_FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


def _check_field_types(obj, prefix: str = "") -> None:
    """Reject a value of the wrong type, e.g. a YAML "2" or 1.5 where an int
    belongs, and a float that is NaN or infinite; a bool is not taken for a
    number."""
    for f in dataclasses.fields(obj):
        kind, values = f.type, (getattr(obj, f.name),)
        if kind.startswith("tuple["):
            if not isinstance(values[0], tuple):
                raise ConfigError(f"{prefix}{f.name} must be a list, got {values[0]!r}")
            kind, values = kind[len("tuple["):].split(",")[0], values[0]
        expected = _FIELD_KINDS.get(kind)
        if expected is None:
            continue  # a nested parameter block checks its own fields
        for value in values:
            if not isinstance(value, expected) or (isinstance(value, bool) and kind != "bool"):
                raise ConfigError(f"{prefix}{f.name} must be of type {kind}, got {value!r}")
            if kind == "float" and not math.isfinite(value):
                raise ConfigError(f"{prefix}{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class GroundParams:
    """Electrical properties of the reflecting ground (dry ground defaults)."""

    eps_r: float = 3.0
    sigma_sm: float = 1e-4

    def validate(self) -> None:
        _check_field_types(self, "ground.")
        if self.eps_r < 1.0:
            raise ConfigError(f"ground.eps_r must be >= 1, got {self.eps_r}")
        if self.sigma_sm < 0.0:
            raise ConfigError(f"ground.sigma_sm must be >= 0, got {self.sigma_sm}")


@dataclass(frozen=True)
class RectangleSides:
    """Side-length range for reflective rectangles (artifact choice, not a
    measured distribution; must stay well above the carrier wavelength)."""

    min_m: float = 500.0
    max_m: float = 5000.0

    def validate(self) -> None:
        _check_field_types(self, "rectangle_sides.")
        if not 0 < self.min_m <= self.max_m:
            raise ConfigError(
                f"rectangle sides need 0 < min <= max, got {self.min_m}, {self.max_m}"
            )


@dataclass(frozen=True)
class ScenarioConfig:
    """All physical and simulation parameters for one study."""

    earth_radius_m: float = 6_371_000.0
    cell_radius_m: float = 222_000.0
    gs_height_m: float = 500.0
    aircraft_altitude_m: float = 10_000.0
    min_separation_m: float = 10_000.0
    carrier_hz: float = 987e6
    tx_power_dbm: float = 41.0
    noise_power_dbm: float = -107.0
    m_antennas: int = 64
    k_aircraft: int = 32
    coverage_fraction: float = 0.5
    ground: GroundParams = field(default_factory=GroundParams)
    rectangle_sides: RectangleSides = field(default_factory=RectangleSides)

    rate_mode: str = EQUAL_RATE
    #: Equal-rate mode: sweep over these guaranteed rates (bps/Hz).
    r_g_list: tuple[float, ...] = tuple(float(r) for r in range(1, 16))
    #: Variable-rate mode: per-aircraft rates drawn uniformly from [r_g, r_max].
    r_g: float = 2.0
    r_max: float = 6.0
    #: Variable-rate mode: sweep over these aircraft counts.
    k_list: tuple[int, ...] = (4, 8, 12, 16, 20, 24, 28, 32)

    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS
    trials: int = 2000
    master_seed: int = 0
    freeze_reflector_map: bool = False
    threads: int = 1

    def validate(self) -> None:
        _check_field_types(self)
        positive = (
            ("earth_radius_m", self.earth_radius_m),
            ("cell_radius_m", self.cell_radius_m),
            ("gs_height_m", self.gs_height_m),
            ("aircraft_altitude_m", self.aircraft_altitude_m),
            ("min_separation_m", self.min_separation_m),
            ("carrier_hz", self.carrier_hz),
        )
        for name, value in positive:
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.m_antennas < 1 or int(self.m_antennas**0.5 + 0.5) ** 2 != self.m_antennas:
            raise ConfigError(f"m_antennas must be a perfect square, got {self.m_antennas}")
        if self.k_aircraft < 1:
            raise ConfigError(f"k_aircraft must be >= 1, got {self.k_aircraft}")
        if not 0.0 < self.coverage_fraction < 1.0:
            raise ConfigError(
                f"coverage_fraction must lie in (0, 1), got {self.coverage_fraction}"
            )
        self.ground.validate()
        self.rectangle_sides.validate()
        wavelength = SPEED_OF_LIGHT / self.carrier_hz
        if self.rectangle_sides.min_m < 10.0 * wavelength:
            raise ConfigError(
                "rectangle_sides.min_m must be at least 10 wavelengths "
                f"({10.0 * wavelength:.2f} m at {self.carrier_hz:.3e} Hz)"
            )
        if self.rate_mode not in (EQUAL_RATE, VARIABLE_RATE):
            raise ConfigError(f"rate_mode must be equal_rate or variable_rate, got {self.rate_mode!r}")
        if self.rate_mode == EQUAL_RATE and not self.r_g_list:
            raise ConfigError("equal_rate mode needs a non-empty r_g_list")
        if self.rate_mode == VARIABLE_RATE:
            if not self.k_list:
                raise ConfigError("variable_rate mode needs a non-empty k_list")
            if any(k < 1 for k in self.k_list):
                raise ConfigError("k_list entries must be >= 1")
            if self.r_max < self.r_g:
                raise ConfigError(f"r_max must be >= r_g, got {self.r_max} < {self.r_g}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if not self.algorithms:
            raise ConfigError("algorithms must name at least one algorithm")
        seen: dict[tuple, str] = {}  # a sweep writes one row per algorithm and point
        for token in self.algorithms:
            key = parse_algorithm(token)
            if key in seen:
                raise ConfigError(f"algorithms repeat {seen[key]!r} as {token!r}")
            seen[key] = token

    def replace(self, **changes: Any) -> "ScenarioConfig":
        cfg = dataclasses.replace(self, **changes)
        cfg.validate()
        return cfg


def parse_algorithm(token: str) -> tuple[str, int | None]:
    """Split an algorithm token into (name, v_max); v_max is only for LGSA."""
    name, _, suffix = token.partition(":")
    name = name.strip().upper()
    if name not in ALGORITHM_TOKENS:
        raise ConfigError(f"unknown algorithm {token!r}")
    if name == "LGSA":
        if not suffix:
            raise ConfigError("LGSA needs a group-size limit, e.g. LGSA:2")
        try:
            v_max = int(suffix)
        except ValueError as exc:
            raise ConfigError(f"bad LGSA group size in {token!r}") from exc
        if v_max < 1:
            raise ConfigError(f"LGSA group size must be >= 1, got {v_max}")
        return name, v_max
    if suffix:
        raise ConfigError(f"algorithm {name} takes no parameter, got {token!r}")
    return name, None


def config_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    known = {f.name: f for f in dataclasses.fields(ScenarioConfig)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    for name, value in data.items():
        if name == "ground":
            if not isinstance(value, dict) or set(value) - {"eps_r", "sigma_sm"}:
                raise ConfigError(f"ground must map eps_r/sigma_sm, got {value!r}")
            kwargs[name] = GroundParams(**value)
        elif name == "rectangle_sides":
            if not isinstance(value, dict) or set(value) - {"min_m", "max_m"}:
                raise ConfigError(f"rectangle_sides must map min_m/max_m, got {value!r}")
            kwargs[name] = RectangleSides(**value)
        elif name in ("r_g_list", "k_list", "algorithms") and isinstance(value, list):
            kwargs[name] = tuple(value)
        else:
            kwargs[name] = value
    try:
        cfg = ScenarioConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    cfg.validate()
    return cfg


def load_config(path: str) -> ScenarioConfig:
    """Load a YAML config file; missing keys fall back to the defaults."""
    import yaml  # only a --config launch pays for loading it

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if data is None:
        data = {}
    return config_from_dict(data)
