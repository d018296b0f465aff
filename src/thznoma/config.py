"""Scenario configuration: defaults, validation, INI parsing.

The default scenario is a two-user downlink NOMA pair served by a 16x16
MIMO link at 0.3 THz with a 200-element reflecting surface. The far user
(index 0) sits 500 m from the BS and 150 m from the surface; the near
user (index 1) at 250 m / 250 m. The surface is 100 m from the BS.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 3.0e8  # m/s

FAR, NEAR = 0, 1


class ConfigError(ValueError):
    """Raised when a scenario field violates its constraint."""

    def __init__(self, field_name, constraint, value):
        self.field_name = field_name
        self.constraint = constraint
        self.value = value
        super().__init__(f"config field '{field_name}': expected {constraint}, got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    # carrier and medium
    frequency_hz: float = 0.3e12          # f
    absorption_coeff: float = 0.0033      # kappa(f), 1/m
    # beam misalignment
    aperture_radius_m: float = 0.1        # a
    beamwidth_m: float = 0.2              # effective beam waist at receiver
    pointing_error_m: float = 0.05        # l_e, deterministic per run
    # arrays
    bs_antennas: int = 16                 # N
    user_antennas: int = 16               # M_k, same for both users
    # reflecting surface
    ris_elements: int = 200               # R
    ris_reflection: float = 1.0           # eta_r, shared by all elements
    ris_phase_mode: str = "random"        # "random" | "zero"
    ris_phase_seed: int = 146             # seed for the random phase profile
    # geometry (m); far user = NOMA index 0, near user = index 1
    bs_user_distance_far: float = 500.0
    bs_user_distance_near: float = 250.0
    ris_user_distance_far: float = 150.0
    ris_user_distance_near: float = 250.0
    bs_ris_distance: float = 100.0
    # multi-ray direct channel: 1 LoS ray plus ray_count-1 NLoS rays
    ray_count: int = 4                    # Q
    nlos_gains: tuple = (0.25, 0.18, 0.12)
    nlos_delays: tuple = (1.3e-11, 2.9e-11, 4.7e-11)  # s, excess delays
    # fading
    shape_m: float = 1.0                  # Nakagami shape, m=1 is Rayleigh
    fading_enabled: bool = True
    # power and noise
    tx_power_dbm: float = 30.0            # p_o
    bandwidth_hz: float = 1.0e7           # BW for thermal noise
    noise_figure_db: float = 1.8          # NF
    noise_power_dbm: float | None = None  # overrides the thermal formula when set
    # NOMA
    fixed_alpha_far: float = 0.8          # fixed-PA far-user coefficient
    target_rate: float = 0.5              # R_m = R_n of every point; `outage` sweeps it
    # Monte Carlo
    trials: int = 100000
    workers: int = 1
    # sub-6GHz free-space reference link (no surface, no absorption)
    freespace_baseline: bool = False
    baseline_frequency_hz: float = 3.5e9

    def __post_init__(self):
        _validate(self)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz

    @property
    def tx_power_w(self) -> float:
        return 10.0 ** (self.tx_power_dbm / 10.0) * 1e-3

    @property
    def noise_power_w(self) -> float:
        """Thermal noise -174 dBm/Hz + 10log10(BW) + NF unless overridden."""
        if self.noise_power_dbm is not None:
            dbm = self.noise_power_dbm
        else:
            dbm = -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db
        return 10.0 ** (dbm / 10.0) * 1e-3

    def ris_phases(self) -> np.ndarray:
        """Phase profile phi_r of the surface, radians, shape (R,)."""
        if self.ris_phase_mode == "zero":
            return np.zeros(self.ris_elements)
        rng = np.random.default_rng(self.ris_phase_seed)
        return rng.uniform(0.0, 2.0 * np.pi, self.ris_elements)

    def replace(self, **changes) -> "ScenarioConfig":
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


_POSITIVE = (
    "frequency_hz", "aperture_radius_m", "beamwidth_m", "bandwidth_hz",
    "bs_user_distance_far", "bs_user_distance_near", "ris_user_distance_far",
    "ris_user_distance_near", "bs_ris_distance", "baseline_frequency_hz",
)
_NONNEGATIVE = ("absorption_coeff", "pointing_error_m", "target_rate")
_INT_MINIMUM = {"bs_antennas": 1, "user_antennas": 1, "ris_elements": 0,
                "ris_phase_seed": 0, "ray_count": 1, "trials": 1, "workers": 1}


def _validate(cfg: ScenarioConfig):
    for name in _POSITIVE:
        v = getattr(cfg, name)
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            raise ConfigError(name, "a finite value > 0", v)
    for name in _NONNEGATIVE:
        v = getattr(cfg, name)
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
            raise ConfigError(name, "a finite value >= 0", v)
    for name, low in _INT_MINIMUM.items():
        v = getattr(cfg, name)
        if not (isinstance(v, int) and v >= low):
            raise ConfigError(name, f"an integer >= {low}", v)
    if not (0.0 <= cfg.ris_reflection <= 1.0):
        raise ConfigError("ris_reflection", "a value in [0, 1]", cfg.ris_reflection)
    if cfg.ris_phase_mode not in ("random", "zero"):
        raise ConfigError("ris_phase_mode", "'random' or 'zero'", cfg.ris_phase_mode)
    if len(cfg.nlos_gains) != cfg.ray_count - 1:
        raise ConfigError("nlos_gains", f"length ray_count-1 = {cfg.ray_count - 1}",
                          list(cfg.nlos_gains))
    if len(cfg.nlos_delays) != cfg.ray_count - 1:
        raise ConfigError("nlos_delays", f"length ray_count-1 = {cfg.ray_count - 1}",
                          list(cfg.nlos_delays))
    if not all(map(math.isfinite, cfg.nlos_gains)):
        raise ConfigError("nlos_gains", "finite gains", list(cfg.nlos_gains))
    if not all(math.isfinite(d) and d >= 0 for d in cfg.nlos_delays):
        raise ConfigError("nlos_delays", "finite delays >= 0", list(cfg.nlos_delays))
    if not (math.isfinite(cfg.shape_m) and cfg.shape_m >= 0.5):
        raise ConfigError("shape_m", "a finite value >= 0.5", cfg.shape_m)
    if not math.isfinite(cfg.tx_power_dbm):
        raise ConfigError("tx_power_dbm", "a finite value", cfg.tx_power_dbm)
    if cfg.noise_power_dbm is not None and not math.isfinite(cfg.noise_power_dbm):
        raise ConfigError("noise_power_dbm", "a finite value or unset", cfg.noise_power_dbm)
    if not math.isfinite(cfg.noise_figure_db):
        raise ConfigError("noise_figure_db", "a finite value", cfg.noise_figure_db)
    # 10 ** (dBm / 10) overflows a float above about 3080 dBm
    noise_field = "noise_figure_db" if cfg.noise_power_dbm is None else "noise_power_dbm"
    for name, watts in (("tx_power_dbm", "tx_power_w"), (noise_field, "noise_power_w")):
        try:
            finite = math.isfinite(getattr(cfg, watts))
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError(name, f"a value giving a finite {watts}", getattr(cfg, name))
    # and below about -3206 dBm the noise power underflows to 0 W
    if not cfg.noise_power_w > 0:
        raise ConfigError(noise_field, "a value giving noise_power_w > 0",
                          getattr(cfg, noise_field))
    # the target SINR 2^R - 1 overflows a float from R = 1024 on
    if cfg.target_rate >= 1024:
        raise ConfigError("target_rate", "a value < 1024 (a finite 2^R - 1)",
                          cfg.target_rate)
    if not (0.0 <= cfg.fixed_alpha_far <= 1.0):
        raise ConfigError("fixed_alpha_far", "a value in [0, 1]", cfg.fixed_alpha_far)
    if cfg.freespace_baseline and cfg.ris_elements > 0:
        raise ConfigError("freespace_baseline", "false when ris_elements > 0 "
                          "(the reference link has no surface)", cfg.freespace_baseline)


# ---------------------------------------------------------------------------
# INI parsing
#
# Flat key = value pairs under sections named for the consuming module:
#
#   [channel]      frequency_hz, absorption_coeff, aperture_radius_m,
#                  beamwidth_m, pointing_error_m, bs_antennas, user_antennas,
#                  ris_elements, ris_reflection, ris_phase_mode, ris_phase_seed,
#                  bs_user_distance_far/near, ris_user_distance_far/near,
#                  bs_ris_distance, ray_count, nlos_gains, nlos_delays,
#                  shape_m, fading_enabled
#   [noma]         fixed_alpha_far, target_rate
#   [montecarlo]   tx_power_dbm, bandwidth_hz, noise_figure_db, noise_power_dbm,
#                  trials, workers, freespace_baseline, baseline_frequency_hz
#
# Sequences are comma-separated; booleans are true/false. Unknown sections
# or keys are rejected.

_SECTION_FIELDS = {
    "channel": (
        "frequency_hz", "absorption_coeff", "aperture_radius_m", "beamwidth_m",
        "pointing_error_m", "bs_antennas", "user_antennas", "ris_elements",
        "ris_reflection", "ris_phase_mode", "ris_phase_seed",
        "bs_user_distance_far", "bs_user_distance_near", "ris_user_distance_far",
        "ris_user_distance_near", "bs_ris_distance", "ray_count", "nlos_gains",
        "nlos_delays", "shape_m", "fading_enabled",
    ),
    "noma": ("fixed_alpha_far", "target_rate"),
    "montecarlo": (
        "tx_power_dbm", "bandwidth_hz", "noise_figure_db", "noise_power_dbm",
        "trials", "workers", "freespace_baseline", "baseline_frequency_hz",
    ),
}

# annotation strings: "float", "int", "bool", "str", "tuple" or "float | None"
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}


def _coerce(name: str, raw: str):
    raw = raw.strip()
    kind = _FIELD_TYPES[name]
    try:
        if kind == "str":
            return raw
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError("not a boolean")
        if kind == "tuple":
            if not raw:
                return ()
            return tuple(float(part) for part in raw.split(","))
        if kind == "int":
            return int(raw)
        if kind == "float | None" and raw.lower() in ("", "none"):
            return None
        return float(raw)
    except ValueError as exc:
        raise ConfigError(name, f"a parseable {name} value", raw) from exc


def parse_config(path: str | None = None, overrides: dict | None = None) -> ScenarioConfig:
    """Build a validated ScenarioConfig from an INI file plus overrides.

    Missing file sections and keys fall back to defaults. Unknown keys are
    rejected with the offending name. An empty or absent path yields the
    default scenario.
    """
    values: dict = {}
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError("config", "a readable file path", path) from exc
        except configparser.Error as exc:
            raise ConfigError("config", "well-formed INI syntax", str(exc)) from exc
        for section in parser.sections():
            if section not in _SECTION_FIELDS:
                raise ConfigError(section, f"a section in {sorted(_SECTION_FIELDS)}", section)
            allowed = _SECTION_FIELDS[section]
            for key, raw in parser.items(section):
                if key not in allowed:
                    raise ConfigError(key, f"a key of section [{section}]", key)
                values[key] = _coerce(key, raw)
    if overrides:
        values.update(overrides)
    return ScenarioConfig(**values)


def render_config(cfg: ScenarioConfig) -> str:
    """Render a config as the INI grammar parse_config accepts."""
    lines = []
    for section, names in _SECTION_FIELDS.items():
        lines.append(f"[{section}]")
        for name in names:
            v = getattr(cfg, name)
            if isinstance(v, tuple):
                v = ",".join(repr(x) for x in v)
            lines.append(f"{name} = {v}")
        lines.append("")
    return "\n".join(lines)
