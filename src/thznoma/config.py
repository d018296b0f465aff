"""Scenario configuration: defaults, validation, INI parsing.

The default scenario is a two-user downlink NOMA pair served by a 16x16
MIMO link at 0.3 THz with a 200-element reflecting surface. The far user
(index 0) sits 500 m from the BS and 150 m from the surface; the near
user (index 1) at 250 m / 250 m. The surface is 100 m from the BS.

Each field is declared once, with its INI section and its check, which
tests the type as well as the range (a bool is not a number). Building a
ScenarioConfig runs the field checks in declaration order, then the ones
that span fields: the NLoS tuple lengths, the derived powers and the
pointing loss. A failure is a ConfigError naming the field, so every
command takes the same scenarios. The direct path has Q = len(nlos_gains)
+ 1 rays; the noise power is thermal, set by noise_figure_db and bandwidth_hz.
The scenario is the link: a run's trial and worker counts are a SweepSpec's.
"""

from __future__ import annotations

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

    def __reduce__(self):
        # rebuilt from its fields, so a pool worker's error unpickles in the parent
        return type(self), (self.field_name, self.constraint, self.value)


def _number(v) -> bool:
    """A finite int or float; a bool is not taken as a number."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _int_at_least(low: int) -> tuple:
    return (f"an integer >= {low}",
            lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= low)


# (constraint, test) checks shared by several fields
_FINITE = ("a finite value", _number)
_ABOVE_ZERO = ("a finite value > 0", lambda v: _number(v) and v > 0)
_NOT_NEGATIVE = ("a finite value >= 0", lambda v: _number(v) and v >= 0)
_SHARE = ("a value in [0, 1]", lambda v: _number(v) and 0 <= v <= 1)
# the channel squares each link distance: below about 1.6e-162 m the square
# underflows to 0 (aligned antennas 0 m apart), above about 1.34e154 m it overflows
_DISTANCE = ("a finite value > 0 whose square is finite and > 0",
             lambda v: _number(v) and v > 0 and 0 < float(v) * v < math.inf)


def _declare(section: str, default, check: tuple):
    """A field with its default, its INI section and its (constraint, test)."""
    return field(default=default, metadata={"section": section, "check": check})


@dataclass(frozen=True)
class ScenarioConfig:
    # carrier and medium
    frequency_hz: float = _declare("channel", 0.3e12, _ABOVE_ZERO)        # f
    absorption_coeff: float = _declare("channel", 0.0033, _NOT_NEGATIVE)  # kappa(f), 1/m
    # beam misalignment: w is the effective beam waist at the receiver, l_e
    # is deterministic per run
    aperture_radius_m: float = _declare("channel", 0.1, _ABOVE_ZERO)      # a
    beamwidth_m: float = _declare("channel", 0.2, _ABOVE_ZERO)            # w
    pointing_error_m: float = _declare("channel", 0.05, _NOT_NEGATIVE)    # l_e
    # arrays, M_k the same for both users
    bs_antennas: int = _declare("channel", 16, _int_at_least(1))          # N
    user_antennas: int = _declare("channel", 16, _int_at_least(1))        # M_k
    # reflecting surface: eta_r is shared by all elements, and the seed
    # draws the random phase profile
    ris_elements: int = _declare("channel", 200, _int_at_least(0))        # R
    ris_reflection: float = _declare("channel", 1.0, _SHARE)              # eta_r
    ris_phase_mode: str = _declare("channel", "random", (
        "'random' or 'zero'", lambda v: isinstance(v, str) and v in ("random", "zero")))
    ris_phase_seed: int = _declare("channel", 146, _int_at_least(0))
    # geometry (m); far user = NOMA index 0, near user = index 1
    bs_user_distance_far: float = _declare("channel", 500.0, _DISTANCE)
    bs_user_distance_near: float = _declare("channel", 250.0, _DISTANCE)
    ris_user_distance_far: float = _declare("channel", 150.0, _DISTANCE)
    ris_user_distance_near: float = _declare("channel", 250.0, _DISTANCE)
    bs_ris_distance: float = _declare("channel", 100.0, _DISTANCE)
    # multi-ray direct channel: 1 LoS ray plus Q-1 = len(nlos_gains) NLoS
    # rays, whose gains and excess delays (s) are equal-length tuples: a
    # list is unhashable (the channel cache) and renders unparseably
    nlos_gains: tuple = _declare("channel", (0.25, 0.18, 0.12), (
        "a tuple of finite numbers", lambda v: isinstance(v, tuple) and all(map(_number, v))))
    nlos_delays: tuple = _declare("channel", (1.3e-11, 2.9e-11, 4.7e-11), (
        "a tuple of finite numbers >= 0",
        lambda v: isinstance(v, tuple) and all(_number(d) and d >= 0 for d in v)))
    # fading; Nakagami shape m = 1 is Rayleigh
    shape_m: float = _declare("channel", 1.0, (
        "a finite value >= 0.5", lambda v: _number(v) and v >= 0.5))
    fading_enabled: bool = _declare("channel", True, (
        "True or False", lambda v: isinstance(v, bool)))
    # power and noise
    tx_power_dbm: float = _declare("montecarlo", 30.0, _FINITE)           # p_o
    bandwidth_hz: float = _declare("montecarlo", 1.0e7, _ABOVE_ZERO)      # BW for thermal noise
    noise_figure_db: float = _declare("montecarlo", 1.8, _FINITE)         # NF
    # NOMA: the fixed-PA far-user coefficient, and R_m = R_n of every point
    # (`outage` sweeps it); the target SINR 2^R - 1 overflows a float from
    # R = 1024 on
    fixed_alpha_far: float = _declare("noma", 0.8, _SHARE)
    target_rate: float = _declare("noma", 0.5, (
        "a value in [0, 1024) (a finite 2^R - 1)", lambda v: _number(v) and 0 <= v < 1024))
    # carrier of the sub-6GHz free-space reference link
    baseline_frequency_hz: float = _declare("montecarlo", 3.5e9, _ABOVE_ZERO)

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
        """Thermal noise -174 dBm/Hz + 10log10(BW) + NF."""
        dbm = -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db
        return 10.0 ** (dbm / 10.0) * 1e-3

    @property
    def misalignment(self) -> float:
        """Delta3 = erf(u)^2 exp(-2 l_e^2 / w_e^2), the pointing-loss factor.

        a = aperture_radius_m, w = beamwidth_m (beam waist at the receiver
        plane), l_e = pointing_error_m, u = sqrt(pi) a / (sqrt(2) w) and
        w_e^2 = w^2 sqrt(pi) erf(u) / (2 u exp(-u^2)). In [0, 1] and falling
        in l_e; for a >> w, w_e^2 diverges and the factor tends to 1.
        """
        w = self.beamwidth_m
        u = math.sqrt(math.pi) * self.aperture_radius_m / (math.sqrt(2.0) * w)
        erf_u = math.erf(u)
        # exp(u^2) overflows past u ~ 26.6 (saturated); u is 0 below a / w ~ 1e-308
        try:
            w_eq_sq = w ** 2 * math.sqrt(math.pi) * erf_u * math.exp(u * u) / (2.0 * u)
        except (OverflowError, ZeroDivisionError):
            w_eq_sq = math.inf
        if not w_eq_sq > 0:
            raise ConfigError("beamwidth_m", "parameters giving a positive equivalent beamwidth", w)
        if math.isinf(w_eq_sq):
            return erf_u * erf_u
        try:
            return erf_u * erf_u * math.exp(-2.0 * self.pointing_error_m ** 2 / w_eq_sq)
        except OverflowError:  # l_e^2 leaves the float range past ~1.3e154 m
            return 0.0

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


def _validate(cfg: ScenarioConfig):
    for f in dataclasses.fields(cfg):
        constraint, test = f.metadata["check"]
        v = getattr(cfg, f.name)
        if not test(v):
            raise ConfigError(f.name, constraint, v)
    if len(cfg.nlos_delays) != len(cfg.nlos_gains):
        raise ConfigError("nlos_delays", f"length len(nlos_gains) = {len(cfg.nlos_gains)}",
                          list(cfg.nlos_delays))
    # 10 ** (dBm / 10) overflows a float above about 3080 dBm
    for name, watts in (("tx_power_dbm", "tx_power_w"), ("noise_figure_db", "noise_power_w")):
        try:
            finite = math.isfinite(getattr(cfg, watts))
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError(name, f"a value giving a finite {watts}", getattr(cfg, name))
    # and below about -3206 dBm the noise power underflows to 0 W
    if not cfg.noise_power_w > 0:
        raise ConfigError("noise_figure_db", "a value giving noise_power_w > 0",
                          cfg.noise_figure_db)
    cfg.misalignment  # raises for a beam that gives no positive w_e^2


# ---------------------------------------------------------------------------
# INI parsing
#
# Flat key = value pairs under the sections the fields declare. Sequences
# are comma-separated; booleans take configparser's spellings (true/false,
# yes/no, on/off, 1/0, in any case). Unknown sections, [DEFAULT] among them
# (empty or not), and unknown keys are rejected; a % is a literal character.

# {section: {field: annotation string}}, the annotation one of "float",
# "int", "bool", "str" or "tuple"
_SECTION_FIELDS = {
    section: {f.name: f.type for f in dataclasses.fields(ScenarioConfig)
              if f.metadata["section"] == section}
    for section in ("channel", "noma", "montecarlo")
}


def _coerce(name: str, kind: str, raw: str, booleans: dict):
    raw = raw.strip()
    try:
        if kind == "str":
            return raw
        if kind == "bool":
            return booleans[raw.lower()]
        if kind == "tuple":
            if not raw:
                return ()
            return tuple(float(part) for part in raw.split(","))
        if kind == "int":
            return int(raw)
        return float(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(name, f"a parseable {name} value", raw) from exc


def parse_config(path: str | None = None) -> ScenarioConfig:
    """Build a validated ScenarioConfig from an INI file.

    Missing file sections and keys fall back to defaults. Unknown sections
    and keys are rejected with the offending name. An empty or absent path
    yields the default scenario.
    """
    values: dict = {}
    if path is not None:
        # imported here: a run of the default scenario reads no INI file
        import configparser

        # no header names the default section "", so [DEFAULT] is a section
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                           interpolation=None, default_section="")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError("config", "a readable file path", path) from exc
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError("config", "well-formed UTF-8 INI", str(exc)) from exc
        for section in parser.sections():
            if section not in _SECTION_FIELDS:
                raise ConfigError(section, f"a section in {sorted(_SECTION_FIELDS)}", section)
            allowed = _SECTION_FIELDS[section]
            for key, raw in parser.items(section):
                if key not in allowed:
                    raise ConfigError(key, f"a key of section [{section}]", key)
                values[key] = _coerce(key, allowed[key], raw,
                                       parser.BOOLEAN_STATES)
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
