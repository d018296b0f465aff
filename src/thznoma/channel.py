"""THz MIMO channel assembly.

Deterministic pieces: a line-of-sight gain with spreading, molecular
absorption and beam-misalignment factors; a multi-ray correction for the
direct BS-user path; and a cascaded per-element gain for the reflecting
surface. Stochastic piece: independent Nakagami-m envelopes on the direct
matrix entries.

All gains are amplitude (not power) quantities. The LoS scalar is
real-positive; propagation phase exp(-j 2 pi d / lambda) enters when
matrices are assembled, so the scalar operations stay directly
comparable against link-budget tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (FAR, NEAR, SPEED_OF_LIGHT, ConfigError, ScenarioConfig,
                     user_geometry)


# ---------------------------------------------------------------------------
# parameter bundles

@dataclass(frozen=True)
class ThzLinkParams:
    frequency_hz: float      # f
    absorption_coeff: float  # kappa(f), 1/m
    distance_m: float        # d, m

    def __post_init__(self):
        if not (math.isfinite(self.frequency_hz) and self.frequency_hz > 0):
            raise ConfigError("frequency_hz", "a finite value > 0", self.frequency_hz)
        if not (math.isfinite(self.absorption_coeff) and self.absorption_coeff >= 0):
            raise ConfigError("absorption_coeff", "a finite value >= 0", self.absorption_coeff)
        if not (math.isfinite(self.distance_m) and self.distance_m > 0):
            raise ConfigError("distance_m", "a finite value > 0", self.distance_m)


@dataclass(frozen=True)
class MisalignmentParams:
    aperture_radius_m: float  # a
    beamwidth_m: float        # beam waist at the receiver plane
    pointing_error_m: float   # l_e

    def __post_init__(self):
        if not (math.isfinite(self.aperture_radius_m) and self.aperture_radius_m > 0):
            raise ConfigError("aperture_radius_m", "a finite value > 0", self.aperture_radius_m)
        if not (math.isfinite(self.beamwidth_m) and self.beamwidth_m > 0):
            raise ConfigError("beamwidth_m", "a finite value > 0", self.beamwidth_m)
        if not self.pointing_error_m >= 0:
            raise ConfigError("pointing_error_m", "a value >= 0", self.pointing_error_m)


@dataclass(frozen=True)
class MultiRayParams:
    ray_count: int       # Q, total rays including LoS
    nlos_gains: tuple    # beta_q, length Q-1
    nlos_delays: tuple   # tau_q (s), length Q-1

    def __post_init__(self):
        if not (isinstance(self.ray_count, int) and self.ray_count >= 1):
            raise ConfigError("ray_count", "an integer >= 1", self.ray_count)
        if len(self.nlos_gains) != self.ray_count - 1:
            raise ConfigError("nlos_gains", f"length {self.ray_count - 1}",
                              list(self.nlos_gains))
        if len(self.nlos_delays) != self.ray_count - 1:
            raise ConfigError("nlos_delays", f"length {self.ray_count - 1}",
                              list(self.nlos_delays))


@dataclass(frozen=True)
class RisParams:
    element_count: int
    reflection_coeffs: np.ndarray  # eta_r in [0,1], shape (R,)
    phase_shifts: np.ndarray       # phi_r (rad), shape (R,)
    bs_to_element_m: np.ndarray    # r_ir, shape (N, R)
    element_to_user_m: np.ndarray  # r_rj, shape (R, M)

    def __post_init__(self):
        r = self.element_count
        if not (isinstance(r, int) and r >= 0):
            raise ConfigError("element_count", "an integer >= 0", r)
        if self.reflection_coeffs.shape != (r,) or self.phase_shifts.shape != (r,):
            raise ConfigError("reflection_coeffs/phase_shifts", f"shape ({r},)",
                              (self.reflection_coeffs.shape, self.phase_shifts.shape))
        if self.bs_to_element_m.shape[1] != r or self.element_to_user_m.shape[0] != r:
            raise ConfigError("bs_to_element_m/element_to_user_m", f"{r} element rows/cols",
                              (self.bs_to_element_m.shape, self.element_to_user_m.shape))
        if r and (np.any(self.bs_to_element_m <= 0) or np.any(self.element_to_user_m <= 0)):
            raise ConfigError("element distances", "all distances > 0", "non-positive entry")
        if np.any(self.reflection_coeffs < 0) or np.any(self.reflection_coeffs > 1):
            raise ConfigError("reflection_coeffs", "all in [0, 1]", "out-of-range entry")


@dataclass(frozen=True)
class FadingModel:
    shape_m: float  # Nakagami shape; unit mean-square envelope (Omega = 1)

    def __post_init__(self):
        if not self.shape_m >= 0.5:
            raise ConfigError("shape_m", "a value >= 0.5", self.shape_m)


# ---------------------------------------------------------------------------
# scalar link gains

def misalignment_factor(mis: MisalignmentParams) -> float:
    """Delta3 = erf(u)^2 exp(-2 l_e^2 / w_e^2), the pointing-loss factor.

    u = sqrt(pi) a / (sqrt(2) w); w_e^2 = w^2 sqrt(pi) erf(u) / (2 u exp(-u^2)).
    Always in (0, 1]; strictly decreasing in |l_e|. For a >> w the erf
    saturates, w_e^2 diverges and the factor tends to 1 when l_e = 0.
    """
    u = math.sqrt(math.pi) * mis.aperture_radius_m / (math.sqrt(2.0) * mis.beamwidth_m)
    erf_u = math.erf(u)
    # exp(u^2) overflows past u ~ 26.6; the factor saturates long before
    try:
        w_eq_sq = (mis.beamwidth_m ** 2 * math.sqrt(math.pi) * erf_u
                   * math.exp(u * u) / (2.0 * u))
    except OverflowError:
        w_eq_sq = math.inf
    if not w_eq_sq > 0:
        raise ConfigError("beamwidth_m", "parameters giving a positive equivalent beamwidth",
                          mis.beamwidth_m)
    if math.isinf(w_eq_sq):
        loss = 1.0 if math.isfinite(mis.pointing_error_m) else 0.0
    else:
        loss = math.exp(-2.0 * mis.pointing_error_m ** 2 / w_eq_sq)
    return erf_u * erf_u * loss


def los_attenuation(link: ThzLinkParams, mis: MisalignmentParams) -> complex:
    """Direct-path amplitude gain Delta1 * Delta2 * Delta3.

    Delta1 = c/(4 pi f d) spreading, Delta2 = exp(-kappa d / 2) molecular
    absorption (amplitude half of the power law), Delta3 misalignment.
    Real-positive, returned as complex with zero phase.
    """
    spread = SPEED_OF_LIGHT / (4.0 * math.pi * link.frequency_hz * link.distance_m)
    absorb = math.exp(-link.absorption_coeff * link.distance_m / 2.0)
    return complex(spread * absorb * misalignment_factor(mis))


def multiray_response(los: complex, rays: MultiRayParams, frequency_hz: float) -> complex:
    """Direct-path response including Q-1 delayed reflected rays.

    los * (1 + sqrt(1/(Q-1)) * sum_q beta_q exp(-j 2 pi f tau_q)).
    Q = 1 returns los unchanged.
    """
    if rays.ray_count == 1:
        return los
    acc = 0.0 + 0.0j
    for beta, tau in zip(rays.nlos_gains, rays.nlos_delays):
        acc += beta * np.exp(-2j * np.pi * frequency_hz * tau)
    factor = 1.0 + math.sqrt(1.0 / (rays.ray_count - 1)) * acc
    return complex(los * factor)


# ---------------------------------------------------------------------------
# fading

def sample_nakagami(model: FadingModel, rng: np.random.Generator, size=None):
    """Nakagami-m envelope draws with E[x^2] = 1.

    x = sqrt(G), G ~ Gamma(shape=m, scale=1/m); density
    2 m^m x^(2m-1) / Gamma(m) * exp(-m x^2).
    """
    return np.sqrt(rng.gamma(model.shape_m, 1.0 / model.shape_m, size))


# ---------------------------------------------------------------------------
# matrix assembly

def _scenario_multiray(cfg: ScenarioConfig) -> MultiRayParams:
    if cfg.freespace_baseline:
        return MultiRayParams(1, (), ())
    return MultiRayParams(cfg.ray_count, tuple(cfg.nlos_gains), tuple(cfg.nlos_delays))


def direct_channel_matrix(cfg: ScenarioConfig, user: int,
                          rng: np.random.Generator | None = None) -> np.ndarray:
    """(M, N) direct BS-user channel; entry (j, i) covers BS antenna i.

    Deterministic entry: multiray_response of the pairwise LoS gain times
    the propagation phase exp(-j 2 pi d_ij / lambda). When rng is given and
    fading is enabled, each entry is scaled by an independent Nakagami
    envelope.

    In the free-space reference mode the entry amplitude is the free-space
    power loss (c / (4 pi f d))^2 at the reference carrier, with no
    absorption, misalignment or extra rays.
    """
    geo = user_geometry(cfg, user)
    d = geo.bs_user_m.T  # (M, N)
    if cfg.freespace_baseline:
        f = cfg.baseline_frequency_hz
        amp = (SPEED_OF_LIGHT / (4.0 * np.pi * f * d)) ** 2
        lam = SPEED_OF_LIGHT / f
    else:
        f = cfg.frequency_hz
        mis = MisalignmentParams(cfg.aperture_radius_m, cfg.beamwidth_m,
                                 cfg.pointing_error_m)
        # Delta3 is distance-free; only spreading and absorption vary per pair
        amp = (SPEED_OF_LIGHT / (4.0 * np.pi * f * d)
               * np.exp(-cfg.absorption_coeff * d / 2.0)
               * misalignment_factor(mis))
        rays = _scenario_multiray(cfg)
        amp = amp * multiray_response(1.0 + 0.0j, rays, f)
        lam = cfg.wavelength_m
    h = amp * np.exp(-2j * np.pi * d / lam)
    if rng is not None and cfg.fading_enabled:
        h = h * sample_nakagami(FadingModel(cfg.shape_m), rng, h.shape)
    h = np.ascontiguousarray(h)
    h.setflags(write=False)
    return h


def ris_element_gain(reflection, phase_rad, wavelength_m, bs_element_m,
                     element_user_m, absorption_coeff):
    """Cascaded gain of one reflecting element for one antenna pair.

    (eta e^{j phi} lambda / (8 sqrt(pi^3) r_ir r_rj))
      * exp(-kappa (r_ir + r_rj) / 2) * exp(-j 2 pi (r_ir + r_rj) / lambda).

    Broadcasts over array-valued inputs. Absorption acts on the full
    traversed path r_ir + r_rj.
    """
    r1 = np.asarray(bs_element_m, dtype=float)
    r2 = np.asarray(element_user_m, dtype=float)
    if np.any(r1 <= 0) or np.any(r2 <= 0):
        raise ConfigError("element distances", "all distances > 0", "non-positive entry")
    path = r1 + r2
    mag = (np.asarray(reflection) * wavelength_m
           / (8.0 * np.sqrt(np.pi ** 3) * r1 * r2)
           * np.exp(-absorption_coeff * path / 2.0))
    return mag * np.exp(1j * (np.asarray(phase_rad) - 2.0 * np.pi * path / wavelength_m))


def ris_matrix_from_params(params: RisParams, wavelength_m: float,
                           absorption_coeff: float) -> np.ndarray:
    """(M, N) surface channel: per-entry coherent sum over all elements.

    Evaluated as a matrix product of the BS-side and user-side element
    factors, which equals the elementwise sum of ris_element_gain over r.
    """
    n = params.bs_to_element_m.shape[0]
    m = params.element_to_user_m.shape[1]
    if params.element_count == 0:
        g = np.zeros((m, n), dtype=complex)
        g.setflags(write=False)
        return g
    r_ir = params.bs_to_element_m          # (N, R)
    r_rj = params.element_to_user_m        # (R, M)
    bs_side = (np.exp(-2j * np.pi * r_ir / wavelength_m)
               * np.exp(-absorption_coeff * r_ir / 2.0) / r_ir)
    user_side = (params.reflection_coeffs[:, None]
                 * np.exp(1j * params.phase_shifts[:, None])
                 * np.exp(-2j * np.pi * r_rj / wavelength_m)
                 * np.exp(-absorption_coeff * r_rj / 2.0) / r_rj)
    g = (wavelength_m / (8.0 * np.sqrt(np.pi ** 3))) * (bs_side @ user_side).T
    g = np.ascontiguousarray(g)
    g.setflags(write=False)
    return g


def ris_channel_matrix(cfg: ScenarioConfig, user: int) -> np.ndarray:
    """(M, N) deterministic surface channel for one user; zeros when R = 0."""
    geo = user_geometry(cfg, user)
    r = cfg.ris_elements
    params = RisParams(
        element_count=r,
        reflection_coeffs=np.full(r, float(cfg.ris_reflection)),
        phase_shifts=cfg.ris_phases(),
        bs_to_element_m=geo.bs_element_m,
        element_to_user_m=geo.element_user_m,
    )
    return ris_matrix_from_params(params, cfg.wavelength_m, cfg.absorption_coeff)


def combine_channels(direct: np.ndarray, ris: np.ndarray) -> np.ndarray:
    """Overall channel H = H_D + G, entrywise.

    The direct part may stack trials ahead of its (M, N) axes; the surface
    part is the same for all of them.
    """
    if direct.shape[direct.ndim - ris.ndim:] != ris.shape:
        raise ValueError(f"channel shape mismatch: {direct.shape} vs {ris.shape}")
    h = direct + ris
    h.setflags(write=False)
    return h
