"""THz MIMO channel assembly.

Deterministic pieces: a line-of-sight gain with spreading, molecular
absorption and the scenario's own misalignment factor; a multi-ray
correction for the direct BS-user path; a cascaded per-element gain for
the surface; and the free-space reference link. Stochastic piece:
independent Nakagami-m envelopes on the direct matrix entries.

All gains are amplitude (not power) quantities. The LoS scalar is
real-positive; propagation phase exp(-j 2 pi d / lambda) enters when
matrices are assembled, so the scalar operations stay directly
comparable against link-budget tables.
"""

from __future__ import annotations

import math

import numpy as np

from .config import FAR, NEAR, SPEED_OF_LIGHT, ConfigError, ScenarioConfig


# ---------------------------------------------------------------------------
# scalar link gains

def los_attenuation(frequency_hz: float, absorption_coeff: float, distance_m,
                    misalignment: float):
    """Direct-path amplitude gain Delta1 * Delta2 * Delta3, elementwise in d.

    Delta1 = c/(4 pi f d) spreading, Delta2 = exp(-kappa d / 2) molecular
    absorption (amplitude half of the power law), Delta3 = misalignment,
    the distance-free ScenarioConfig.misalignment. Real-positive, returned
    as complex with zero phase.
    """
    return (SPEED_OF_LIGHT / (4.0 * np.pi * frequency_hz * distance_m)
            * np.exp(-absorption_coeff * distance_m / 2.0) * misalignment + 0j)


def multiray_response(los, nlos_gains, nlos_delays, frequency_hz: float):
    """Direct-path response including Q-1 delayed reflected rays.

    los * (1 + sqrt(1/(Q-1)) * sum_q beta_q exp(-j 2 pi f tau_q)), with
    gains beta_q and excess delays tau_q (s) of the Q-1 = len(nlos_gains)
    reflected rays. Q = 1 returns los unchanged. los may be an array.
    """
    if len(nlos_gains) == 0:
        return los
    acc = 0.0 + 0.0j
    for beta, tau in zip(nlos_gains, nlos_delays, strict=True):
        acc += beta * np.exp(-2j * np.pi * frequency_hz * tau)
    return los * (1.0 + math.sqrt(1.0 / len(nlos_gains)) * acc)


# ---------------------------------------------------------------------------
# fading

def sample_nakagami(shape_m: float, rng: np.random.Generator, size):
    """Nakagami-m envelope draws with E[x^2] = 1.

    x = sqrt(G), G ~ Gamma(shape=m, scale=1/m); density
    2 m^m x^(2m-1) / Gamma(m) * exp(-m x^2). At m = 1 the exponential
    draw gives the same bits and stream state as the gamma draw, faster.
    """
    if shape_m == 1.0:
        return np.sqrt(rng.standard_exponential(size))
    return np.sqrt(rng.gamma(shape_m, 1.0 / shape_m, size))


# ---------------------------------------------------------------------------
# matrix assembly

def _distances(axial_m: float, count_a: int, count_b: int,
               wavelength_m: float) -> np.ndarray:
    """(count_a, count_b) distances between two centred broadside ULAs.

    Both arrays have half-wavelength spacing and lie in parallel planes
    axial_m apart. The stated link distances cannot be embedded in a
    single plane (the BS-RIS, RIS-user, BS-user triple violates the
    triangle inequality for the far user), so each link is laid out
    independently at its own axial separation.
    """
    a, b = ((np.arange(n) - (n - 1) / 2.0) * (wavelength_m / 2.0)
            for n in (count_a, count_b))
    return np.sqrt(axial_m ** 2 + (a[:, None] - b[None, :]) ** 2)


def _user_distances(cfg: ScenarioConfig, user: int) -> tuple:
    """(BS-user, surface-user) axial distances (m) of user 0 (far) or 1 (near)."""
    if user not in (FAR, NEAR):
        raise ConfigError("user", "0 (far) or 1 (near)", user)
    return ((cfg.bs_user_distance_far, cfg.ris_user_distance_far),
            (cfg.bs_user_distance_near, cfg.ris_user_distance_near))[user]


def _phased(amp, d: np.ndarray, wavelength_m: float) -> np.ndarray:
    """amp * exp(-j 2 pi d / lambda), the propagation phase applied."""
    return np.ascontiguousarray(amp * np.exp(-2j * np.pi * d / wavelength_m))


def direct_channel_matrix(cfg: ScenarioConfig, user: int) -> np.ndarray:
    """(M, N) direct BS-user channel; entry (j, i) covers BS antenna i.

    Deterministic entry: multiray_response of the pairwise LoS gain times
    the propagation phase exp(-j 2 pi d_ij / lambda). Fading is not applied
    here: the sweeps scale the entries by Nakagami envelopes per trial.
    """
    axial, _ = _user_distances(cfg, user)
    f, lam = cfg.frequency_hz, cfg.wavelength_m
    d = _distances(axial, cfg.bs_antennas, cfg.user_antennas, lam).T  # (M, N)
    los = los_attenuation(f, cfg.absorption_coeff, d, cfg.misalignment)
    amp = multiray_response(los, cfg.nlos_gains, cfg.nlos_delays, f)
    return _phased(amp, d, lam)


def baseline_channel_matrix(cfg: ScenarioConfig, user: int) -> np.ndarray:
    """(M, N) reference BS-user channel: no surface and no THz carrier.

    The arrays are spaced at cfg.baseline_frequency_hz, and the entry
    amplitude is the free-space power loss (c / (4 pi f d))^2 there, so
    the path loss counts twice; no absorption, misalignment or extra rays.
    The sweeps fade it with Rayleigh envelopes.
    """
    axial, _ = _user_distances(cfg, user)
    f = cfg.baseline_frequency_hz
    lam = SPEED_OF_LIGHT / f
    d = _distances(axial, cfg.bs_antennas, cfg.user_antennas, lam).T  # (M, N)
    return _phased((SPEED_OF_LIGHT / (4.0 * np.pi * f * d)) ** 2, d, lam)


def ris_matrix(reflection, phases, bs_element_m, element_user_m,
               wavelength_m: float, absorption_coeff: float) -> np.ndarray:
    """(M, N) surface channel: per-entry coherent sum over all R elements.

    reflection eta_r and phases phi_r (rad) have shape (R,); the distances
    r_ir and r_rj have shapes (N, R) and (R, M). Element r adds the cascade
    gain eta_r e^{j phi_r} lambda / (8 sqrt(pi^3) r_ir r_rj)
    * exp(-kappa (r_ir + r_rj) / 2) * exp(-j 2 pi (r_ir + r_rj) / lambda),
    with absorption on the full traversed path. Evaluated as a matrix
    product of the BS-side and user-side element factors; R = 0 gives zeros.
    """
    bs_side = (np.exp(-2j * np.pi * bs_element_m / wavelength_m)
               * np.exp(-absorption_coeff * bs_element_m / 2.0) / bs_element_m)
    user_side = (reflection[:, None] * np.exp(1j * phases[:, None])
                 * np.exp(-2j * np.pi * element_user_m / wavelength_m)
                 * np.exp(-absorption_coeff * element_user_m / 2.0) / element_user_m)
    g = (wavelength_m / (8.0 * np.sqrt(np.pi ** 3))) * (bs_side @ user_side).T
    return np.ascontiguousarray(g)


def ris_channel_matrix(cfg: ScenarioConfig, user: int) -> np.ndarray:
    """(M, N) surface channel for one user at the THz carrier; zeros when R = 0."""
    _, axial = _user_distances(cfg, user)
    lam, r = cfg.wavelength_m, cfg.ris_elements
    return ris_matrix(np.full(r, float(cfg.ris_reflection)), cfg.ris_phases(),
                      _distances(cfg.bs_ris_distance, cfg.bs_antennas, r, lam),
                      _distances(axial, r, cfg.user_antennas, lam),
                      lam, cfg.absorption_coeff)
