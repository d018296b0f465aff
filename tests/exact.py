"""Exact references the tests hold the simulator and the library to.

Each function computes, by its own route, a quantity the package also
computes: a channel gain as an explicit norm, one surface element's
cascade gain, one Monte Carlo trial through the paper's SINR formulas,
the exponential integral, MGF integrals by adaptive quadrature, the mean
fixed-allocation sum rate without the surface, and Gamma-law bounds on
the no-surface outage. Test modules import them from here and from no
other test module. pytest does not collect this file (no ``test_``
prefix); scipy is a test dependency only.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import gammainc

from thznoma import allocation
from thznoma.allocation import allocate
from thznoma.channel import direct_channel_matrix
from thznoma.config import FAR, NEAR, ConfigError
from thznoma.ergodic import closed_form_capacity
from thznoma.noma import capacity, outage_indicators


def channel_gain(h: np.ndarray):
    """Squared Frobenius norm ||H||^2 = trace(H H^H) over the last two axes.

    The tests' reference for the gains the sweeps form algebraically. A
    stack of matrices (..., M, N) gives one gain per matrix. Each gain is
    the sum over the M*N entries of one row, which equals np.sum over that
    matrix alone bit for bit. A single matrix gives a float.
    """
    h = np.asarray(h)
    flat = h.reshape(h.shape[:-2] + (-1,))
    gain = np.sum(flat.real ** 2, axis=-1) + np.sum(flat.imag ** 2, axis=-1)
    return float(gain) if gain.ndim == 0 else gain


def ris_element_gain(reflection, phase_rad, wavelength_m, bs_element_m,
                     element_user_m, absorption_coeff):
    """Cascaded gain of one reflecting element for one antenna pair.

    (eta e^{j phi} lambda / (8 sqrt(pi^3) r_ir r_rj))
      * exp(-kappa (r_ir + r_rj) / 2) * exp(-j 2 pi (r_ir + r_rj) / lambda).

    The tests' per-element reference for ris_matrix, which forms the same
    sum as a matrix product. Broadcasts over array-valued inputs.
    Absorption acts on the full traversed path r_ir + r_rj.
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


def e1_scaled(x: float) -> float:
    """e^x E1(x) = E[ln(1 + Y / x)], Y ~ Exp(1): the closed form at
    dimension 1 with signal 1, no interference and noise x."""
    return closed_form_capacity(np.eye(1), 1.0, 0.0, x) * math.log(2.0)


def exp_integral_e1(x: float) -> float:
    return e1_scaled(x) * math.exp(-x)


def _mgf_gap_quadrature(a, b, m=1.0) -> float:
    """int_0^inf (M_b(s) - M_a(s)) e^(-s) / s ds by adaptive quadrature,
    split at s = 1, with M_c(s) = prod_i (1 + c_i s / m)^(-m), the MGF of
    sum_i c_i Y_i with Y_i iid Gamma(m, 1/m); m = 1 is Exp(1)."""
    def integrand(s):
        return (np.prod((1.0 + b * s / m) ** -m)
                - np.prod((1.0 + a * s / m) ** -m)) * math.exp(-s) / s
    head = integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-13,
                          limit=200)[0]
    tail = integrate.quad(integrand, 1.0, math.inf, epsabs=0.0, epsrel=1e-13,
                          limit=200)[0]
    return head + tail


def fixed_sum_rate_closed_form(cfg):
    """Mean fixed-allocation sum rate of a scenario without the surface.

    The far user's rate is the capacity of SINR a p X / ((1 - a) p X + s2)
    and the near user's of (1 - a) p X / s2, with X = ||D∘E||^2 =
    sum_j |D_j|^2 E_j^2 and E_j^2 iid Gamma(m, 1/m): the ergodic
    library's closed form on the spectrum |D|^2 at shape m. SIC roles are
    taken never to swap, which holds where the mean gains differ many-fold
    and each gain is a sum of many terms.
    """
    assert cfg.ris_elements == 0
    p, s2, a = cfg.tx_power_w, cfg.noise_power_w, cfg.fixed_alpha_far
    w = [np.abs(direct_channel_matrix(cfg, u).ravel()) ** 2 for u in (FAR, NEAR)]
    return (closed_form_capacity(np.diag(w[FAR]), a * p, (1.0 - a) * p, s2,
                                 cfg.shape_m)
            + closed_form_capacity(np.diag(w[NEAR]), (1.0 - a) * p, 0.0, s2,
                                   cfg.shape_m))


def _reference_trial(cfg, scheme, target, gains):
    """One trial with (far, near) gains through one-gain allocation and the
    paper's SINR formulas, at the target R = R_m = R_n of both users:
    (near_outage, far_outage, sum_rate, alpha_far, feasible_far).

    The SINRs are written out here, not taken from noma.sinr, so the
    kernel is checked against code it does not share."""
    g_far, g_near = gains if gains[0] <= gains[1] else gains[::-1]
    p, s2 = cfg.tx_power_w, cfg.noise_power_w
    alpha_far, feasible_far = allocate(
        allocation.FAIR if scheme == "baseline" else scheme, g_far,
        p, s2, target, cfg.fixed_alpha_far)
    alpha_near = 1.0 - alpha_far
    if scheme != allocation.FIXED and feasible_far:
        c_far = target
    else:
        c_far = capacity(p * alpha_far * g_far / (p * g_far * alpha_near + s2))
    c_cross = capacity(p * alpha_far * g_near / (p * g_near * alpha_near + s2))
    c_near = capacity(p * alpha_near * g_near / s2)
    near, far = outage_indicators(c_cross, c_near, c_far, target, alpha_far)
    return bool(near), bool(far), c_far + c_near, alpha_far, feasible_far


def gamma_bracket(w, x, user):
    """(low, high) bounds on P(g < x) for the far (min) or near (max) gain.

    Without the surface at m = 1 a user's gain X = sum_j w_j E_j, with
    w = |D|^2 one array per user and E_j iid Exp(1), lies between
    w_min G and w_max G with G ~ Gamma(MN, 1), so P(X < x) lies between
    the Gamma CDF at x / w_max and at x / w_min. The users are
    independent: the far (min) gain's CDF is 1 - S0 S1 and the near (max)
    gain's F0 F1.
    """
    ends = []
    for scale in (max, min):
        f0, f1 = (gammainc(wu.size, x / scale(wu)) for wu in w)
        ends.append(1.0 - (1.0 - f0) * (1.0 - f1) if user == "far" else f0 * f1)
    return ends
