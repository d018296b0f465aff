"""Closed-form ergodic capacity from one MGF integral, and its oracle.

Each eigen-component of a spectrum w carries a power Y_i ~ Gamma(m, 1/m)
of mean 1, so X = sum_i w_i Y_i scaled by c has the moment generating
function M(s) = prod_i (1 + c w_i s / m)^(-m). At m = 1, Y_i ~ Exp(1) and
X = ||h||^2 for h ~ CN(0, R) with spectrum w. At any m, w = |D|^2 gives
the no-surface gain sum_j |D_j|^2 E_j^2 of Nakagami-m envelopes E_j, so
the no-surface fixed sum rate has a closed form at every m. With signal
power a, interference b and noise n, Hamdi's lemma (IEEE Trans. Commun.,
2010) gives the capacity as one integral, with X_p = p X / n:

    C ln 2 = E[ln(1 + X_(a+b))] - E[ln(1 + X_b)]
           = int_0^inf (M_b(s) - M_(a+b)(s)) e^(-s) / s ds.

In u = ln s the integrand is analytic in the strip |Im u| < pi at any
m > 0 and decays at both ends, so the trapezoid rule with a fixed step
converges geometrically. `_log_moment_gap` does that integral. At
dimension 1 and m = 1, with signal 1, no interference and noise x, it is
e^x E1(x) = E[ln(1 + Y / x)], Y ~ Exp(1): the exponential integral is the
closed form at dimension 1.
"""

from __future__ import annotations

import math

import numpy as np

# trapezoid step in u = ln s and the u range: past s = e^4, e^(-s) is below
# float resolution; below s = e^-40 / max(c, 1) the integrand is under 1e-17
_STEP = 1.0 / 16.0
_U_LO = -40.0
_U_HI = 4.0
# oracle draws per block, which bounds its (block, d) temporaries and so
# its peak memory, whatever the trial count
_ORACLE_CHUNK = 8192


def _log_moment_gap(a: np.ndarray, b: np.ndarray, m: float) -> float:
    """E[ln(1 + X_a)] - E[ln(1 + X_b)] in nats.

    X_c = sum_i c_i Y_i, Y_i iid Gamma(m, 1/m), for a nonnegative spectrum
    c. M_b - M_a = -M_b expm1(ln M_a - ln M_b) keeps its relative precision
    as s -> 0. The integrand is below float resolution at both ends, so the
    end weights are left at 1.
    """
    top = max(float(np.max(a, initial=0.0)), float(np.max(b, initial=0.0)))
    lo = _U_LO - math.log(max(top, 1.0))
    s = np.exp(_U_HI - _STEP * np.arange(math.ceil((_U_HI - lo) / _STEP) + 1))
    log_ma = -m * np.log1p(np.multiply.outer(s, a / m)).sum(axis=1)
    log_mb = -m * np.log1p(np.multiply.outer(s, b / m)).sum(axis=1)
    values = -np.exp(log_mb - s) * np.expm1(log_ma - log_mb)
    return math.fsum(values) * _STEP


def _spectrum(cov, signal_w: float, interference_w: float,
              noise_power_w: float) -> np.ndarray:
    """Check one link's inputs; return the ascending spectrum w of cov.

    cov must be square, Hermitian and PSD within 1e-12 relative (w is
    clamped at 0); powers finite, signal and interference >= 0, noise > 0.
    """
    if not (0 <= signal_w < math.inf and 0 <= interference_w < math.inf
            and 0 < noise_power_w < math.inf):
        raise ValueError("powers must be finite, signal and interference "
                         ">= 0, noise > 0")
    r = np.asarray(cov, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"covariance must be square, got shape {r.shape}")
    scale = max(float(np.abs(r).max(initial=0.0)), 1.0)
    if np.abs(r - r.conj().T).max(initial=0.0) > 1e-12 * scale:
        raise ValueError("covariance is not Hermitian within 1e-12")
    w = np.linalg.eigvalsh(r)
    if w.min(initial=0.0) < -1e-12 * max(float(w.max(initial=0.0)), 1.0):
        raise ValueError("covariance has a negative eigenvalue beyond tolerance")
    return np.clip(w, 0.0, None)


def closed_form_capacity(cov, signal_w: float, interference_w: float,
                         noise_power_w: float, shape_m: float = 1.0) -> float:
    """Ergodic capacity (bits/s/Hz) of SINR signal X / (interference X + noise).

    X = sum_i w_i Y_i over the spectrum w of cov, Y_i iid Gamma(shape_m,
    1/shape_m); shape_m = 1 is X = ||h||^2, h ~ CN(0, cov). The shape must
    be finite and > 0. The integrand is >= 0, and so is the result.
    """
    w = _spectrum(cov, signal_w, interference_w, noise_power_w)
    if not 0 < shape_m < math.inf:
        raise ValueError("shape_m must be finite and > 0")
    a = (signal_w + interference_w) / noise_power_w * w
    b = interference_w / noise_power_w * w
    return _log_moment_gap(a, b, shape_m) / math.log(2.0)


def ergodic_capacity_mc_oracle(cov, signal_w: float, interference_w: float,
                               noise_power_w: float, trials: int,
                               rng: np.random.Generator) -> tuple:
    """Monte Carlo estimate of the same ergodic capacity, with std-error.

    For h = R^(1/2) hbar, hbar ~ CN(0, I), and R = U diag(w) U^H,
    ||h||^2 = sum_i w_i |(U^H hbar)_i|^2 with U^H hbar ~ CN(0, I), so X is
    drawn as sum_i w_i E_i, E_i iid Exp(1), into the same SINR. The draw
    streams in blocks of ``_ORACLE_CHUNK`` trials, which consume the
    generator as one draw of all trials would, and no capacity outlives
    its block. Returns (mean, std_error) in bits/s/Hz.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    w = _spectrum(cov, signal_w, interference_w, noise_power_w)
    if not np.any(w > 0):
        return 0.0, 0.0
    # S and Q sum each capacity's deviation from the first one, x0, and its
    # square: about one shift the variance Q - S^2/t does not cancel to 0
    # on a near-constant link, as a mean square less the squared mean does
    s = q = 0.0
    for done in range(0, trials, _ORACLE_CHUNK):
        n = min(_ORACLE_CHUNK, trials - done)
        x = rng.standard_exponential((n, w.size)) @ w
        zeta = signal_w * x / (interference_w * x + noise_power_w)
        c = np.log2(1.0 + zeta)
        if done == 0:
            x0 = float(c[0])
        dev = c - x0
        s += float(np.sum(dev))
        q += float(np.sum(dev * dev))
    var = max(q - s * s / trials, 0.0) / trials
    return x0 + s / trials, math.sqrt(var) / math.sqrt(trials)
