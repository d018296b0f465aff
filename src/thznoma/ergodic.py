"""Closed-form ergodic capacity from one MGF integral.

Each component of a spectrum w carries a power Y_i ~ Gamma(m, 1/m)
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
converges geometrically. `_log_moment_gap` does that integral over the
spectrum's distinct entries, each weighted by its count, so its cost and
its (nodes x distinct) temporaries scale with the distinct entries, not
the dimension. Equal-spaced, centred ULAs make |D_j|^2 depend on the
antenna offset alone: the default 16 x 16 link has 16 distinct entries
of 256. At dimension 1 and m = 1, with signal 1, no interference and
noise x, it is e^x E1(x) = E[ln(1 + Y / x)], Y ~ Exp(1): the exponential
integral is the closed form at dimension 1.
"""

from __future__ import annotations

import math

import numpy as np

# trapezoid step in u = ln s and the u range: past s = e^4, e^(-s) is below
# float resolution; below s = e^-40 / max(c, 1) the integrand is under 1e-17
_STEP = 1.0 / 16.0
_U_LO = -40.0
_U_HI = 4.0


def _log_moment_gap(a: np.ndarray, b: np.ndarray, counts: np.ndarray,
                    m: float) -> float:
    """E[ln(1 + X_a)] - E[ln(1 + X_b)] in nats.

    X_c = sum_i c_i Y_i, Y_i iid Gamma(m, 1/m), for a spectrum c >= 0 of
    distinct entries, entry i counts[i] times. M_b - M_a = -M_b expm1(ln
    M_a - ln M_b) keeps its relative precision as s -> 0. The integrand is
    below float resolution at both ends, so the end weights are left at 1.
    """
    top = max(float(np.max(a, initial=0.0)), float(np.max(b, initial=0.0)))
    lo = _U_LO - math.log(max(top, 1.0))
    s = np.exp(_U_HI - _STEP * np.arange(math.ceil((_U_HI - lo) / _STEP) + 1))
    log_ma = -m * (np.log1p(np.multiply.outer(s, a / m)) * counts).sum(axis=1)
    log_mb = -m * (np.log1p(np.multiply.outer(s, b / m)) * counts).sum(axis=1)
    values = -np.exp(log_mb - s) * np.expm1(log_ma - log_mb)
    return math.fsum(values) * _STEP


def closed_form_capacity(w, signal_w: float, interference_w: float,
                         noise_power_w: float, shape_m: float = 1.0) -> float:
    """Ergodic capacity (bits/s/Hz) of SINR signal X / (interference X + noise).

    X = sum_i w_i Y_i over the spectrum w, a 1-D array of values >= 0,
    Y_i iid Gamma(shape_m, 1/shape_m); shape_m = 1 is X = ||h||^2, h ~
    CN(0, R), for R with eigenvalues w. Powers must be finite, signal and
    interference >= 0, noise > 0; the shape finite and > 0; and w, scaled
    by the SINR's powers, finite in the integrand. The result is >= 0.
    """
    if not (0 <= signal_w < math.inf and 0 <= interference_w < math.inf
            and 0 < noise_power_w < math.inf):
        raise ValueError("powers must be finite, signal and interference "
                         ">= 0, noise > 0")
    if not 0 < shape_m < math.inf:
        raise ValueError("shape_m must be finite and > 0")
    w = np.asarray(w, dtype=float)
    flat = w.ndim == 1
    w, counts = np.unique(w, return_counts=True)  # a link's |D|^2 repeats
    with np.errstate(over="ignore", invalid="ignore"):
        a = (signal_w + interference_w) / noise_power_w * w
        b = interference_w / noise_power_w * w
        top = np.max(a, initial=0.0) / shape_m * math.exp(_U_HI)  # largest s a / m
    if not (flat and np.all(w >= 0) and top < math.inf):
        raise ValueError("spectrum must be 1-D, >= 0 and finite scaled by the powers")
    return _log_moment_gap(a, b, counts, shape_m) / math.log(2.0)
