"""Two-user power-domain NOMA: SIC-ordered SINRs, capacities, outage tests.

The far user has the weaker gain; the near user decodes the far message
first (SIC), then its own. MIMO structure is collapsed to squared
Frobenius-norm channel gains; noise enters as the scalar variance per
receive dimension.
"""

from __future__ import annotations

import numpy as np


def sinr(gain, alpha, residual, tx_power_w, noise_power_w: float):
    """SINR of a message with power share alpha, elementwise in every
    argument but the noise power.

    zeta = p alpha g / (p g residual + s2), where residual is the power
    share of the messages still undecoded at this receiver. Far message at
    the far user: sinr(g_m, a_m, a_n); the same message at the near user
    (the SIC stage): sinr(g_n, a_m, a_n); the near user's own message
    after SIC: sinr(g_n, a_n, 0.0).
    """
    return tx_power_w * alpha * gain / (tx_power_w * gain * residual + noise_power_w)


def capacity(sinr):
    """Shannon spectral efficiency log2(1 + sinr), bits/s/Hz, elementwise.
    np.log2 may differ from math.log2, and one CPU dispatch path from
    another, in the last ulp."""
    s = np.asarray(sinr, dtype=float)
    if np.any(s < 0):
        raise ValueError(f"sinr must be >= 0, got {float(s.min())!r}")
    return np.log2(1.0 + s)


def outage_indicators(c_cross, c_near, c_far, target, alpha_far):
    """(near_outage, far_outage), elementwise over the capacity arrays and
    the target R = R_m = R_n of both users.

    Near user fails if it cannot decode the far message at the target
    (SIC stage) or its own message:
        near = (alpha_m > 0 and C_{n->m} < R) or (C_n < R)
    The SIC clause is vacuous when the far message carries no power
    (alpha_m = 0): there is nothing to decode. Far user fails on its own
    message alone:
        far = C_m < R
    """
    if np.any(np.asarray(target) < 0):
        raise ValueError(f"target rate must be >= 0, got {float(np.min(target))!r}")
    sic_fail = (np.asarray(alpha_far) > 0.0) & (np.asarray(c_cross) < target)
    near = sic_fail | (np.asarray(c_near) < target)
    far = np.asarray(c_far) < target
    return near, far
