"""Power-allocation schemes for the two-user NOMA pair.

Three schemes: a channel-blind fixed split, a fair scheme that pins the
far user exactly at its target rate whenever the link can support it
(falling back to all power for the far user), and an improved variant
that instead diverts all power to the near user when the far target is
unreachable. ``allocate`` returns (alpha_far, feasible): the far user's
power share (the near user gets 1 - alpha_far) and, for the fair
schemes, whether the far target is reachable at the far user's gain
||H_m||^2. The fixed split is always "feasible", so a count of
far-infeasible trials cannot read ``feasible`` for it. Every function is
elementwise in the far gain, the transmit power and the target rate,
broadcast together; a scalar input gives numpy 0-d results.
"""

from __future__ import annotations

import numpy as np

FIXED = "fixed"
FAIR = "fair"
IMPROVED = "improved-fair"
SCHEMES = (FIXED, FAIR, IMPROVED)
# Python's pow is the C library's on every CPU; numpy's AVX-512 power
# differs from it in the last bit on about 5% of rates
_POW = np.vectorize(pow, otypes=[float])


def target_sinr(target_rate):
    """xi = 2^R - 1, the SINR needed to carry R bits/s/Hz, elementwise."""
    r = np.asarray(target_rate, dtype=float)
    if np.any(r < 0):
        raise ValueError(f"target rate must be >= 0, got {float(r.min())!r}")
    return _POW(2.0, r) - 1.0


def fair_alpha(far_gain, tx_power_w, noise_power_w: float, target_rate):
    """Un-clipped far coefficient from the rate equation, elementwise in
    far_gain, tx_power_w and target_rate.

    Solving log2(1 + p a g / (p (1-a) g + s2)) = R_m for a gives
    a = xi (p g + s2) / (p (1 + xi) g). Values above 1 (inf at zero gain
    or power) mean even full power cannot reach R_m; xi = 0 gives 0.
    """
    g = np.asarray(far_gain, dtype=float)
    xi = target_sinr(target_rate)
    denom = tx_power_w * (1.0 + xi) * g
    # zero gain at R = 0 is 0/0 here; the mask below answers 0 there
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = xi * (tx_power_w * g + noise_power_w) / denom
    return np.where(xi == 0.0, 0.0, np.where(denom == 0.0, np.inf, alpha))


def allocate(scheme: str, far_gain, tx_power_w, noise_power_w: float,
             target_rate, fixed_alpha_far: float = 0.8):
    """(alpha_far, feasible) of one scheme, elementwise in far_gain,
    tx_power_w and target_rate.

    fixed: alpha_m = fixed_alpha_far, always feasible. fair: alpha_m =
    fair_alpha where it is <= 1, which pins the far capacity at R_m
    identically, else 1 (all power to the far user). improved-fair: the
    fair split where feasible, else 0 (all power to the near user).
    """
    if scheme == FIXED:
        shape = np.broadcast_shapes(np.shape(far_gain), np.shape(tx_power_w),
                                    np.shape(target_sinr(target_rate)))
        return np.full(shape, fixed_alpha_far, float), np.ones(shape, bool)
    if scheme not in (FAIR, IMPROVED):
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    alpha = fair_alpha(far_gain, tx_power_w, noise_power_w, target_rate)
    feasible = alpha <= 1.0
    return np.where(feasible, alpha, 1.0 if scheme == FAIR else 0.0), feasible
