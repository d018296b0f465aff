"""Power-allocation schemes for the two-user NOMA pair.

Three schemes: a channel-blind fixed split, a fair scheme that pins the
far user exactly at its target rate whenever the link can support it
(falling back to all power for the far user), and an improved variant
that instead diverts all power to the near user when the far target is
unreachable. ``allocate`` returns (alpha_far, feasible): the far user's
power share (the near user gets 1 - alpha_far) and whether the far
target is reachable at the far user's gain ||H_m||^2.
"""

from __future__ import annotations

import numpy as np

FIXED = "fixed"
FAIR = "fair"
IMPROVED = "improved-fair"
SCHEMES = (FIXED, FAIR, IMPROVED)


def target_sinr(target_rate: float) -> float:
    """xi = 2^R - 1, the SINR needed to carry R bits/s/Hz."""
    if target_rate < 0:
        raise ValueError(f"target rate must be >= 0, got {target_rate!r}")
    return 2.0 ** target_rate - 1.0


def fair_alpha(far_gain, tx_power_w: float, noise_power_w: float,
               target_rate: float):
    """Un-clipped far coefficient from the rate equation, elementwise.

    Solving log2(1 + p a g / (p (1-a) g + s2)) = R_m for a gives
    a = xi (p g + s2) / (p (1 + xi) g). Values above 1 (inf at zero gain
    or power) mean even full power cannot reach R_m; xi = 0 gives 0.
    """
    g = np.asarray(far_gain, dtype=float)
    xi = target_sinr(target_rate)
    if xi == 0.0:
        return np.zeros_like(g)
    denom = tx_power_w * (1.0 + xi) * g
    with np.errstate(divide="ignore"):
        alpha = xi * (tx_power_w * g + noise_power_w) / denom
    return np.where(denom == 0.0, np.inf, alpha)


def allocate(scheme: str, far_gain, tx_power_w: float, noise_power_w: float,
             target_rate: float, fixed_alpha_far: float = 0.8):
    """(alpha_far, feasible) of one scheme, elementwise in far_gain.

    fixed: alpha_m = fixed_alpha_far, always feasible. fair: alpha_m =
    fair_alpha where it is <= 1, which pins the far capacity at R_m
    identically, else 1 (all power to the far user). improved-fair: the
    fair split where feasible, else 0 (all power to the near user). A
    scalar gain gives a float and a bool.
    """
    g = np.asarray(far_gain, dtype=float)
    if scheme == FIXED:
        alpha, feasible = np.full_like(g, fixed_alpha_far), np.ones(g.shape, bool)
    elif scheme in (FAIR, IMPROVED):
        alpha = fair_alpha(g, tx_power_w, noise_power_w, target_rate)
        feasible = alpha <= 1.0
        alpha = np.where(feasible, alpha, 1.0 if scheme == FAIR else 0.0)
    else:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if g.ndim == 0:
        return float(alpha), bool(feasible)
    return alpha, feasible

