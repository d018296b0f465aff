"""Power-allocation schemes for the two-user NOMA pair.

Three schemes: a channel-blind fixed split, a fair scheme that pins the
far user exactly at its target rate whenever the link can support it
(falling back to all power for the far user), and an improved variant
that instead diverts all power to the near user when the far target is
unreachable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noma import LinkBudget, PowerAllocation

FIXED = "fixed"
FAIR = "fair"
IMPROVED = "improved-fair"
SCHEMES = (FIXED, FAIR, IMPROVED)


@dataclass(frozen=True)
class PaRequest:
    far_gain: float          # ||H_m||^2
    lb: LinkBudget
    target_rate_far: float   # R_m, bits/s/Hz

    def __post_init__(self):
        if not (math.isfinite(self.far_gain) and self.far_gain >= 0):
            raise ValueError(f"far_gain must be >= 0, got {self.far_gain!r}")
        if not (math.isfinite(self.target_rate_far) and self.target_rate_far >= 0):
            raise ValueError(f"target_rate_far must be >= 0, got {self.target_rate_far!r}")


@dataclass(frozen=True)
class PaResult:
    allocation: PowerAllocation
    feasible_far: bool  # whether C_m >= R_m is achievable at this gain
    scheme: str


def target_sinr(target_rate: float) -> float:
    """xi = 2^R - 1, the SINR needed to carry R bits/s/Hz."""
    if target_rate < 0:
        raise ValueError(f"target rate must be >= 0, got {target_rate!r}")
    return 2.0 ** target_rate - 1.0


def fixed_pa(alpha_far: float) -> PaResult:
    """Channel-blind split (alpha_m, 1 - alpha_m)."""
    if not 0.0 <= alpha_far <= 1.0:
        raise ValueError(f"alpha_far must be in [0,1], got {alpha_far!r}")
    return PaResult(PowerAllocation((alpha_far, 1.0 - alpha_far)),
                    feasible_far=True, scheme=FIXED)


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


def _fair_alpha(req: PaRequest) -> tuple:
    """fair_alpha of one request, plus feasibility."""
    alpha = float(fair_alpha(req.far_gain, req.lb.tx_power_w,
                             req.lb.noise_power_w, req.target_rate_far))
    return alpha, alpha <= 1.0


def fair_pa(req: PaRequest) -> PaResult:
    """Far user pinned at R_m; all power to the far user when infeasible.

    alpha_m = min(1, xi (p g + s2) / (p (1+xi) g)). On the feasible branch
    the far-user capacity equals R_m identically.
    """
    alpha, feasible = _fair_alpha(req)
    if not feasible:
        return PaResult(PowerAllocation((1.0, 0.0)), feasible_far=False, scheme=FAIR)
    return PaResult(PowerAllocation((alpha, 1.0 - alpha)), feasible_far=True, scheme=FAIR)


def improved_fair_pa(req: PaRequest) -> PaResult:
    """Fair split when feasible; all power to the near user otherwise."""
    alpha, feasible = _fair_alpha(req)
    if not feasible:
        return PaResult(PowerAllocation((0.0, 1.0)), feasible_far=False, scheme=IMPROVED)
    return PaResult(PowerAllocation((alpha, 1.0 - alpha)), feasible_far=True, scheme=IMPROVED)


def allocate(scheme: str, req: PaRequest, fixed_alpha_far: float = 0.8) -> PaResult:
    if scheme == FIXED:
        return fixed_pa(fixed_alpha_far)
    if scheme == FAIR:
        return fair_pa(req)
    if scheme == IMPROVED:
        return improved_fair_pa(req)
    raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")


def fair_pa_iterative(req: PaRequest, improved: bool = False,
                      escalation: float = 1.01, max_iter: int = 1000) -> PaResult:
    """Pseudocode-shaped evaluation of the fair schemes, for conformance tests.

    The published loop recomputes the closed-form coefficient, clips it,
    evaluates the achieved far rate and escalates the target SINR whenever
    the rate falls short. Escalation only ever fires on the clipped branch,
    where it cannot help, so the loop lands exactly where the closed form
    does; this implementation exists to demonstrate that.
    """
    p, s2, g = req.lb.tx_power_w, req.lb.noise_power_w, req.far_gain
    xi = target_sinr(req.target_rate_far)
    sentinel_scheme = IMPROVED if improved else FAIR
    for _ in range(max_iter):
        denom = p * (1.0 + xi) * g
        raw = math.inf if denom == 0.0 else xi * (p * g + s2) / denom
        if raw > 1.0:
            if improved:
                return PaResult(PowerAllocation((0.0, 1.0)), False, sentinel_scheme)
            alpha_m, alpha_n = 1.0, 0.0
        else:
            alpha_m, alpha_n = raw, 1.0 - raw
        achieved = math.log2(1.0 + p * alpha_m * g / (p * g * alpha_n + s2))
        # the feasible branch meets the target identically in exact math;
        # allow float rounding of the re-evaluated rate
        if achieved >= req.target_rate_far - 1e-9 or xi == 0.0:
            return PaResult(PowerAllocation((alpha_m, alpha_n)), raw <= 1.0,
                            sentinel_scheme)
        xi *= escalation
    # only reachable on the clipped basic-fair branch
    return PaResult(PowerAllocation((1.0, 0.0)), False, sentinel_scheme)
