"""Two-user power-domain NOMA: SIC-ordered SINRs, capacities, outage tests.

Users are indexed in SIC order: index 0 is the far (weakest-gain) user,
the last index the near (strongest) user. MIMO structure is collapsed to
squared Frobenius-norm channel gains; noise enters as the scalar variance
per receive dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PowerAllocation:
    coefficients: tuple  # alpha_k, SIC order far..near

    def __post_init__(self):
        for a in self.coefficients:
            if not (math.isfinite(a) and -1e-12 <= a <= 1.0 + 1e-12):
                raise ValueError(f"allocation coefficient out of [0,1]: {a!r}")
        s = sum(self.coefficients)
        if abs(s - 1.0) > 1e-12:
            raise ValueError(f"allocation coefficients sum to {s!r}, expected 1")


@dataclass(frozen=True)
class LinkBudget:
    tx_power_w: float     # p_o
    noise_power_w: float  # sigma^2_o

    def __post_init__(self):
        if not (math.isfinite(self.tx_power_w) and self.tx_power_w >= 0):
            raise ValueError(f"tx_power_w must be >= 0, got {self.tx_power_w!r}")
        if not (math.isfinite(self.noise_power_w) and self.noise_power_w > 0):
            raise ValueError(f"noise_power_w must be > 0, got {self.noise_power_w!r}")


def channel_gain(h: np.ndarray):
    """Squared Frobenius norm ||H||^2 = trace(H H^H) over the last two axes.

    A stack of matrices (..., M, N) gives one gain per matrix. Each gain is
    the sum over the M*N entries of one row, which equals np.sum over that
    matrix alone bit for bit. A single matrix gives a float.
    """
    h = np.asarray(h)
    flat = h.reshape(h.shape[:-2] + (-1,))
    gain = np.sum(flat.real ** 2, axis=-1) + np.sum(flat.imag ** 2, axis=-1)
    return float(gain) if gain.ndim == 0 else gain


def _interference(gain: float, pa: PowerAllocation, upto: int, lb: LinkBudget) -> float:
    # power of messages decoded after index `upto` plus noise
    tail = sum(pa.coefficients[upto + 1:])
    return lb.tx_power_w * gain * tail + lb.noise_power_w


def sinr_cross(gain_n: float, pa: PowerAllocation, m: int, lb: LinkBudget) -> float:
    """SINR at a stronger user decoding the weaker user's message m.

    zeta_{n->m} = p alpha_m g_n / (p g_n sum_{l>m} alpha_l + sigma^2).
    """
    k = len(pa.coefficients)
    if not 0 <= m < k - 1:
        raise IndexError(f"cross-decoding index {m} out of range for {k} users")
    return lb.tx_power_w * pa.coefficients[m] * gain_n / _interference(gain_n, pa, m, lb)


def sinr_own(gain_k: float, pa: PowerAllocation, k: int, lb: LinkBudget) -> float:
    """Own-message SINR after SIC removed all weaker-user messages.

    zeta_k = p alpha_k g_k / (p g_k sum_{l>k} alpha_l + sigma^2); the
    interference sum is empty for the last (nearest) user.
    """
    n = len(pa.coefficients)
    if not 0 <= k < n:
        raise IndexError(f"user index {k} out of range for {n} users")
    return lb.tx_power_w * pa.coefficients[k] * gain_k / _interference(gain_k, pa, k, lb)


def capacity(sinr):
    """Shannon spectral efficiency log2(1 + sinr), bits/s/Hz, elementwise.

    math.log2 is applied to each element: np.log2 differs from it in the
    last ulp on a small share of inputs, and sweep outputs are pinned to
    the per-element value.
    """
    s = np.asarray(sinr, dtype=float)
    if np.any(s < 0):
        raise ValueError(f"sinr must be >= 0, got {float(s.min())!r}")
    out = np.fromiter(map(math.log2, (1.0 + s).ravel().tolist()), float, s.size)
    return float(out[0]) if s.ndim == 0 else out.reshape(s.shape)


def outage_indicators(c_cross, c_near, c_far, target_far: float,
                      target_near: float, alpha_far):
    """(near_outage, far_outage), elementwise over the capacity arrays.

    Near user fails if it cannot decode the far message at the far target
    (SIC stage) or its own message at its own target:
        near = (alpha_m > 0 and C_{n->m} < R_m) or (C_n < R_n)
    The SIC clause is vacuous when the far message carries no power
    (alpha_m = 0): there is nothing to decode. Far user fails on its own
    message alone:
        far = C_m < R_m
    """
    if target_far < 0 or target_near < 0:
        raise ValueError("target rates must be >= 0")
    sic_fail = (np.asarray(alpha_far) > 0.0) & (np.asarray(c_cross) < target_far)
    near = sic_fail | (np.asarray(c_near) < target_near)
    far = np.asarray(c_far) < target_far
    return near, far
