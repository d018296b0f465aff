"""SIC-ordered SINRs, capacities and the outage truth table."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from thznoma.noma import (LinkBudget, PowerAllocation, capacity, channel_gain,
                          outage_indicators, sinr_cross, sinr_own)

LB = LinkBudget(tx_power_w=1.0, noise_power_w=0.1)
PA = PowerAllocation((0.8, 0.2))


def test_power_allocation_validation():
    PowerAllocation((0.55, 0.45))
    PowerAllocation((1.0, 0.0))
    with pytest.raises(ValueError):
        PowerAllocation((0.7, 0.2))       # sums to 0.9
    with pytest.raises(ValueError):
        PowerAllocation((1.2, -0.2))      # out of range


def test_link_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(1.0, 0.0)
    with pytest.raises(ValueError):
        LinkBudget(-1.0, 0.1)
    LinkBudget(0.0, 1e-13)


def test_channel_gain_is_squared_frobenius_norm():
    h = np.array([[1 + 1j, 2.0], [0.0, -3j]])
    assert_allclose(channel_gain(h), 1 + 1 + 4 + 9, rtol=1e-15)
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    assert_allclose(channel_gain(m), np.linalg.norm(m) ** 2, rtol=1e-12)
    # a stack of matrices gives each matrix's gain, bit for bit
    stack = rng.standard_normal((3, 16, 16)) + 1j * rng.standard_normal((3, 16, 16))
    assert channel_gain(stack).tolist() == [channel_gain(x) for x in stack]


def test_sinr_reference_values():
    # p=1, s2=0.1, gains (1.0, 1.25), split (0.8, 0.2):
    #   far own     0.8/(0.2 + 0.1)          = 8/3
    #   far at near 0.8*1.25/(0.2*1.25 + 0.1) = 20/7
    #   near own    0.2*1.25/0.1             = 5/2
    assert_allclose(sinr_own(1.0, PA, 0, LB), 8.0 / 3.0, rtol=1e-14)
    assert_allclose(sinr_cross(1.25, PA, 0, LB), 20.0 / 7.0, rtol=1e-14)
    assert_allclose(sinr_own(1.25, PA, 1, LB), 2.5, rtol=1e-14)


def test_sinr_scale_invariance():
    # scaling power and noise together leaves every SINR unchanged
    for k in (1e-3, 1.0, 1e6):
        lb = LinkBudget(LB.tx_power_w * k, LB.noise_power_w * k)
        assert_allclose(sinr_own(1.0, PA, 0, lb), sinr_own(1.0, PA, 0, LB), rtol=1e-12)
        assert_allclose(sinr_cross(1.25, PA, 0, lb), sinr_cross(1.25, PA, 0, LB),
                        rtol=1e-12)


def test_far_sinr_saturates_with_gain():
    # interference-limited ceiling alpha_m / alpha_n
    vals = [sinr_own(g, PA, 0, LB) for g in (1.0, 10.0, 1e3, 1e9)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.8 / 0.2
    assert_allclose(vals[-1], 4.0, rtol=1e-6)


def test_near_sinr_linear_in_gain():
    assert_allclose(sinr_own(2.0, PA, 1, LB) / sinr_own(1.0, PA, 1, LB), 2.0,
                    rtol=1e-12)


def test_index_bounds():
    with pytest.raises(IndexError):
        sinr_own(1.0, PA, 2, LB)
    with pytest.raises(IndexError):
        sinr_cross(1.0, PA, 1, LB)  # last user has no cross stage


def test_capacity():
    assert capacity(3.0) == 2.0
    assert capacity(0.0) == 0.0
    assert_allclose(capacity(1.0), 1.0, rtol=1e-15)
    with pytest.raises(ValueError):
        capacity(-0.5)
    # arrays: math.log2 of each element, bit for bit
    sinr = np.random.default_rng(5).exponential(10.0, (4, 50))
    assert capacity(sinr).tolist() == [[math.log2(1.0 + s) for s in row]
                                       for row in sinr.tolist()]
    with pytest.raises(ValueError):
        capacity(np.array([1.0, -0.5]))


# (c_cross, c_near, c_far, want) at targets 1.0, the far message carrying power
_TABLE = [
    (2.0, 2.0, 2.0, (False, False)),   # everything above target
    (0.5, 2.0, 2.0, (True, False)),    # near fails the SIC stage
    (2.0, 0.5, 2.0, (True, False)),    # near fails its own message
    (0.5, 0.5, 2.0, (True, False)),
    (2.0, 2.0, 0.5, (False, True)),    # far below target
    (0.5, 2.0, 0.5, (True, True)),
    (2.0, 0.5, 0.5, (True, True)),
    (0.5, 0.5, 0.5, (True, True)),
]
# alpha_far = 0: there is no far message to decode, so the SIC stage
# cannot fail the near user
_NO_FAR_POWER = [
    (0.5, 2.0, 2.0, (False, False)),
    (0.5, 0.5, 2.0, (True, False)),
    (0.5, 2.0, 0.5, (False, True)),
    (0.5, 0.5, 0.5, (True, True)),
]


@pytest.mark.parametrize("c_cross,c_near,c_far,alpha_far,want", [
    *(pytest.param(*row[:3], 0.8, row[3], id=f"{row[0]}-{row[1]}-{row[2]}-want{i}")
      for i, row in enumerate(_TABLE)),
    *(pytest.param(*row[:3], 0.0, row[3], id=f"alpha0-{row[0]}-{row[1]}-{row[2]}")
      for row in _NO_FAR_POWER),
])
def test_outage_truth_table(c_cross, c_near, c_far, alpha_far, want):
    assert outage_indicators(c_cross, c_near, c_far, 1.0, 1.0, alpha_far) == want
    # elementwise over arrays
    near, far = outage_indicators(*(np.full(3, v) for v in (c_cross, c_near, c_far)),
                                  1.0, 1.0, np.full(3, alpha_far))
    assert near.tolist() == [want[0]] * 3
    assert far.tolist() == [want[1]] * 3


def test_outage_boundary_is_strict():
    # exactly meeting the target is not an outage
    assert outage_indicators(1.0, 1.0, 1.0, 1.0, 1.0, 0.8) == (False, False)
    with pytest.raises(ValueError):
        outage_indicators(1.0, 1.0, 1.0, -0.1, 1.0, 0.8)


def test_zero_power_yields_zero_sinr():
    lb = LinkBudget(0.0, 0.1)
    assert sinr_own(5.0, PA, 0, lb) == 0.0
    assert capacity(sinr_own(5.0, PA, 1, lb)) == 0.0
