"""SIC-ordered SINRs, capacities and the outage truth table, and the
reference definition of a channel gain (tests/exact.py)."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from thznoma.noma import capacity, outage_indicators, sinr

from exact import channel_gain

P, S2 = 1.0, 0.1
A_FAR, A_NEAR = 0.8, 0.2


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
    assert_allclose(sinr(1.0, A_FAR, A_NEAR, P, S2), 8.0 / 3.0, rtol=1e-14)
    assert_allclose(sinr(1.25, A_FAR, A_NEAR, P, S2), 20.0 / 7.0, rtol=1e-14)
    assert_allclose(sinr(1.25, A_NEAR, 0.0, P, S2), 2.5, rtol=1e-14)
    # elementwise over gains and shares
    got = sinr(np.array([1.0, 1.25, 1.25]), np.array([A_FAR, A_FAR, A_NEAR]),
               np.array([A_NEAR, A_NEAR, 0.0]), P, S2)
    assert_allclose(got, [8.0 / 3.0, 20.0 / 7.0, 2.5], rtol=1e-14)


def test_sinr_scale_invariance():
    # scaling power and noise together leaves every SINR unchanged
    for k in (1e-3, 1.0, 1e6):
        assert_allclose(sinr(1.0, A_FAR, A_NEAR, P * k, S2 * k),
                        sinr(1.0, A_FAR, A_NEAR, P, S2), rtol=1e-12)
        assert_allclose(sinr(1.25, A_FAR, A_NEAR, P * k, S2 * k),
                        sinr(1.25, A_FAR, A_NEAR, P, S2), rtol=1e-12)


def test_far_sinr_saturates_with_gain():
    # interference-limited ceiling alpha_m / alpha_n
    vals = [sinr(g, A_FAR, A_NEAR, P, S2) for g in (1.0, 10.0, 1e3, 1e9)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.8 / 0.2
    assert_allclose(vals[-1], 4.0, rtol=1e-6)


def test_near_sinr_linear_in_gain():
    assert_allclose(sinr(2.0, A_NEAR, 0.0, P, S2) / sinr(1.0, A_NEAR, 0.0, P, S2),
                    2.0, rtol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sinr_that_is_not_finite_raises():
    # an overflowing signal, and an overflowing signal over overflowing
    # interference, are no SINR
    for residual in (0.0, A_NEAR):
        with pytest.raises(ValueError, match="SINR must be finite"):
            sinr(np.array([1.0, 1e308]), A_FAR, residual, 10.0, S2)


def test_capacity():
    assert capacity(3.0) == 2.0
    assert capacity(0.0) == 0.0
    assert_allclose(capacity(1.0), 1.0, rtol=1e-15)
    with pytest.raises(ValueError):
        capacity(-0.5)
    # arrays: np.log2 of each element, within 1 ulp of math.log2
    sinr = np.random.default_rng(5).exponential(10.0, (4, 50))
    want = np.array([[math.log2(1.0 + s) for s in row] for row in sinr.tolist()])
    got = capacity(sinr)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= np.spacing(want))
    with pytest.raises(ValueError):
        capacity(np.array([1.0, -0.5]))
    edge = np.array([0.0, -0.0, 1.0, np.inf, np.nan])
    np.testing.assert_array_equal(capacity(edge),
                                  [math.log2(1.0 + s) for s in edge.tolist()])
    # a scalar gives a 0-d result, as numpy's own functions do
    zero = capacity(0.0)
    assert np.ndim(zero) == 0 and zero.dtype == float and zero == 0.0


# (c_cross, c_near, c_far, want) at target 1.0, the far message carrying power
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
    assert outage_indicators(c_cross, c_near, c_far, 1.0, alpha_far) == want
    # elementwise over arrays
    near, far = outage_indicators(*(np.full(3, v) for v in (c_cross, c_near, c_far)),
                                  1.0, np.full(3, alpha_far))
    assert near.tolist() == [want[0]] * 3
    assert far.tolist() == [want[1]] * 3


def test_outage_boundary_is_strict():
    # exactly meeting the target is not an outage
    assert outage_indicators(1.0, 1.0, 1.0, 1.0, 0.8) == (False, False)
    with pytest.raises(ValueError):
        outage_indicators(1.0, 1.0, 1.0, -0.1, 0.8)
    # a column of targets broadcasts against the capacities, one row each
    near, far = outage_indicators(np.full(2, 1.0), np.full(2, 1.0),
                                  np.array([1.0, 2.0]), np.array([[1.0], [1.5]]), 0.8)
    assert near.tolist() == [[False, False], [True, True]]
    assert far.tolist() == [[False, False], [True, False]]
    with pytest.raises(ValueError):
        outage_indicators(1.0, 1.0, 1.0, np.array([[1.0], [-0.1]]), 0.8)


def test_zero_power_yields_zero_sinr():
    assert sinr(5.0, A_FAR, A_NEAR, 0.0, S2) == 0.0
    assert capacity(sinr(5.0, A_NEAR, 0.0, 0.0, S2)) == 0.0
