"""Power-allocation schemes: exact rate pinning, branches, conformance."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from thznoma.allocation import (FAIR, FIXED, IMPROVED, allocate, fair_pa,
                                fair_pa_iterative, fixed_pa, improved_fair_pa,
                                target_sinr)
from thznoma.noma import LinkBudget, PowerAllocation, capacity, sinr_own

LB = LinkBudget(1.0, 0.1)
P, S2 = LB.tx_power_w, LB.noise_power_w


def _split(alpha_far):
    return (alpha_far, 1.0 - alpha_far)


def test_target_sinr():
    assert target_sinr(0.0) == 0.0
    assert target_sinr(1.0) == 1.0
    assert target_sinr(3.0) == 7.0
    with pytest.raises(ValueError):
        target_sinr(-1.0)


def test_fixed_split():
    alpha, feasible = fixed_pa(0.8)
    assert alpha == 0.8
    assert_allclose(_split(alpha), (0.8, 0.2), rtol=1e-15)
    assert feasible
    with pytest.raises(ValueError):
        fixed_pa(1.5)


def test_fair_reference_value():
    # p=1, g=1, s2=0.1, R=1: alpha = 1*(1+0.1)/(2*1) = 0.55
    alpha, feasible = fair_pa(1.0, P, S2, 1.0)
    assert_allclose(_split(alpha), (0.55, 0.45), rtol=1e-14)
    assert feasible


def test_fair_pins_far_rate_exactly():
    rng = np.random.default_rng(11)
    for _ in range(300):
        g = float(10.0 ** rng.uniform(-14, -9))
        p = float(10.0 ** rng.uniform(-1, 1))
        s2 = float(10.0 ** rng.uniform(-14, -12))
        lb = LinkBudget(p, s2)
        cap_max = math.log2(1.0 + p * g / s2)
        rate = float(rng.uniform(0.0, cap_max))
        alpha, feasible = fair_pa(g, p, s2, rate)
        assert feasible
        pa = PowerAllocation(_split(alpha))
        achieved = capacity(sinr_own(g, pa, 0, lb))
        assert abs(achieved - rate) < 1e-9
        assert abs(sum(pa.coefficients) - 1.0) <= 1e-12


def test_feasibility_boundary():
    # alpha = 1 exactly at g = xi * s2 / p
    xi = target_sinr(1.0)
    g_star = xi * S2 / P
    alpha, feasible = fair_pa(g_star, P, S2, 1.0)
    assert feasible
    assert_allclose(_split(alpha), (1.0, 0.0), rtol=1e-12)
    alpha, feasible = fair_pa(g_star * 0.999, P, S2, 1.0)
    assert not feasible
    assert _split(alpha) == (1.0, 0.0)


def test_infeasible_branches_differ():
    link = (1e-16, P, S2, 4.0)
    basic, basic_feasible = fair_pa(*link)
    improved, improved_feasible = improved_fair_pa(*link)
    assert not basic_feasible and not improved_feasible
    assert _split(basic) == (1.0, 0.0)
    assert _split(improved) == (0.0, 1.0)


def test_zero_target_gives_near_everything():
    alpha, feasible = fair_pa(1.0, P, S2, 0.0)
    assert _split(alpha) == (0.0, 1.0)
    assert feasible


def test_zero_gain_is_infeasible():
    alpha, feasible = fair_pa(0.0, P, S2, 1.0)
    assert not feasible
    assert _split(alpha) == (1.0, 0.0)


def test_allocate_dispatch():
    link = (1.0, P, S2, 1.0)
    assert_allclose(_split(allocate(FIXED, *link, 0.7)[0]), (0.7, 0.3), rtol=1e-15)
    assert allocate(FAIR, *link) == fair_pa(*link)
    assert allocate(IMPROVED, *link) == improved_fair_pa(*link)
    with pytest.raises(ValueError):
        allocate("equal", *link)


def test_far_share_shrinks_with_gain_and_power():
    rates = [fair_pa(g, P, S2, 1.0)[0] for g in np.logspace(-1, 2, 12)]
    assert all(b < a for a, b in zip(rates, rates[1:]))
    powers = [fair_pa(1.0, p, 0.1, 1.0)[0] for p in np.logspace(-1, 2, 12)]
    assert all(b < a for a, b in zip(powers, powers[1:]))
    # floor: even infinite power keeps xi/(1+xi) for the far user
    assert rates[-1] > target_sinr(1.0) / (1.0 + target_sinr(1.0)) - 1e-12


def test_iterative_loop_lands_on_closed_form():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(500):
        g = float(10.0 ** rng.uniform(-16, -10))
        lb = LinkBudget(float(10.0 ** rng.uniform(-1, 1)), 1e-13)
        rate = float(rng.uniform(0.0, 6.0))
        link = (g, lb.tx_power_w, lb.noise_power_w, rate)
        for improved in (False, True):
            closed = improved_fair_pa(*link) if improved else fair_pa(*link)
            loop = fair_pa_iterative(*link, improved=improved)
            assert loop[1] == closed[1]
            worst = max(worst, max(
                abs(a - b) for a, b in zip(_split(closed[0]), _split(loop[0]))))
    assert worst <= 1e-9
