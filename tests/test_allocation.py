"""Power-allocation schemes: exact rate pinning, branches, conformance."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from thznoma.allocation import (FAIR, FIXED, IMPROVED, allocate, fair_alpha,
                                target_sinr)
from thznoma.noma import capacity, sinr

P, S2 = 1.0, 0.1


def fair_pa_iterative(far_gain: float, tx_power_w: float, noise_power_w: float,
                      target_rate: float, improved: bool = False,
                      escalation: float = 1.01, max_iter: int = 1000) -> tuple:
    """Pseudocode-shaped evaluation of the fair schemes, for conformance tests.

    The published loop recomputes the closed-form coefficient, clips it,
    evaluates the achieved far rate and escalates the target SINR whenever
    the rate falls short. Escalation only ever fires on the clipped branch,
    where it cannot help, so the loop lands exactly where the closed form
    does; this implementation exists to demonstrate that.
    """
    p, s2, g = tx_power_w, noise_power_w, far_gain
    xi = target_sinr(target_rate)
    for _ in range(max_iter):
        denom = p * (1.0 + xi) * g
        raw = math.inf if denom == 0.0 else xi * (p * g + s2) / denom
        if raw > 1.0:
            if improved:
                return 0.0, False
            alpha_m, alpha_n = 1.0, 0.0
        else:
            alpha_m, alpha_n = raw, 1.0 - raw
        achieved = math.log2(1.0 + p * alpha_m * g / (p * g * alpha_n + s2))
        # the feasible branch meets the target identically in exact math;
        # allow float rounding of the re-evaluated rate
        if achieved >= target_rate - 1e-9 or xi == 0.0:
            return alpha_m, raw <= 1.0
        xi *= escalation
    # only reachable on the clipped basic-fair branch
    return 1.0, False


def _split(alpha_far):
    return (alpha_far, 1.0 - alpha_far)


def test_target_sinr():
    assert target_sinr(0.0) == 0.0
    assert target_sinr(1.0) == 1.0
    assert target_sinr(3.0) == 7.0
    with pytest.raises(ValueError):
        target_sinr(-1.0)
    # elementwise over rates, each element bit-equal to Python's 2.0 ** R - 1
    rates = np.random.default_rng(8).uniform(0.0, 20.0, (4, 250))
    got = target_sinr(rates)
    assert got.shape == rates.shape
    assert got.tolist() == [[2.0 ** r - 1.0 for r in row] for row in rates.tolist()]
    assert [target_sinr(r) for r in rates[0].tolist()] == got[0].tolist()
    with pytest.raises(ValueError):
        target_sinr(np.array([1.0, -0.5, 2.0]))


def test_fixed_split():
    # channel-blind: the same split at any gain, even one that cannot
    # carry the target
    for g in (1.0, 1e-16, 0.0):
        alpha, feasible = allocate(FIXED, g, P, S2, 4.0, 0.8)
        assert alpha == 0.8
        assert_allclose(_split(alpha), (0.8, 0.2), rtol=1e-15)
        assert feasible


def test_fair_reference_value():
    # p=1, g=1, s2=0.1, R=1: alpha = 1*(1+0.1)/(2*1) = 0.55
    alpha, feasible = allocate(FAIR, 1.0, P, S2, 1.0)
    assert_allclose(_split(alpha), (0.55, 0.45), rtol=1e-14)
    assert feasible


def test_fair_pins_far_rate_exactly():
    rng = np.random.default_rng(11)
    for _ in range(300):
        g = float(10.0 ** rng.uniform(-14, -9))
        p = float(10.0 ** rng.uniform(-1, 1))
        s2 = float(10.0 ** rng.uniform(-14, -12))
        cap_max = math.log2(1.0 + p * g / s2)
        rate = float(rng.uniform(0.0, cap_max))
        alpha, feasible = allocate(FAIR, g, p, s2, rate)
        assert feasible
        achieved = capacity(sinr(g, alpha, 1.0 - alpha, p, s2))
        assert abs(achieved - rate) < 1e-9
        assert abs(sum(_split(alpha)) - 1.0) <= 1e-12


def test_feasibility_boundary():
    # alpha = 1 exactly at g = xi * s2 / p
    xi = target_sinr(1.0)
    g_star = xi * S2 / P
    alpha, feasible = allocate(FAIR, g_star, P, S2, 1.0)
    assert feasible
    assert_allclose(_split(alpha), (1.0, 0.0), rtol=1e-12)
    alpha, feasible = allocate(FAIR, g_star * 0.999, P, S2, 1.0)
    assert not feasible
    assert _split(alpha) == (1.0, 0.0)


def test_infeasible_branches_differ():
    link = (1e-16, P, S2, 4.0)
    basic, basic_feasible = allocate(FAIR, *link)
    improved, improved_feasible = allocate(IMPROVED, *link)
    assert not basic_feasible and not improved_feasible
    assert _split(basic) == (1.0, 0.0)
    assert _split(improved) == (0.0, 1.0)


def test_zero_target_gives_near_everything():
    alpha, feasible = allocate(FAIR, 1.0, P, S2, 0.0)
    assert _split(alpha) == (0.0, 1.0)
    assert feasible


def test_zero_gain_is_infeasible():
    alpha, feasible = allocate(FAIR, 0.0, P, S2, 1.0)
    assert not feasible
    assert _split(alpha) == (1.0, 0.0)


def _pair(result):
    alpha, feasible = result
    return alpha.item(), feasible.item()


def test_allocate_dispatch():
    link = (1.0, P, S2, 1.0)
    assert_allclose(_split(allocate(FIXED, *link, 0.7)[0]), (0.7, 0.3), rtol=1e-15)
    assert allocate(FAIR, *link) == (fair_alpha(*link), True)
    assert allocate(IMPROVED, *link) == allocate(FAIR, *link)
    # a scalar link gives 0-d results, as numpy's own functions do
    for scheme in (FIXED, FAIR, IMPROVED):
        alpha, feasible = allocate(scheme, *link)
        assert np.ndim(alpha) == np.ndim(feasible) == 0
        assert np.asarray(alpha).dtype == float and np.asarray(feasible).dtype == bool
    with pytest.raises(ValueError):
        allocate("equal", *link)
    # elementwise over gains on both branches, equal to the scalar calls
    gains = np.array([0.0, 1e-16, 0.1, 1.0, 10.0])
    for scheme in (FIXED, FAIR, IMPROVED):
        alphas, feasibles = allocate(scheme, gains, P, S2, 1.0, 0.7)
        assert alphas.shape == feasibles.shape == gains.shape
        assert list(zip(alphas.tolist(), feasibles.tolist())) == [
            _pair(allocate(scheme, g, P, S2, 1.0, 0.7)) for g in gains.tolist()]
    # elementwise over rates too, broadcast against the gains; R = 0 at
    # zero gain needs no power for the far user and is feasible
    rates = np.array([0.0, 0.5, 1.0, 3.0, 6.0])
    for scheme in (FIXED, FAIR, IMPROVED):
        alphas, feasibles = allocate(scheme, gains[:, None], P, S2, rates, 0.7)
        assert alphas.shape == feasibles.shape == (gains.size, rates.size)
        got = [list(zip(a, f)) for a, f in zip(alphas.tolist(), feasibles.tolist())]
        assert got == [[_pair(allocate(scheme, g, P, S2, r, 0.7)) for r in rates.tolist()]
                       for g in gains.tolist()]
        assert _pair(allocate(scheme, 0.0, P, S2, 0.0, 0.7)) == (
            (0.7, True) if scheme == FIXED else (0.0, True))
        with pytest.raises(ValueError):
            allocate(scheme, gains, P, S2, np.array([1.0, 2.0, -1.0, 0.5, 0.0]))
    # and over powers: a power column broadcasts against the gains, as the
    # sweeps' grid column does; zero power leaves the far target infeasible
    powers = np.array([[0.0], [0.5], [2.0]])
    for scheme in (FIXED, FAIR, IMPROVED):
        alphas, feasibles = allocate(scheme, gains, powers, S2, 1.0, 0.7)
        assert alphas.shape == feasibles.shape == (powers.size, gains.size)
        got = [list(zip(a, f)) for a, f in zip(alphas.tolist(), feasibles.tolist())]
        assert got == [[_pair(allocate(scheme, g, p, S2, 1.0, 0.7)) for g in gains.tolist()]
                       for p in powers.ravel().tolist()]


def test_far_share_shrinks_with_gain_and_power():
    rates = [allocate(FAIR, g, P, S2, 1.0)[0] for g in np.logspace(-1, 2, 12)]
    assert all(b < a for a, b in zip(rates, rates[1:]))
    powers = [allocate(FAIR, 1.0, p, 0.1, 1.0)[0] for p in np.logspace(-1, 2, 12)]
    assert all(b < a for a, b in zip(powers, powers[1:]))
    # floor: even infinite power keeps xi/(1+xi) for the far user
    assert rates[-1] > target_sinr(1.0) / (1.0 + target_sinr(1.0)) - 1e-12


def test_iterative_loop_lands_on_closed_form():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(500):
        g = float(10.0 ** rng.uniform(-16, -10))
        p = float(10.0 ** rng.uniform(-1, 1))
        rate = float(rng.uniform(0.0, 6.0))
        link = (g, p, 1e-13, rate)
        for improved in (False, True):
            closed = allocate(IMPROVED if improved else FAIR, *link)
            loop = fair_pa_iterative(*link, improved=improved)
            assert loop[1] == closed[1]
            worst = max(worst, max(
                abs(a - b) for a, b in zip(_split(closed[0]), _split(loop[0]))))
    assert worst <= 1e-9
