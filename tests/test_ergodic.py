"""Closed-form ergodic capacity, its Monte Carlo oracle, and the
exponential integral, Erlang log moments and repeated spectra it reduces
to."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, special, stats

from thznoma import ergodic
from thznoma.ergodic import (_spectrum, closed_form_capacity,
                             ergodic_capacity_mc_oracle)

from exact import e1_scaled, exp_integral_e1

# 40-digit references
E1_AT_1 = 0.21938393439552027
E1_AT_HALF = 0.5597735947761608
E1_AT_10 = 4.156968929685324e-06
SINGLE_EXP_CAPACITY = 0.8603473822708860  # e * E1(1) / ln 2
ERLANG_R3_S2 = 1.8268191453023315         # E[ln(1+2Y)], Y ~ Erlang(3,1)


def test_e1_reference_points():
    assert_allclose(exp_integral_e1(1.0), E1_AT_1, rtol=1e-13)
    assert_allclose(exp_integral_e1(0.5), E1_AT_HALF, rtol=1e-13)
    assert_allclose(exp_integral_e1(10.0), E1_AT_10, rtol=1e-13)


def test_e1_against_library():
    x = np.logspace(-6, math.log10(50.0), 200)
    got = [exp_integral_e1(float(xi)) for xi in x]
    assert_allclose(got, special.exp1(x), rtol=1e-13)


def test_e1_scaled_consistent_and_bounded():
    for x in (0.01, 0.9, 1.1, 5.0, 30.0):
        assert_allclose(e1_scaled(x), exp_integral_e1(x) * math.exp(x), rtol=1e-12)
    # x e^x E1(x) lies in (x/(x+1), 1) for all x > 0; past 1e6 the gap to
    # the lower bound (~1/x^2) falls below float resolution
    for x in (10.0, 100.0, 1e4, 1e6):
        v = e1_scaled(x) * x
        assert x / (x + 1.0) < v < 1.0


def _erlang_log_moment(scale, order):
    # E[ln(1 + scale Y)], Y ~ Erlang(order, 1): ||h||^2 for h ~ CN(0, I_order)
    return closed_form_capacity(np.eye(order), scale, 0.0, 1.0) * math.log(2.0)


def test_erlang_log_moment_reference():
    assert_allclose(_erlang_log_moment(2.0, 3), ERLANG_R3_S2, rtol=1e-13)
    # order 1 is the single-exponential E[ln(1+sX)] = e^(1/s) E1(1/s)
    assert_allclose(_erlang_log_moment(1.0, 1), math.e * E1_AT_1, rtol=1e-13)


@pytest.mark.parametrize("order", [1, 2, 5, 16, 64, 256])
@pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
def test_erlang_log_moment_against_quadrature(order, scale):
    def integrand(y):
        if y <= 0.0:
            return 0.0
        return math.log1p(scale * y) * math.exp(
            (order - 1) * math.log(y) - y - math.lgamma(order))
    lo = max(order - 8 * math.sqrt(order), 0.0)
    hi = order + 12 * math.sqrt(order) + 12
    val, err = integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12,
                              limit=400)
    assert_allclose(_erlang_log_moment(scale, order), val, rtol=5e-9)


def test_covariance_validation():
    closed_form_capacity(np.eye(3), 1.0, 0.0, 1.0)
    ergodic_capacity_mc_oracle(np.eye(3), 1.0, 0.0, 1.0, 10,
                               np.random.default_rng(0))
    bad = (np.array([[1.0, 2.0], [0.0, 1.0]]),  # not Hermitian
           np.diag([1.0, -0.5]),                 # indefinite
           np.ones((2, 3)))                      # not square
    for cov in bad:
        with pytest.raises(ValueError):
            closed_form_capacity(cov, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ergodic_capacity_mc_oracle(cov, 1.0, 0.0, 1.0, 10,
                                       np.random.default_rng(0))


def test_link_power_validation():
    for powers in ((-1.0, 0.0, 1.0), (1.0, -0.1, 1.0), (1.0, 0.0, 0.0),
                   (math.inf, 0.0, 1.0), (1.0, 0.0, math.nan)):
        with pytest.raises(ValueError):
            closed_form_capacity(np.eye(2), *powers)
        with pytest.raises(ValueError):
            ergodic_capacity_mc_oracle(np.eye(2), *powers, 10,
                                       np.random.default_rng(0))
    for shape_m in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            closed_form_capacity(np.eye(2), 1.0, 0.0, 1.0, shape_m)


def test_covariance_spectrum():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    r = a @ a.conj().T
    w = _spectrum(r, 1.0, 0.0, 1.0)
    assert np.all(np.diff(w) >= 0) and np.all(w >= 0)
    assert_allclose(np.sort(w), np.sort(np.linalg.eigvalsh(r)), rtol=1e-12)


def test_single_branch_capacity_reference():
    # h scalar CN(0,1), full power, unit SNR: C = e E1(1) / ln 2
    assert_allclose(closed_form_capacity(np.eye(1), 1.0, 0.0, 1.0),
                    SINGLE_EXP_CAPACITY, rtol=1e-12)


def test_closed_form_vs_oracle_distinct_spectrum():
    # p = 2, alpha = (0.8, 0.2), unit noise
    link = (np.diag([4.0, 3.0, 2.0, 1.0]), 1.6, 0.4, 1.0)
    closed = closed_form_capacity(*link)
    mc, se = ergodic_capacity_mc_oracle(*link, 400000, np.random.default_rng(8))
    assert se > 0
    assert abs(closed - mc) < 4 * se


def test_closed_form_vs_oracle_identity_covariance():
    # repeated eigenvalues (p = 5, alpha = (0.6, 0.4))
    link = (np.eye(6), 3.0, 2.0, 1.0)
    closed = closed_form_capacity(*link)
    mc, se = ergodic_capacity_mc_oracle(*link, 400000, np.random.default_rng(9))
    assert abs(closed - mc) < 4 * se


@pytest.mark.parametrize("dim, trials", [(64, 200_000), (256, 20_000)])
def test_closed_form_vs_oracle_high_dimension(dim, trials):
    # the dimension of the simulated channel vector is N*M = 256
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    r = a @ a.conj().T
    link = (r * (dim / np.trace(r).real), 8.0, 2.0, 1.0)
    closed = closed_form_capacity(*link)
    mc, se = ergodic_capacity_mc_oracle(*link, trials, rng)
    assert se > 0
    assert abs(closed - mc) < 4 * se


class _Log2Recorder:
    """Stands in for numpy in `ergodic` and keeps every log2 argument."""

    def __init__(self):
        self.args = []

    def __getattr__(self, name):
        return getattr(np, name)

    def log2(self, v):
        self.args.append(np.array(v))
        return np.log2(v)


def _complex_gaussian_norm_sq(r, n, rng):
    # reference law: ||R^(1/2) zbar||^2, zbar ~ CN(0, I), R^(1/2) from eigh
    w, u = np.linalg.eigh(r)
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    out = []
    for m in np.diff(np.linspace(0, n, 11).astype(int)):
        shape = (m, w.size)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h = (z * math.sqrt(0.5)) @ root.T
        out.append(np.sum(h.real ** 2 + h.imag ** 2, axis=1))
    return np.concatenate(out)


@pytest.mark.parametrize("dim", [4, 64])
def test_oracle_draw_has_the_complex_gaussian_law(dim, monkeypatch):
    # with signal 1, no interference and unit noise the SINR is X itself,
    # so the oracle's draws of X = ||h||^2 are its log2 arguments minus 1
    rng = np.random.default_rng(100 + dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    r = a @ a.conj().T
    r *= dim / np.trace(r).real
    n = 200_000
    recorder = _Log2Recorder()
    monkeypatch.setattr(ergodic, "np", recorder)
    ergodic_capacity_mc_oracle(r, 1.0, 0.0, 1.0, n, rng)
    x = np.concatenate(recorder.args) - 1.0
    assert x.size == n
    ref = _complex_gaussian_norm_sq(r, n, rng)
    assert stats.ks_2samp(x, ref).pvalue > 1e-3
    assert abs(x.mean() - np.trace(r).real) < 4 * x.std() / math.sqrt(n)


def test_oracle_stderr_does_not_cancel(monkeypatch):
    # every capacity is log2(1 + ~1000) within about 3e-9, so the mean
    # square less the squared mean cancels to 0; deviations from the first
    # capacity, summed over the whole call, keep the spread
    n = 100_000
    recorder = _Log2Recorder()
    monkeypatch.setattr(ergodic, "np", recorder)
    mean, se = ergodic_capacity_mc_oracle(np.eye(64), 1.0, 1e-3, 1e-9, n,
                                          np.random.default_rng(3))
    c = np.log2(np.concatenate(recorder.args))
    exact_mean = math.fsum(c) / n
    exact_se = math.sqrt(math.fsum((c - exact_mean) ** 2) / n / n)
    assert_allclose(mean, exact_mean, rtol=1e-15)
    assert se > 0
    assert_allclose(se, exact_se, rtol=1e-9)


def test_oracle_memory_does_not_grow_with_trials():
    # the draw streams in blocks and no capacity outlives its block, so a
    # million trials peak at one block's (8192, 5) draw and its capacities
    link = (np.diag([0.5, 1.0, 2.0, 3.0, 4.0]), 1.0, 0.2, 1.0)
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        ergodic_capacity_mc_oracle(*link, 1_000_000, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_near_degenerate_cluster_is_stable():
    # two eigenvalues 1e-8 apart move the capacity by about 1.8e-9 bits
    tight = closed_form_capacity(np.diag([3.0, 2.0 + 1e-8, 2.0]), 1.0, 0.0, 1.0)
    exact = closed_form_capacity(np.diag([3.0, 2.0, 2.0]), 1.0, 0.0, 1.0)
    assert math.isfinite(tight)
    assert abs(tight - exact) < 1e-8


def test_interference_free_reduction():
    # interference 0: the plain log moment of the signal form, which for
    # two distinct eigenvalues c1, c2 is the two-term partial fraction
    # (c1 e^(1/c1) E1(1/c1) - c2 e^(1/c2) E1(1/c2)) / (c1 - c2)
    c1, c2 = 2.5, 1.0
    c_full = closed_form_capacity(np.diag([c1, c2]), 1.0, 0.0, 1.0)
    two_term = (c1 * e1_scaled(1.0 / c1) - c2 * e1_scaled(1.0 / c2)) / (c1 - c2)
    assert_allclose(c_full * math.log(2.0), two_term, rtol=1e-12)
    # with interference the capacity is the difference of two such moments
    cov = np.diag([c1, c2])
    diff = (closed_form_capacity(cov, 0.7, 0.0, 1.0)
            - closed_form_capacity(cov, 0.3, 0.0, 1.0))
    assert_allclose(closed_form_capacity(cov, 0.4, 0.3, 1.0), diff, rtol=1e-12)


@pytest.mark.parametrize("shape_m", [2, 3])
def test_integer_shape_is_a_repeated_spectrum(shape_m):
    # at integer m a Gamma(m, 1/m) power is a sum of m iid Exp(1) / m, so
    # each eigenvalue w becomes m CN(0, 1) components of power w / m
    w = np.array([0.3, 1.0, 2.5, 4.0])
    for powers in ((1.0, 0.0, 1.0), (8.0, 2.0, 1.0), (0.05, 0.01, 2.0)):
        gamma = closed_form_capacity(np.diag(w), *powers, shape_m)
        repeated = closed_form_capacity(np.diag(np.repeat(w / shape_m, shape_m)),
                                        *powers)
        assert_allclose(gamma, repeated, rtol=1e-12)


def test_capacity_scale_invariance():
    # scaling covariance by k and power by 1/k leaves the spectrum fixed
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    r = a @ a.conj().T
    c1 = closed_form_capacity(r, 2.0 * 0.7, 2.0 * 0.3, 1.0)
    for k in (1e-6, 1e3):
        c2 = closed_form_capacity(r * k, 2.0 / k * 0.7, 2.0 / k * 0.3, 1.0)
        assert_allclose(c2, c1, rtol=1e-9)


def test_zero_covariance():
    assert closed_form_capacity(np.zeros((3, 3)), 1.0, 0.0, 1.0) == 0.0
    mean, se = ergodic_capacity_mc_oracle(np.zeros((3, 3)), 1.0, 0.0, 1.0, 100,
                                          np.random.default_rng(1))
    assert (mean, se) == (0.0, 0.0)


def test_oracle_seeded_reproducibility():
    link = (np.diag([2.0, 1.0]), 0.8, 0.2, 1.0)
    m1 = ergodic_capacity_mc_oracle(*link, 5000, np.random.default_rng(42))
    m2 = ergodic_capacity_mc_oracle(*link, 5000, np.random.default_rng(42))
    assert m1 == m2
