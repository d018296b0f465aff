"""Acceptance suite: one test and one printed pass/fail line per criterion.

Criteria, tolerances and runtime budgets:
  1. closed-form ergodic capacity vs the Monte Carlo oracle of
     tests/exact.py: the spectra of 20 random PSD covariances (dims 2-8)
     x alpha_m {0.6, 0.8} x SNR {0, 10, 20} dB, 1e6 draws, every case
     within 3 std errors, < 5 min.
  2. fair-PA exactness: 1e4 random feasible requests, far capacity equals
     the target within 1e-9 bits/s/Hz, coefficient sums within 1e-12, < 10 s.
  3. outage trends, default scenario, 1e5 trials/point, R_m in 0.5..6:
     (a) fixed-PA far outage non-decreasing and above fair-PA far outage
     by >= 3 std errors at every point with R_m >= 2; (b) improved-fair
     near outage at R_m = 5 below basic fair by 10-70% relative, < 10 min.
  4. sum-rate trends at the default scenario: fair over fixed gain in
     [10%, 40%] at 30 dBm, fair over the free-space reference >= 100%,
     every scheme monotone across 0-30 dBm, < 10 min.
  5. E1, the closed form at dimension 1, within 1e-12 relative of the
     MGF quadrature in tests/exact.py on a 200-point log grid [1e-6, 50];
     Nakagami sampler KS statistic < 0.002 at 1e6 draws for m in
     {0.5, 1, 3}.
  6. same seed and any worker count give byte-identical CSV output.
  7. channel invariants: pointing-loss monotone in l_e, attenuation
     monotone in d and kappa, surface global-phase magnitude invariance,
     coherent-vs-random element scaling (R vs sqrt(R) within 10%).
"""

import math
import time

import numpy as np
from scipy import special, stats

from thznoma.allocation import FAIR, allocate
from thznoma.channel import (_distances, direct_channel_matrix, los_attenuation,
                             ris_matrix, sample_nakagami)
from thznoma.cli import main
from thznoma.config import FAR, NEAR, ScenarioConfig
from thznoma.ergodic import closed_form_capacity
from thznoma.montecarlo import SweepSpec, run_outage_sweep, run_sumrate_sweep
from thznoma.noma import capacity, sinr

from exact import (_mgf_gap_quadrature, e1_scaled, ergodic_capacity_mc_oracle,
                   random_psd, ris_element_gain)

SEED_ORACLE = 1
SEED_PA = 7
SEED_SWEEPS = 12345
SEED_KS = 2025


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def _criterion_1_links(rng):
    """Criterion 1's 120 links: the spectra of 20 covariances drawn from
    rng first, then each with alpha_m in {0.6, 0.8} and SNR in {0, 10,
    20} dB."""
    spectra = []
    for _ in range(20):
        spectra.append(np.linalg.eigvalsh(random_psd(rng, int(rng.integers(2, 9)))))
    links = []
    for w in spectra:
        for alpha in (0.6, 0.8):
            for snr_db in (0.0, 10.0, 20.0):
                p = 10.0 ** (snr_db / 10.0)
                links.append((w, p * alpha, p * (1.0 - alpha), 1.0))
    return links


def test_criterion_1_closed_form_matches_oracle():
    """The closed form against the oracle of tests/exact.py, a second
    sampler of the same law on random spectra; `thznoma validate` checks
    the scenario's own simulated link instead. The worst of 120
    independent margins is held to 3 SE, so correct code fails on some
    seeds: over seeds 1-20, seeds 6, 11 and 16 fail (3.33, 3.09 and
    3.72 SE), about 15%. Seed 1 passes at 2.51 SE.
    `test_closed_form_matches_quadrature` is the deterministic counterpart
    on the same 120 links."""
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED_ORACLE)
    worst = 0.0
    cases = 0
    for link in _criterion_1_links(rng):
        closed = closed_form_capacity(*link)
        mc, se = ergodic_capacity_mc_oracle(*link, 1_000_000, rng)
        worst = max(worst, abs(closed - mc) / se)
        cases += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 3.0 and cases == 120 and elapsed < 300.0
    _report(1, ok, f"{cases} cases, worst margin {worst:.2f} SE, {elapsed:.0f} s")
    assert worst <= 3.0, f"worst oracle disagreement {worst:.2f} SE"
    assert elapsed < 300.0


def _scenario_links(m):
    """The default no-surface scenario's two fixed-PA links, one per user,
    at each `sumrate` power: the links `fixed_sum_rate_closed_form` reads,
    as (|D|^2, signal, interference, noise)."""
    links = []
    for dbm in (0.0, 6.0, 12.0, 18.0, 24.0, 30.0):
        cfg = ScenarioConfig(ris_elements=0, shape_m=m, tx_power_dbm=dbm)
        p, s2, a = cfg.tx_power_w, cfg.noise_power_w, cfg.fixed_alpha_far
        for user, signal, interference in ((FAR, a * p, (1.0 - a) * p),
                                           (NEAR, (1.0 - a) * p, 0.0)):
            w = np.abs(direct_channel_matrix(cfg, user).ravel()) ** 2
            links.append((w, signal, interference, s2))
    return links


def test_closed_form_matches_quadrature():
    """The closed form checked without sampling, against the adaptive
    quadrature of the same MGF integral in tests/exact.py, with Gamma(m, 1/m)
    components at m = 1 (CN(0, R)) and at m = 0.5 and 3: on criterion 1's
    120 links, and on the default no-surface scenario's own links."""
    crit1 = _criterion_1_links(np.random.default_rng(SEED_ORACLE))
    worst = 0.0
    for m in (0.5, 1.0, 3.0):
        for w, signal, interference, noise in crit1 + _scenario_links(m):
            a = (signal + interference) / noise * w
            b = interference / noise * w
            exact = _mgf_gap_quadrature(a, b, m) / math.log(2.0)
            closed = closed_form_capacity(w, signal, interference, noise, m)
            worst = max(worst, abs(closed - exact) / exact)
    assert worst <= 1e-14, f"worst relative difference {worst:.2e}"


def test_criterion_2_fair_pa_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED_PA)
    worst_rate = 0.0
    worst_sum = 0.0
    for _ in range(10_000):
        g = float(10.0 ** rng.uniform(-14, -9))
        p = float(10.0 ** rng.uniform(-1, 1))
        s2 = float(10.0 ** rng.uniform(-14, -12))
        rate = float(rng.uniform(0.0, math.log2(1.0 + p * g / s2)))
        alpha, feasible = allocate(FAIR, g, p, s2, rate)
        assert feasible
        achieved = capacity(sinr(g, alpha, 1.0 - alpha, p, s2))
        worst_rate = max(worst_rate, abs(achieved - rate))
        worst_sum = max(worst_sum, abs(sum((alpha, 1.0 - alpha)) - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst_rate <= 1e-9 and worst_sum <= 1e-12 and elapsed < 10.0
    _report(2, ok, f"1e4 requests, worst rate error {worst_rate:.2e}, "
                   f"worst sum error {worst_sum:.2e}, {elapsed:.1f} s")
    assert worst_rate <= 1e-9
    assert worst_sum <= 1e-12
    assert elapsed < 10.0


def test_criterion_3_outage_trends():
    """Grid points share each chunk's gains, so "fixed-far non-decreasing"
    holds on every sample path: the fixed far capacity does not depend on
    R_m and its outage event only grows with R_m."""
    t0 = time.monotonic()
    cfg = ScenarioConfig()
    grid = tuple(0.5 + 0.5 * k for k in range(12))
    spec = SweepSpec(grid=grid, schemes=("fixed", "fair", "improved-fair"),
                     seed=SEED_SWEEPS, trials=100_000)
    res = run_outage_sweep(spec, cfg)
    fixed_far, fixed_se = res["fixed", "far_outage"]
    fair_far, fair_se = res["fair", "far_outage"]
    nondecreasing = bool(np.all(np.diff(fixed_far) >= 0))
    gap_ok = all(
        fixed_far[i] - fair_far[i] >= 3.0 * math.hypot(fixed_se[i], fair_se[i])
        for i, r in enumerate(grid) if r >= 2.0)
    i5 = grid.index(5.0)
    fair_near = res["fair", "near_outage"][0][i5]
    improved_near = res["improved-fair", "near_outage"][0][i5]
    margin = (fair_near - improved_near) / fair_near
    elapsed = time.monotonic() - t0
    ok = nondecreasing and gap_ok and 0.10 <= margin <= 0.70 and elapsed < 600.0
    _report(3, ok, f"fixed-far nondecreasing {nondecreasing}, fair gap >= 3 SE "
                   f"{gap_ok}, near margin at R=5 {margin:.1%}, {elapsed:.0f} s")
    assert nondecreasing, f"fixed far outage not monotone: {fixed_far}"
    assert gap_ok
    assert 0.10 <= margin <= 0.70, f"improved-fair margin {margin:.3f}"
    assert elapsed < 600.0


def test_criterion_4_sum_rate_trends():
    """Grid points share each chunk's gains, so "monotone in power" holds on
    every sample path for fixed, fair and the baseline. Improved-fair can
    fall on a path where the far target becomes reachable (the NOMA split
    then carries less than the near user alone did), so for it the check
    stays statistical."""
    t0 = time.monotonic()
    cfg = ScenarioConfig()
    grid = (0.0, 6.0, 12.0, 18.0, 24.0, 30.0)
    spec = SweepSpec(grid=grid,
                     schemes=("fixed", "fair", "improved-fair", "baseline"),
                     seed=SEED_SWEEPS, trials=100_000)
    res = run_sumrate_sweep(spec, cfg)
    monotone = all(bool(np.all(np.diff(res[s, "sum_rate"][0]) >= 0))
                   for s in spec.schemes)
    fair30 = res["fair", "sum_rate"][0][-1]
    fixed30 = res["fixed", "sum_rate"][0][-1]
    base30 = res["baseline", "sum_rate"][0][-1]
    gain_fixed = fair30 / fixed30 - 1.0
    gain_base = fair30 / base30 - 1.0
    elapsed = time.monotonic() - t0
    ok = (0.10 <= gain_fixed <= 0.40 and gain_base >= 1.0 and monotone
          and elapsed < 600.0)
    _report(4, ok, f"fair/fixed gain {gain_fixed:.1%}, fair/baseline gain "
                   f"{gain_base:.3g}, monotone {monotone}, {elapsed:.0f} s")
    assert 0.10 <= gain_fixed <= 0.40, f"fair-over-fixed gain {gain_fixed:.3f}"
    assert gain_base >= 1.0, f"fair-over-baseline gain {gain_base:.3f}"
    assert monotone
    assert elapsed < 600.0


def test_criterion_5_special_functions():
    worst_e1 = 0.0
    for x in np.logspace(-6, math.log10(50.0), 200):
        ref = _mgf_gap_quadrature(np.array([1.0 / x]), np.zeros(1))
        worst_e1 = max(worst_e1, abs(e1_scaled(float(x)) - ref) / ref)

    worst_ks = 0.0
    for m in (0.5, 1.0, 3.0):
        rng = np.random.default_rng(SEED_KS)
        draws = sample_nakagami(m, rng, 1_000_000)
        ks = stats.kstest(draws, lambda t, m=m: special.gammainc(m, m * t * t))
        worst_ks = max(worst_ks, float(ks.statistic))

    ok = worst_e1 <= 1e-12 and worst_ks < 0.002
    _report(5, ok, f"E1 worst rel error {worst_e1:.2e} over 200 points, "
                   f"worst KS statistic {worst_ks:.5f}")
    assert worst_e1 <= 1e-12
    assert worst_ks < 0.002


def test_criterion_6_worker_count_determinism(tmp_path, pool_starts):
    ini = tmp_path / "small.ini"
    ini.write_text("[channel]\nbs_antennas = 4\nuser_antennas = 4\n"
                   "ris_elements = 16\n", encoding="utf-8")

    def run(cmd, grid, workers, out):
        rc = main([cmd, "--config", str(ini), "--seed", "31", "--grid", grid,
                   "--trials", "2100", "--workers", str(workers),
                   "--out", str(tmp_path / out)])
        assert rc == 0
        name = "outage.csv" if cmd == "outage" else "sumrate.csv"
        with open(tmp_path / out / name, "rb") as fh:
            return fh.read()

    out_bytes = [run("outage", "0.5:1.5:1", w, f"o{w}") for w in (1, 2, 3)]
    sum_bytes = [run("sumrate", "10", w, f"s{w}") for w in (1, 2)]
    # three chunks, one a worker: every run above 1 worker forked a pool
    assert pool_starts == [2, 3, 2]
    ok = (out_bytes[0] == out_bytes[1] == out_bytes[2]
          and sum_bytes[0] == sum_bytes[1])
    _report(6, ok, f"outage CSV identical across workers 1/2/3: "
                   f"{out_bytes[0] == out_bytes[1] == out_bytes[2]}, "
                   f"sumrate across 1/2: {sum_bytes[0] == sum_bytes[1]}")
    assert out_bytes[0] == out_bytes[1] == out_bytes[2]
    assert sum_bytes[0] == sum_bytes[1]


def test_criterion_7_channel_invariants():
    # pointing loss monotone in l_e
    d3 = [ScenarioConfig(aperture_radius_m=0.1, beamwidth_m=0.2,
                         pointing_error_m=le).misalignment
          for le in np.linspace(0.0, 0.5, 26)]
    mono_le = all(b < a for a, b in zip(d3, d3[1:]))

    # attenuation monotone in distance and in absorption
    mis = ScenarioConfig(aperture_radius_m=0.1, beamwidth_m=0.2,
                         pointing_error_m=0.05).misalignment
    att_d = [los_attenuation(0.3e12, 0.0033, d, mis).real
             for d in np.linspace(50.0, 1000.0, 20)]
    att_k = [los_attenuation(0.3e12, k, 300.0, mis).real
             for k in np.linspace(0.0, 0.05, 20)]
    mono_d = all(b < a for a, b in zip(att_d, att_d[1:]))
    mono_k = all(b < a for a, b in zip(att_k, att_k[1:]))

    # global phase shift leaves surface-channel magnitudes unchanged
    cfg = ScenarioConfig()
    lam, r = cfg.wavelength_m, cfg.ris_elements
    bs_element = _distances(cfg.bs_ris_distance, cfg.bs_antennas, r, lam)
    element_user = _distances(cfg.ris_user_distance_far, r, cfg.user_antennas, lam)
    base = cfg.ris_phases()
    mk = lambda ph: ris_matrix(np.ones(r), ph, bs_element, element_user, lam,
                               cfg.absorption_coeff)
    g0 = mk(base)
    phase_inv = all(
        np.allclose(np.abs(mk(base + delta)), np.abs(g0), rtol=1e-9)
        for delta in (0.3, 1.7, np.pi))

    # element scaling: coherent sum grows like R, random phases like sqrt(R)
    r_count = 200
    lam = 1e-3
    r1 = np.full((1, r_count), 100.0)  # whole wavelengths: aligned phases
    r2 = np.full((r_count, 1), 150.0)
    ones = np.ones(r_count)
    single = abs(ris_element_gain(1.0, 0.0, lam, 100.0, 150.0, 0.0))
    coherent = abs(ris_matrix(ones, np.zeros(r_count), r1, r2, lam, 0.0)[0, 0])
    coherent_ok = abs(coherent / (r_count * single) - 1.0) < 1e-9

    rng = np.random.default_rng(64)
    mags_sq = []
    for _ in range(1000):
        g = ris_matrix(ones, rng.uniform(0.0, 2 * np.pi, r_count), r1, r2,
                       lam, 0.0)
        mags_sq.append(abs(g[0, 0]) ** 2)
    rms = math.sqrt(float(np.mean(mags_sq)))
    random_ok = abs(rms / (math.sqrt(r_count) * single) - 1.0) < 0.10

    ok = mono_le and mono_d and mono_k and phase_inv and coherent_ok and random_ok
    _report(7, ok, f"pointing-loss monotone {mono_le}, attenuation monotone "
                   f"d {mono_d} / kappa {mono_k}, phase invariance {phase_inv}, "
                   f"coherent/R {coherent / (r_count * single):.6f}, "
                   f"random RMS/sqrt(R) {rms / (math.sqrt(r_count) * single):.3f}")
    assert mono_le and mono_d and mono_k
    assert phase_inv
    assert coherent_ok
    assert random_ok
