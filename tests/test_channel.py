"""Channel gains: frozen reference values, invariants, array geometry and
matrix assembly, the surface channel against its per-element reference
(exact.ris_element_gain), and the scenario's pointing-loss factor.

Reference constants were computed independently with 40-digit arithmetic
from the defining formulas; comparisons are at 1e-12 relative, far looser
than the observed agreement (a few ulps).
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from thznoma.config import FAR, NEAR, SPEED_OF_LIGHT, ConfigError, ScenarioConfig
from thznoma.channel import (_distances, baseline_channel_matrix,
                             direct_channel_matrix, los_attenuation,
                             multiray_response, ris_channel_matrix, ris_matrix,
                             sample_nakagami)
from thznoma.montecarlo import _deterministic_parts

from exact import ris_element_gain

# 40-digit recomputation of the default-scenario scalar gains
DELTA3_DEFAULT = 0.35445968927743256      # a=0.1, w=0.2, l_e=0.05
LOS_100M = 2.3916542660923292e-07         # f=0.3 THz, kappa=0.0033, d=100 m
RIS_ELEMENT_PLAIN = 1.4965593510430547e-09   # lambda=1e-3, r=(100,150), kappa=0
RIS_ELEMENT_ABSORB = 9.907121088345518e-10   # same with kappa=0.0033
# entrywise 40-digit Frobenius norms of the default 16x16 direct matrices
DIRECT_NORM_FAR = 4.5474954319471590e-07
DIRECT_NORM_NEAR = 1.3738798085265875e-06

DEFAULT_MIS = (0.1, 0.2, 0.05)  # aperture radius, beamwidth, pointing error


def misalignment(a, w, l_e):
    """Delta3 of a scenario with aperture radius a, beamwidth w and
    pointing error l_e."""
    return ScenarioConfig(aperture_radius_m=a, beamwidth_m=w,
                          pointing_error_m=l_e).misalignment


def test_misalignment_factor_matches_reference():
    assert_allclose(misalignment(*DEFAULT_MIS), DELTA3_DEFAULT, rtol=1e-12)


def test_misalignment_factor_monotone_in_pointing_error():
    vals = [misalignment(0.1, 0.2, le)
            for le in np.linspace(0.0, 1.0, 21)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= 1.0 for v in vals)


def test_misalignment_factor_saturates_for_wide_aperture():
    # a >> w: erf -> 1, equivalent beamwidth diverges, perfect collection
    assert_allclose(misalignment(100.0, 0.1, 5.0),
                    1.0, rtol=1e-12)


def test_los_attenuation_matches_reference():
    h = los_attenuation(0.3e12, 0.0033, 100.0, misalignment(*DEFAULT_MIS))
    assert isinstance(h, complex)
    assert h.imag == 0.0
    assert_allclose(h.real, LOS_100M, rtol=1e-12)


def test_los_spreading_term_alone():
    # kappa=0 and a saturating aperture isolate c/(4 pi f d)
    mis = misalignment(100.0, 0.1, 0.0)
    h = los_attenuation(0.3e12, 0.0, 100.0, mis)
    assert_allclose(h.real, SPEED_OF_LIGHT / (4 * math.pi * 0.3e12 * 100.0),
                    rtol=1e-12)


def test_los_attenuation_monotone_in_distance_and_absorption():
    mis = misalignment(*DEFAULT_MIS)
    link = lambda d, k: los_attenuation(0.3e12, k, d, mis).real
    ds = [link(d, 0.0033) for d in np.linspace(50.0, 800.0, 16)]
    assert all(b < a for a, b in zip(ds, ds[1:]))
    ks = [link(200.0, k) for k in np.linspace(0.0, 0.05, 16)]
    assert all(b < a for a, b in zip(ks, ks[1:]))


def test_spreading_halves_when_distance_doubles():
    mis = misalignment(100.0, 0.1, 0.0)  # saturated, distance-free
    h1 = los_attenuation(0.3e12, 0.0, 100.0, mis)
    h2 = los_attenuation(0.3e12, 0.0, 200.0, mis)
    assert_allclose(h1.real / h2.real, 2.0, rtol=1e-12)


def test_multiray_exact_value():
    # two reflected rays placed at phase pi and pi/2 of the carrier
    f = 0.3e12
    got = multiray_response(1.0 + 0.0j, (0.2, 0.1), (0.5 / f, 0.25 / f), f)
    want = complex(1.0 - 0.2 / math.sqrt(2.0), -0.1 / math.sqrt(2.0))
    assert_allclose([got.real, got.imag], [want.real, want.imag], rtol=1e-12)


def test_multiray_single_ray_is_identity():
    los = 0.25 - 0.125j
    assert multiray_response(los, (), (), 0.3e12) == los


def test_multiray_zero_gains_leave_los_unchanged():
    los = 3.5e-7 + 0.0j
    assert multiray_response(los, (0.0, 0.0, 0.0), (1e-11, 2e-11, 3e-11),
                             0.3e12) == los


def test_nakagami_moments():
    rng = np.random.default_rng(2024)
    for m in (0.5, 1.0, 3.0):
        x = sample_nakagami(m, rng, 200000)
        # E[x^2] = 1, E[x^4] = (m+1)/m for the unit-power envelope
        assert abs(np.mean(x ** 2) - 1.0) < 5.0 / math.sqrt(200000)
        assert abs(np.mean(x ** 4) - (m + 1) / m) < 20.0 / math.sqrt(200000)
        assert np.all(x > 0)


def test_ula_offsets_centered():
    # a 16-element array at 1 mm facing a single element: the transverse
    # offsets are centred and half a wavelength (0.5 mm) apart
    axial = 1e-6
    d = _distances(axial, 16, 1, 1e-3)
    assert d.shape == (16, 1)
    assert np.array_equal(d, d[::-1])
    offs = np.sqrt(d[:, 0] ** 2 - axial ** 2) * np.sign(np.arange(16) - 7.5)
    assert_allclose(offs.sum(), 0.0, atol=1e-15)
    assert_allclose(np.diff(offs), 0.5e-3, rtol=1e-9)


def test_pairwise_distances_exact():
    # centred arrays at half-wavelength spacing: offsets (i - (n - 1) / 2) * lam / 2
    axial, n_a, n_b, lam = 10.0, 3, 5, 0.5
    d = _distances(axial, n_a, n_b, lam)
    assert d.shape == (n_a, n_b)
    a = [(i - (n_a - 1) / 2) * (lam / 2) for i in range(n_a)]
    b = [(j - (n_b - 1) / 2) * (lam / 2) for j in range(n_b)]
    for i in range(n_a):
        for j in range(n_b):
            assert_allclose(d[i, j], math.hypot(axial, a[i] - b[j]), rtol=1e-15)
    # centred: the layout is mirror-symmetric about the array centres
    assert np.array_equal(d, d[::-1, ::-1])
    # aligned centre elements sit exactly at the axial separation
    assert d[1, 2] == 10.0


def test_user_geometry_shapes_and_axial_distances():
    cfg = ScenarioConfig()
    lam, n, m, r = cfg.wavelength_m, cfg.bs_antennas, cfg.user_antennas, cfg.ris_elements
    bs_user = _distances(cfg.bs_user_distance_far, n, m, lam)
    bs_element = _distances(cfg.bs_ris_distance, n, r, lam)
    element_user = _distances(cfg.ris_user_distance_far, r, m, lam)
    assert bs_user.shape == (16, 16)
    assert bs_element.shape == (16, 200)
    assert element_user.shape == (200, 16)
    # aligned center elements sit exactly at the axial separations
    assert bs_user[7, 7] == 500.0
    assert np.all(bs_user >= 500.0)
    assert np.all(bs_element >= 100.0)
    assert np.all(element_user >= 150.0)
    assert _distances(cfg.bs_user_distance_near, n, m, lam)[7, 7] == 250.0
    assert _distances(cfg.ris_user_distance_near, r, m, lam).min() >= 250.0
    for build in (direct_channel_matrix, ris_channel_matrix,
                  baseline_channel_matrix):
        with pytest.raises(ConfigError) as err:
            build(cfg, 2)
        assert err.value.field_name == "user"


def test_baseline_geometry_uses_reference_wavelength():
    cfg = ScenarioConfig()
    f = cfg.baseline_frequency_hz
    lam = SPEED_OF_LIGHT / f
    h = baseline_channel_matrix(cfg, FAR)
    # corner pair: transverse offset 15 half-wavelengths at 3.5 GHz
    d = math.hypot(500.0, 15 * lam / 2)
    assert_allclose(abs(h[0, 15]), (SPEED_OF_LIGHT / (4 * math.pi * f * d)) ** 2,
                    rtol=1e-12)


def test_direct_matrix_matches_reference_norms():
    cfg = ScenarioConfig()
    far = direct_channel_matrix(cfg, FAR)
    near = direct_channel_matrix(cfg, NEAR)
    assert far.shape == (16, 16)
    assert_allclose(np.linalg.norm(far), DIRECT_NORM_FAR, rtol=1e-12)
    assert_allclose(np.linalg.norm(near), DIRECT_NORM_NEAR, rtol=1e-12)


def test_direct_matrix_entry_against_scalar_chain():
    # entry (j, i) = multiray(los(d_ij)) * exp(-2j pi d_ij / lambda)
    cfg = ScenarioConfig()
    bs_user = _distances(cfg.bs_user_distance_far, cfg.bs_antennas,
                         cfg.user_antennas, cfg.wavelength_m)
    h = direct_channel_matrix(cfg, FAR)
    for i, j in ((0, 0), (3, 11), (15, 15)):
        d = bs_user[i, j]
        los = los_attenuation(cfg.frequency_hz, cfg.absorption_coeff, d,
                              misalignment(*DEFAULT_MIS))
        want = (multiray_response(los, cfg.nlos_gains, cfg.nlos_delays,
                                  cfg.frequency_hz)
                * np.exp(-2j * np.pi * d / cfg.wavelength_m))
        assert_allclose([h[j, i].real, h[j, i].imag], [want.real, want.imag],
                        rtol=1e-12)


def test_direct_matrix_fading_is_seeded_and_magnitude_only():
    cfg = ScenarioConfig()
    base = direct_channel_matrix(cfg, FAR)
    # the sweeps fade the deterministic matrix entrywise
    faded = lambda seed: sample_nakagami(cfg.shape_m, np.random.default_rng(seed),
                                         base.shape) * base
    h1, h2, h3 = faded(5), faded(5), faded(6)
    assert np.array_equal(h1, h2)
    assert not np.array_equal(h1, h3)
    # envelopes scale magnitudes, never rotate phases
    assert_allclose(np.angle(h1), np.angle(base), atol=1e-12)
    ratio = np.abs(h1) / np.abs(base)
    assert ratio.std() > 0.1


def test_baseline_entry_is_freespace_power_loss():
    cfg = ScenarioConfig()
    f = cfg.baseline_frequency_hz
    lam = SPEED_OF_LIGHT / f
    h = baseline_channel_matrix(cfg, FAR)
    d = _distances(cfg.bs_user_distance_far, cfg.bs_antennas, cfg.user_antennas,
                   lam)[0, 0]
    want = (SPEED_OF_LIGHT / (4 * math.pi * f * d)) ** 2
    assert_allclose(abs(h[0, 0]), want, rtol=1e-12)


def test_ris_element_gain_matches_reference():
    g0 = ris_element_gain(1.0, 0.0, 1e-3, 100.0, 150.0, 0.0)
    assert_allclose(abs(g0), RIS_ELEMENT_PLAIN, rtol=1e-12)
    # path 250 m is a whole number of 1 mm wavelengths: zero phase up to
    # the rounding of the ~1.5e6 rad phase argument
    assert abs(g0.imag) < 1e-9 * abs(g0)
    g1 = ris_element_gain(1.0, 0.0, 1e-3, 100.0, 150.0, 0.0033)
    assert_allclose(abs(g1), RIS_ELEMENT_ABSORB, rtol=1e-12)
    with pytest.raises(ConfigError):
        ris_element_gain(1.0, 0.0, 1e-3, 0.0, 150.0, 0.0)


def test_ris_matrix_equals_per_element_sum():
    # independent assembly: explicit loop over ris_element_gain
    rng = np.random.default_rng(99)
    n, m, r = 3, 2, 5
    reflection = rng.uniform(0.5, 1.0, r)
    phases = rng.uniform(0.0, 2 * np.pi, r)
    bs_element = rng.uniform(80.0, 120.0, (n, r))
    element_user = rng.uniform(140.0, 160.0, (r, m))
    lam, kappa = 1e-3, 0.0033
    g = ris_matrix(reflection, phases, bs_element, element_user, lam, kappa)
    assert g.shape == (m, n)
    for i in range(n):
        for j in range(m):
            total = 0.0 + 0.0j
            for k in range(r):
                total += ris_element_gain(reflection[k], phases[k], lam,
                                          bs_element[i, k], element_user[k, j],
                                          kappa)
            # the product form groups the propagation phases differently;
            # with ~1.5e6 rad arguments the groupings agree to ~1e-9
            assert_allclose([g[j, i].real, g[j, i].imag], [total.real, total.imag],
                            rtol=5e-9, atol=5e-9 * abs(total))


def test_ris_matrix_zero_elements():
    cfg = ScenarioConfig(ris_elements=0)
    g = ris_channel_matrix(cfg, FAR)
    assert g.shape == (16, 16)
    assert np.all(g == 0)


def test_ris_single_element_reduces_to_element_gain():
    cfg = ScenarioConfig(ris_elements=1, ris_phase_mode="zero")
    lam = cfg.wavelength_m
    g = ris_channel_matrix(cfg, NEAR)
    want = ris_element_gain(cfg.ris_reflection, 0.0, lam,
                            _distances(cfg.bs_ris_distance, 16, 1, lam)[4, 0],
                            _distances(cfg.ris_user_distance_near, 1, 16, lam)[0, 9],
                            cfg.absorption_coeff)
    assert_allclose([g[9, 4].real, g[9, 4].imag], [want.real, want.imag], rtol=1e-12)


def test_ris_global_phase_magnitude_invariance():
    cfg = ScenarioConfig()
    lam, r = cfg.wavelength_m, cfg.ris_elements
    bs_element = _distances(cfg.bs_ris_distance, cfg.bs_antennas, r, lam)
    element_user = _distances(cfg.ris_user_distance_far, r, cfg.user_antennas, lam)
    base = cfg.ris_phases()
    mk = lambda ph: ris_matrix(np.full(r, 1.0), ph, bs_element, element_user,
                               lam, cfg.absorption_coeff)
    g0 = mk(base)
    for delta in (0.7, 2.1, np.pi):
        g = mk(base + delta)
        assert_allclose(np.abs(g), np.abs(g0), rtol=1e-10)
        # and the rotation is exactly the common factor
        assert_allclose(g / g0, np.exp(1j * delta) * np.ones_like(g0), rtol=1e-8)


def test_cached_channel_parts_are_read_only():
    cfg = ScenarioConfig()
    for link in ("thz", "baseline", "direct"):
        for part in _deterministic_parts(cfg, link):
            with pytest.raises(ValueError):
                part[0] = 0
