"""Scenario validation, INI round trips, array geometry."""

import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from thznoma.channel import _distances, direct_channel_matrix, ris_channel_matrix
from thznoma.config import (FAR, SPEED_OF_LIGHT, ConfigError, ScenarioConfig,
                            parse_config, render_config)


def test_default_scenario_is_valid():
    cfg = ScenarioConfig()
    assert cfg.frequency_hz == 0.3e12
    assert cfg.ris_elements == 200
    assert cfg.bs_antennas == cfg.user_antennas == 16
    assert cfg.tx_power_dbm == 30.0


def test_derived_link_budget_quantities():
    cfg = ScenarioConfig()
    assert_allclose(cfg.wavelength_m, 1e-3, rtol=1e-15)
    assert_allclose(cfg.tx_power_w, 1.0, rtol=1e-15)  # 30 dBm
    # thermal floor: -174 dBm/Hz + 10 log10(BW) + NF
    dbm = -174.0 + 10.0 * math.log10(cfg.bandwidth_hz) + cfg.noise_figure_db
    assert_allclose(cfg.noise_power_w, 10.0 ** (dbm / 10.0) * 1e-3, rtol=1e-15)


def test_noise_override_wins():
    cfg = ScenarioConfig(noise_power_dbm=-90.0)
    assert_allclose(cfg.noise_power_w, 1e-12, rtol=1e-15)


@pytest.mark.parametrize("field,value", [
    ("frequency_hz", -1.0),
    ("frequency_hz", 0.0),
    ("absorption_coeff", -0.1),
    ("bs_user_distance_far", -500.0),
    ("bs_antennas", 0),
    ("ris_elements", -1),
    ("ris_reflection", 1.5),
    ("ris_phase_mode", "fancy"),
    ("ray_count", 0),
    ("shape_m", 0.3),
    ("shape_m", math.inf),
    ("ris_phase_seed", -1),
    ("fixed_alpha_far", 1.2),
    ("trials", 0),
    ("workers", 0),
    ("tx_power_dbm", 4000.0),       # 10 ** 400 overflows tx_power_w
    ("noise_power_dbm", 5000.0),
    ("noise_figure_db", 5000.0),
    ("noise_figure_db", math.inf),
    ("target_rate", 1024),          # 2 ** 1024 - 1 overflows the target SINR
    ("noise_power_dbm", -5000),     # 10 ** -500 underflows noise_power_w to 0
    ("freespace_baseline", True),   # the reference link has no surface (R = 200)
])
def test_rejected_fields_are_named(field, value):
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(**{field: value})
    assert err.value.field_name == field
    assert field in str(err.value)
    assert err.value.value == value


def test_nlos_lengths_must_match_ray_count():
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(ray_count=4, nlos_gains=(0.2, 0.1), nlos_delays=(1e-11, 2e-11))
    assert err.value.field_name == "nlos_gains"


@pytest.mark.parametrize("field,value", [
    ("nlos_gains", (math.nan, 0.18, 0.12)),
    ("nlos_gains", (0.25, math.inf, 0.12)),
    ("nlos_delays", (1.3e-11, math.inf, 4.7e-11)),
    ("nlos_delays", (math.nan, 2.9e-11, 4.7e-11)),
])
def test_nlos_values_must_be_finite(field, value):
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(**{field: value})
    assert err.value.field_name == field


def test_ris_free_scenario_is_accepted():
    cfg = ScenarioConfig(ris_elements=0)
    assert cfg.ris_elements == 0
    assert cfg.ris_phases().shape == (0,)


def test_replace_returns_new_validated_instance():
    cfg = ScenarioConfig()
    other = cfg.replace(tx_power_dbm=10.0)
    assert other.tx_power_dbm == 10.0
    assert cfg.tx_power_dbm == 30.0
    with pytest.raises(ConfigError):
        cfg.replace(trials=-5)


def test_ris_phases_reproducible_and_in_range():
    cfg = ScenarioConfig()
    p1, p2 = cfg.ris_phases(), cfg.ris_phases()
    assert np.array_equal(p1, p2)
    assert p1.shape == (cfg.ris_elements,)
    assert np.all((p1 >= 0) & (p1 < 2 * np.pi))
    assert np.array_equal(cfg.replace(ris_phase_mode="zero").ris_phases(),
                          np.zeros(cfg.ris_elements))
    assert not np.array_equal(p1, cfg.replace(ris_phase_seed=7).ris_phases())


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
    for build in (direct_channel_matrix, ris_channel_matrix):
        with pytest.raises(ConfigError) as err:
            build(cfg, 2)
        assert err.value.field_name == "user"



def test_baseline_geometry_uses_reference_wavelength():
    cfg = ScenarioConfig(freespace_baseline=True, ris_elements=0)
    f = cfg.baseline_frequency_hz
    lam = SPEED_OF_LIGHT / f
    h = direct_channel_matrix(cfg, FAR)
    # corner pair: transverse offset 15 half-wavelengths at 3.5 GHz
    d = math.hypot(500.0, 15 * lam / 2)
    assert_allclose(abs(h[0, 15]), (SPEED_OF_LIGHT / (4 * math.pi * f * d)) ** 2,
                    rtol=1e-12)

def test_ini_round_trip(tmp_path):
    cfg = ScenarioConfig(frequency_hz=0.2e12, ris_elements=32, trials=777,
                         nlos_gains=(0.3, 0.1), nlos_delays=(1e-11, 2e-11),
                         ray_count=3, fading_enabled=False,
                         noise_power_dbm=-95.0, ris_phase_mode="zero")
    path = tmp_path / "scenario.ini"
    path.write_text(render_config(cfg), encoding="utf-8")
    assert parse_config(str(path)) == cfg


def test_default_round_trip_preserves_unset_noise(tmp_path):
    cfg = ScenarioConfig()
    path = tmp_path / "scenario.ini"
    path.write_text(render_config(cfg), encoding="utf-8")
    again = parse_config(str(path))
    assert again == cfg
    assert again.noise_power_dbm is None


def test_empty_config_is_default_scenario():
    assert parse_config(None) == ScenarioConfig()


def test_unknown_section_and_key_rejected(tmp_path):
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[plotting]\ncolor = red\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        parse_config(str(bad_section))
    assert "plotting" in str(err.value)

    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[channel]\nfrequenzy_hz = 1e12\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        parse_config(str(bad_key))
    assert "frequenzy_hz" in str(err.value)


def test_bad_value_names_field(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[channel]\nfrequency_hz = not-a-number\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert err.value.field_name == "frequency_hz"


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(os.path.join(str(tmp_path), "nope.ini"))


def test_overrides_beat_file_values(tmp_path):
    path = tmp_path / "d.ini"
    path.write_text("[montecarlo]\ntrials = 123\n", encoding="utf-8")
    cfg = parse_config(str(path), overrides={"trials": 456})
    assert cfg.trials == 456
