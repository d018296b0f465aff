"""Scenario validation and INI round trips."""

import math
import os
import pickle
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from thznoma import cli
from thznoma.config import ConfigError, ScenarioConfig, parse_config, render_config


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


def test_noise_figure_sets_the_noise_power():
    # the noise figure sets the noise power: -174 + 70 + 14 = -90 dBm at 10 MHz
    cfg = ScenarioConfig(noise_figure_db=14.0)
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
    ("shape_m", 0.3),
    ("shape_m", math.inf),
    ("ris_phase_seed", -1),
    ("fixed_alpha_far", 1.2),
    ("tx_power_dbm", 4000.0),       # 10 ** 400 overflows tx_power_w
    ("noise_figure_db", 5000.0),
    ("noise_figure_db", math.inf),
    ("target_rate", 1024),          # 2 ** 1024 - 1 overflows the target SINR
    ("noise_figure_db", -5000),     # 10 ** -510 underflows noise_power_w to 0
    ("ris_user_distance_far", 1e-200),  # a distance whose square underflows to 0
    ("bs_ris_distance", 1e-163),
    ("bs_ris_distance", 1.35e154),  # a distance whose square overflows
    # an int squares as a float would
    pytest.param("bs_user_distance_near", 10 ** 200, id="bs_user_distance_near-int"),
    # a value of the wrong type is named like one out of range
    ("fading_enabled", "false"),
    ("fading_enabled", None),
    ("shape_m", "1"),
    ("ris_reflection", "1"),
    ("noise_figure_db", "-90"),
])
def test_rejected_fields_are_named(field, value):
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(**{field: value})
    assert err.value.field_name == field
    assert field in str(err.value)
    assert err.value.value == value


def test_misalignment_is_checked_when_built():
    # the pointing loss Delta3 is the scenario's own, so no channel build
    # is needed to meet its constraint
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(beamwidth_m=1e-170)
    assert err.value.field_name == "beamwidth_m"
    # where the float range ends, Delta3 takes its limit, not an arithmetic
    # error: below a / w ~ 1e-308 u is 0 and so is erf(u)^2; past ~1.3e154 m
    # l_e^2 overflows and no power is collected; past u ~ 26.6 it saturates
    assert ScenarioConfig(aperture_radius_m=1e-320, beamwidth_m=1e10).misalignment == 0.0
    assert ScenarioConfig(pointing_error_m=1e200).misalignment == 0.0
    assert ScenarioConfig(aperture_radius_m=100.0, beamwidth_m=0.1,
                          pointing_error_m=1e200).misalignment == 1.0


def test_config_error_survives_pickling():
    # an exception crosses a process pool pickled; a ConfigError comes back
    # as itself, with its fields and message
    err = ConfigError("beamwidth_m", "a finite value > 0", 1e-170)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is ConfigError
    assert (back.field_name, back.constraint, back.value) == (
        "beamwidth_m", "a finite value > 0", 1e-170)
    assert str(back) == str(err)


def test_nlos_tuples_must_have_equal_lengths():
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(nlos_gains=(0.2, 0.1), nlos_delays=(1e-11,))
    assert err.value.field_name == "nlos_delays"


@pytest.mark.parametrize("field,value", [
    ("nlos_gains", (math.nan, 0.18, 0.12)),
    ("nlos_gains", (0.25, math.inf, 0.12)),
    ("nlos_delays", (1.3e-11, math.inf, 4.7e-11)),
    ("nlos_delays", (math.nan, 2.9e-11, 4.7e-11)),
    # a list would pass the other checks, then break the channel cache
    # (unhashable) and render a config that does not parse back
    ("nlos_gains", [0.25, 0.18, 0.12]),
    ("nlos_delays", [1.3e-11, 2.9e-11, 4.7e-11]),
    ("nlos_gains", ("0.25", 0.18, 0.12)),
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
        cfg.replace(bs_antennas=-5)


def test_ris_phases_reproducible_and_in_range():
    cfg = ScenarioConfig()
    p1, p2 = cfg.ris_phases(), cfg.ris_phases()
    assert np.array_equal(p1, p2)
    assert p1.shape == (cfg.ris_elements,)
    assert np.all((p1 >= 0) & (p1 < 2 * np.pi))
    assert np.array_equal(cfg.replace(ris_phase_mode="zero").ris_phases(),
                          np.zeros(cfg.ris_elements))
    assert not np.array_equal(p1, cfg.replace(ris_phase_seed=7).ris_phases())


def test_ini_round_trip(tmp_path):
    # empty NLoS tuples, the single-ray direct path, render as `nlos_gains =`
    path = tmp_path / "scenario.ini"
    for cfg in (ScenarioConfig(frequency_hz=0.2e12, ris_elements=32,
                               nlos_gains=(0.3, 0.1), nlos_delays=(1e-11, 2e-11),
                               fading_enabled=False, noise_figure_db=9.0,
                               ris_phase_mode="zero"),
                ScenarioConfig(nlos_gains=(), nlos_delays=())):
        path.write_text(render_config(cfg), encoding="utf-8")
        assert parse_config(str(path)) == cfg


def test_default_round_trip(tmp_path):
    cfg = ScenarioConfig()
    path = tmp_path / "scenario.ini"
    path.write_text(render_config(cfg), encoding="utf-8")
    assert parse_config(str(path)) == cfg


def test_empty_config_is_default_scenario():
    assert parse_config(None) == ScenarioConfig()


def test_readme_examples_parse(tmp_path):
    # every scenario the README shows must load, so it names no removed
    # key, and every command line must parse, so it shows no removed flag
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    blocks = re.findall(r"^```ini\n(.*?)^```", text, re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme{i}.ini"
        path.write_text(block, encoding="utf-8")
        parse_config(str(path))
    commands = [line.split()[1:]
                for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
                for line in block.splitlines() if line.startswith("thznoma ")]
    assert commands
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits on a flag it does not know


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
