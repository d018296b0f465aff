"""The CLI reproduces the stored sweep CSVs byte for byte.

Each scenario in ``tests/golden/<name>.ini`` has an ``outage.csv`` and a
``sumrate.csv`` under ``tests/golden/<name>/``, written by

    thznoma outage --config tests/golden/<name>.ini \\
        --schemes fixed,fair,improved-fair --trials 2560 --seed 12345 \\
        --workers 1 --out tests/golden/<name>
    thznoma sumrate --config tests/golden/<name>.ini \\
        --trials 2560 --seed 12345 --workers 2 --out tests/golden/<name>

on the default grids. 2560 trials are two full chunks and a partial one.
The scenarios cover Nakagami m in {0.5, 1, 3} with the 200-element
surface, m = 1 without the surface, m = 1 without fading and m = 1 with
the surface's zero phase profile (the one that raises the mean SNR).
Every ``.ini`` file in ``tests/golden/`` is a scenario, so adding one
is its ``.ini`` and its two CSVs. Any change to these files must be
deliberate and explained.

``tests/golden/print-config/<name>.txt`` holds the ``thznoma
print-config`` output of each scenario, and ``default.txt`` that of the
default scenario (no ``--config``), so the INI grammar and the rendering
of every field type stay fixed.
"""

import glob
import os

import pytest

from thznoma.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SCENARIOS = sorted(os.path.basename(p)[:-len(".ini")]
                   for p in glob.glob(os.path.join(GOLDEN, "*.ini")))
RUNS = {
    "outage": ["--schemes", "fixed,fair,improved-fair", "--workers", "1"],
    "sumrate": ["--workers", "2"],
}


@pytest.mark.parametrize("command", sorted(RUNS))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cli_reproduces_golden_csv(tmp_path, scenario, command):
    out = tmp_path / "out"
    rc = main([command, "--config", os.path.join(GOLDEN, f"{scenario}.ini"),
               "--trials", "2560", "--seed", "12345", "--out", str(out)]
              + RUNS[command])
    assert rc == 0
    with open(out / f"{command}.csv", "rb") as fh:
        got = fh.read()
    with open(os.path.join(GOLDEN, scenario, f"{command}.csv"), "rb") as fh:
        want = fh.read()
    assert got == want


@pytest.mark.parametrize("scenario", ["default"] + SCENARIOS)
def test_print_config_is_pinned(scenario, capsys):
    config = [] if scenario == "default" else [
        "--config", os.path.join(GOLDEN, f"{scenario}.ini")]
    assert main(["print-config"] + config) == 0
    with open(os.path.join(GOLDEN, "print-config", f"{scenario}.txt"),
              encoding="utf-8", newline="") as fh:
        want = fh.read()
    assert capsys.readouterr().out == want
