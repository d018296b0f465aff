"""The CLI reproduces the stored sweep CSVs byte for byte.

Each scenario in ``tests/golden/<name>.ini`` has an ``outage.csv`` and a
``sumrate.csv`` under ``tests/golden/<name>/``, written by

    thznoma outage --config tests/golden/<name>.ini \\
        --schemes fixed,fair,improved-fair --trials 2560 --seed 12345 \\
        --workers 1 --out tests/golden/<name>
    thznoma sumrate --config tests/golden/<name>.ini \\
        --trials 2560 --seed 12345 --workers 2 --out tests/golden/<name>

on the default grids. 2560 trials are two full chunks and a partial one,
too little work for a pool (each worker must get
``montecarlo.POOL_EVALS``), so ``--workers 2`` runs them in the parent;
the CSVs are the same at any worker count, and
``test_cli_reproduces_golden_csv`` lowers ``POOL_EVALS`` to 1 so that its
2-worker sweeps run a real pool.
The scenarios cover Nakagami m in {0.5, 1, 3} with the 200-element
surface, m = 1 without the surface, m = 1 without fading and m = 1 with
the surface's zero phase profile (the one that raises the mean SNR).
Every ``.ini`` file in ``tests/golden/`` is a scenario, so adding one
is its ``.ini`` and its two CSVs. Any change to these files must be
deliberate and explained. The CSVs do not depend on numpy's CPU
dispatch: the ``m3`` sum-rate sweep is rerun with numpy's AVX-512 paths
switched off.

``tests/golden/print-config/<name>.txt`` holds the ``thznoma
print-config`` output of each scenario, and ``default.txt`` that of the
default scenario (no ``--config``), so the INI grammar and the rendering
of every field type stay fixed. They are written by

    thznoma print-config --config tests/golden/<name>.ini \
        > tests/golden/print-config/<name>.txt

and ``thznoma print-config > tests/golden/print-config/default.txt``.

Without fading every trial has the same gains, so each ``m1-no-fading``
row is one trial's value and is checked exactly. The reference link
reads no THz-only field, so the ``baseline`` rows of every faded
scenario are the same.

Without the surface at m = 1 a user's gain is ``sum_j |D_j|^2 E_j`` with
``E_j`` iid Exp(1), the law the ergodic library integrates, so the
``m1-no-ris`` fixed-allocation sum-rate rows are checked against its
closed form as well, and its outage rows against exact bounds.

``tests/golden/validate/seed7.txt`` holds the output of ``thznoma
validate --tolerance-se 5 --seed 7`` on the default scenario: the gain
law of both links, drawn through the sweep's sampler, the no-surface rate
chain on the THz link's envelopes, and the power-allocation conformance
check, whose 2000 requests are drawn next from the same stream.
"""

import glob
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import thznoma
from thznoma.channel import (baseline_channel_matrix, direct_channel_matrix,
                             ris_channel_matrix)
from thznoma.cli import main
from thznoma.config import FAR, NEAR, parse_config

from exact import (_reference_trial, channel_gain, fixed_sum_rate_closed_form,
                   gamma_bracket)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SCENARIOS = sorted(os.path.basename(p)[:-len(".ini")]
                   for p in glob.glob(os.path.join(GOLDEN, "*.ini")))
RUNS = {
    "outage": ["--schemes", "fixed,fair,improved-fair", "--workers", "1"],
    "sumrate": ["--workers", "2"],
}


@pytest.mark.parametrize("command", sorted(RUNS))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cli_reproduces_golden_csv(tmp_path, scenario, command, pool_starts):
    # at one chunk a worker, the 2-worker sweep forks a pool
    out = tmp_path / "out"
    rc = main([command, "--config", os.path.join(GOLDEN, f"{scenario}.ini"),
               "--trials", "2560", "--seed", "12345", "--out", str(out)]
              + RUNS[command])
    assert rc == 0
    assert pool_starts == ([2] if command == "sumrate" else [])
    with open(out / f"{command}.csv", "rb") as fh:
        got = fh.read()
    with open(os.path.join(GOLDEN, scenario, f"{command}.csv"), "rb") as fh:
        want = fh.read()
    assert got == want


# numpy reads this in the child only; these names cover its AVX-512 paths
NO_AVX512 = "X86_V4,AVX512_ICL,AVX512_SPR"


def _has_avx512() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return any(__cpu_features__.get(f) for f in ("X86_V4", "AVX512_SKX"))


def test_golden_csv_does_not_depend_on_cpu_dispatch(tmp_path):
    if not _has_avx512():
        warnings.warn("numpy has no AVX-512 path on this host, so this run "
                      "takes the same path as test_cli_reproduces_golden_csv")
    src = os.path.dirname(os.path.dirname(thznoma.__file__))
    out = tmp_path / "out"
    subprocess.run(
        [sys.executable, "-m", "thznoma.cli", "sumrate",
         "--config", os.path.join(GOLDEN, "m3.ini"), "--trials", "2560",
         "--seed", "12345", "--out", str(out)] + RUNS["sumrate"],
        env=dict(os.environ, PYTHONPATH=src, NPY_DISABLE_CPU_FEATURES=NO_AVX512),
        check=True, capture_output=True, timeout=300)
    with open(os.path.join(GOLDEN, "m3", "sumrate.csv"), "rb") as fh:
        assert (out / "sumrate.csv").read_bytes() == fh.read()


def test_unfaded_sum_rate_has_zero_stderr():
    # without fading every trial has the same rate, so the stderr is 0
    # exactly: the variance has no sumsq/t - mean^2 cancellation to leave
    with open(os.path.join(GOLDEN, "m1-no-fading", "sumrate.csv"),
              encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    assert len(rows) == 24
    assert {row[3] for row in rows} == {"0"}


def _golden_rows(scenario, command):
    with open(os.path.join(GOLDEN, scenario, f"{command}.csv"),
              encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines()[1:]]


def test_unfaded_rows_are_exact():
    # every trial has the gains ||D + G||^2 (THz link) and ||D_ref||^2
    # (baseline link), so each row is one trial through the paper's SINRs:
    # an outage of exactly 0 or 1, which no row's target rate within 0.57%
    # nor gain within 2% would flip, and a sum rate equal up to the CSV's
    # 12 digits (3.3e-12 relative at most)
    base = parse_config(os.path.join(GOLDEN, "m1-no-fading.ini"))
    thz = [channel_gain(direct_channel_matrix(base, u) + ris_channel_matrix(base, u))
           for u in (FAR, NEAR)]
    ref = [channel_gain(baseline_channel_matrix(base, u)) for u in (FAR, NEAR)]
    outage = _golden_rows("m1-no-fading", "outage")
    assert len(outage) == 72
    for rate, scheme, user, value, stderr in outage:
        near, far, *_ = _reference_trial(base, scheme, float(rate), thz)
        want = near if user == "near" else far
        assert (float(value), float(stderr)) == (want, 0.0), (rate, scheme, user)
    sumrate = _golden_rows("m1-no-fading", "sumrate")
    assert len(sumrate) == 24
    for dbm, scheme, rate, _ in sumrate:
        point = base.replace(tx_power_dbm=float(dbm))
        gains = ref if scheme == "baseline" else thz
        want = _reference_trial(point, scheme, point.target_rate, gains)[2]
        assert_allclose(float(rate), want, rtol=1e-10, atol=0, err_msg=(dbm, scheme))


def test_baseline_rows_of_faded_scenarios_are_identical():
    # the reference link reads no THz-only field (m, surface, phases) and
    # replays the chunk's key at m = 1 in every scenario
    faded = [s for s in SCENARIOS
             if parse_config(os.path.join(GOLDEN, f"{s}.ini")).fading_enabled]
    assert len(faded) == 5
    rows = [[row for row in _golden_rows(s, "sumrate") if row[1] == "baseline"]
            for s in faded]
    assert len(rows[0]) == 6
    assert all(r == rows[0] for r in rows), faded


def test_no_surface_fixed_sum_rate_matches_closed_form():
    # no surface, m = 1: SIC roles never swap here, since the mean gains
    # differ 9-fold and each is a sum of 256 terms
    base = parse_config(os.path.join(GOLDEN, "m1-no-ris.ini"))
    with open(os.path.join(GOLDEN, "m1-no-ris", "sumrate.csv"),
              encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    fixed = [row for row in rows if row[1] == "fixed"]
    assert len(fixed) == 6
    for dbm, _, rate, stderr in fixed:
        exact = fixed_sum_rate_closed_form(base.replace(tx_power_dbm=float(dbm)))
        assert abs(float(rate) - exact) <= 4.0 * float(stderr), dbm


def test_no_surface_outage_rows_lie_in_exact_brackets():
    """Without the surface at m = 1, P(g < x) for the far (min) or near
    (max) gain lies within exact.gamma_bracket of the two users' |D|^2.
    Each outage checked here is a threshold on one gain, with
    xi = 2^R - 1:

    - fair and improved-fair far outage: g < xi s2 / p;
    - fixed far outage: g p (a - (1 - a) xi) < xi s2, always when
      (1 - a) xi >= a;
    - fixed near outage: g below the larger of that SIC-stage threshold
      and the own-rate one, xi s2 / ((1 - a) p).

    The fair near rows need the joint law of both gains and are left out.
    """
    base = parse_config(os.path.join(GOLDEN, "m1-no-ris.ini"))
    p, s2, a = base.tx_power_w, base.noise_power_w, base.fixed_alpha_far
    w = [np.abs(direct_channel_matrix(base, u).ravel()) ** 2 for u in (FAR, NEAR)]

    with open(os.path.join(GOLDEN, "m1-no-ris", "outage.csv"),
              encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    trials = 2560
    checked = 0
    for rate, scheme, user, outage, stderr in rows:
        xi = 2.0 ** float(rate) - 1.0
        if scheme != "fixed":
            if user == "near":
                continue
            x = xi * s2 / p
        else:
            margin = a - (1.0 - a) * xi
            x = xi * s2 / (p * margin) if margin > 0 else np.inf
            if user == "near":
                x = max(x, xi * s2 / ((1.0 - a) * p))
        low, high = gamma_bracket(w, x, user)
        value, se = float(outage), float(stderr)
        if value == 0.0:
            assert high <= 10.0 / trials, (rate, scheme, user)
        elif value == 1.0:
            assert low >= 1.0 - 10.0 / trials, (rate, scheme, user)
        else:
            assert abs(value - low) <= 4.0 * se, (rate, scheme, user)
            assert abs(value - high) <= 4.0 * se, (rate, scheme, user)
        checked += 1
    assert checked == 48


@pytest.mark.parametrize("scenario", ["default"] + SCENARIOS)
def test_print_config_is_pinned(scenario, capsys):
    config = [] if scenario == "default" else [
        "--config", os.path.join(GOLDEN, f"{scenario}.ini")]
    assert main(["print-config"] + config) == 0
    with open(os.path.join(GOLDEN, "print-config", f"{scenario}.txt"),
              encoding="utf-8", newline="") as fh:
        want = fh.read()
    assert capsys.readouterr().out == want


def test_validate_output_is_pinned(capsys):
    assert main(["validate", "--tolerance-se", "5", "--seed", "7"]) == 0
    with open(os.path.join(GOLDEN, "validate", "seed7.txt"),
              encoding="utf-8", newline="") as fh:
        want = fh.read()
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_validate_passes_on_every_scenario(scenario, capsys):
    # at the default seed and tolerance (5 SE); at 3 SE about 3% of seeds
    # raise a false alarm somewhere among a scenario's 8 or 10 checks, and
    # m0.5 is one of them: its baseline far mean is 3.25 SE off
    assert main(["validate", "--config",
                 os.path.join(GOLDEN, f"{scenario}.ini")]) == 0
    out = capsys.readouterr().out
    assert "(tolerance 5 std errors)" in out and "validation passed" in out
