"""CLI subcommands: grids, CSV layout, manifests, exit codes, determinism."""

import concurrent.futures
import functools
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from thznoma import cli, montecarlo
from thznoma.cli import _parse_grid, _parse_schemes, main
from thznoma.config import ConfigError, ScenarioConfig, parse_config

SMALL_INI = """\
[channel]
bs_antennas = 4
user_antennas = 4
ris_elements = 16

[montecarlo]
trials = 400
"""


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL_INI, encoding="utf-8")
    return str(path)


def _modules_after_import(packages: tuple) -> str:
    """The loaded modules of ``packages`` (and their submodules) after
    ``import thznoma.cli`` in a fresh interpreter, as a printed list."""
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, thznoma.cli; print(sorted("
         f"m for m in sys.modules for p in {packages!r} "
         "if m == p or m.startswith(p + '.')))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True, timeout=60)
    return out.stdout.strip()


def test_import_loads_no_scipy():
    # scipy costs about 0.75 s of start-up; the package must not pull it in
    assert _modules_after_import(("scipy",)) == "[]"


def test_import_loads_no_process_pool():
    # the pool's modules cost about 25 ms of start-up, so only a sweep
    # with more than one worker imports them
    assert _modules_after_import(("multiprocessing",
                                  "concurrent.futures.process")) == "[]"


def test_parse_grid():
    assert _parse_grid("0.5:6:0.5") == tuple(0.5 + 0.5 * k for k in range(12))
    assert _parse_grid("0:30:6") == (0.0, 6.0, 12.0, 18.0, 24.0, 30.0)
    assert _parse_grid("3") == (3.0,)
    assert _parse_grid("2:2:1") == (2.0,)
    for bad in ("a:b:c", "1:2", "1:2:0", "5:1:1", "", "0:inf:1", "0:nan:1",
                "nan", "inf", "-1e308:1e308:1"):
        with pytest.raises(ConfigError):
            _parse_grid(bad)


def test_parse_schemes():
    # names, their count and repeats are checked by SweepSpec and the
    # sweeps (test_montecarlo)
    assert _parse_schemes("fair, fixed") == ("fair", "fixed")
    assert _parse_schemes(" , ") == ()


def test_outage_csv_layout(tmp_path, small_config):
    out = str(tmp_path / "run")
    rc = main(["outage", "--config", small_config, "--seed", "3",
               "--grid", "0.5:1.5:0.5", "--out", out])
    assert rc == 0
    lines = open(os.path.join(out, "outage.csv"), encoding="utf-8").read().splitlines()
    assert lines[0] == "target_rate,scheme,user,outage,stderr"
    # 3 grid points x 2 schemes x 2 users
    assert len(lines) == 1 + 3 * 2 * 2
    first = lines[1].split(",")
    assert first[0] == "0.5" and first[1] == "fixed" and first[2] == "far"
    for row in lines[1:]:
        cells = row.split(",")
        assert len(cells) == 5
        assert 0.0 <= float(cells[3]) <= 1.0


def test_outage_manifest(tmp_path, small_config):
    out = str(tmp_path / "run")
    main(["outage", "--config", small_config, "--seed", "3",
          "--grid", "1", "--out", out])
    manifest = json.load(open(os.path.join(out, "outage_manifest.json"),
                              encoding="utf-8"))
    assert manifest["command"] == "outage"
    assert manifest["seed"] == 3
    assert manifest["outputs"] == ["outage.csv"]
    assert manifest["config"]["trials"] == 400
    assert manifest["config"]["bs_antennas"] == 4
    assert "timestamp" in manifest and "version" in manifest


def test_outage_rerun_is_byte_identical(tmp_path, small_config):
    out1, out2, out3 = (str(tmp_path / d) for d in ("a", "b", "c"))
    args = ["outage", "--config", small_config, "--grid", "0.5:2.5:1",
            "--trials", "500"]
    main(args + ["--seed", "11", "--out", out1])
    main(args + ["--seed", "11", "--out", out2])
    main(args + ["--seed", "12", "--out", out3])
    read = lambda d: open(os.path.join(d, "outage.csv"), "rb").read()
    assert read(out1) == read(out2)
    assert read(out1) != read(out3)


def test_outage_zero_target_grid(tmp_path, small_config):
    out = str(tmp_path / "run")
    main(["outage", "--config", small_config, "--grid", "0", "--out", out])
    lines = open(os.path.join(out, "outage.csv"), encoding="utf-8").read().splitlines()
    assert len(lines) == 1 + 1 * 2 * 2
    for row in lines[1:]:
        cells = row.split(",")
        assert float(cells[3]) == 0.0
        assert float(cells[4]) == 0.0


def test_sumrate_csv_layout(tmp_path, small_config):
    out = str(tmp_path / "run")
    rc = main(["sumrate", "--config", small_config, "--seed", "4",
               "--grid", "0:30:15", "--trials", "300", "--out", out])
    assert rc == 0
    lines = open(os.path.join(out, "sumrate.csv"), encoding="utf-8").read().splitlines()
    assert lines[0] == "tx_power_dbm,scheme,sum_rate,stderr"
    # 3 grid points x 4 schemes (fixed, fair, improved-fair, baseline)
    assert len(lines) == 1 + 3 * 4
    schemes = {row.split(",")[1] for row in lines[1:]}
    assert schemes == {"fixed", "fair", "improved-fair", "baseline"}
    for scheme in schemes:
        series = [float(r.split(",")[2]) for r in lines[1:]
                  if r.split(",")[1] == scheme]
        assert series == sorted(series)


def test_sumrate_scheme_selection(tmp_path, small_config):
    out = str(tmp_path / "run")
    main(["sumrate", "--config", small_config, "--grid", "10", "--trials", "100",
          "--schemes", "fair,baseline", "--out", out])
    lines = open(os.path.join(out, "sumrate.csv"), encoding="utf-8").read().splitlines()
    assert len(lines) == 1 + 2
    assert lines[1].split(",")[1] == "fair"
    assert lines[2].split(",")[1] == "baseline"


def test_print_config_round_trips(tmp_path, small_config, capsys):
    rc = main(["print-config", "--config", small_config])
    assert rc == 0
    text = capsys.readouterr().out
    echo = tmp_path / "echo.ini"
    echo.write_text(text, encoding="utf-8")
    cfg = parse_config(str(echo))
    assert cfg == ScenarioConfig(bs_antennas=4, user_antennas=4,
                                 ris_elements=16, trials=400)


def test_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[channel]\nfrequency_hz = -1\n", encoding="utf-8")
    assert main(["outage", "--config", str(bad)]) == 1
    assert "frequency_hz" in capsys.readouterr().err

    # a non-finite grid is rejected before it reaches the sweep
    assert main(["outage", "--grid", "0:inf:1"]) == 1
    assert "config error: config field 'grid'" in capsys.readouterr().err
    assert main(["outage", "--grid", "nonsense"]) == 1
    # a power that overflows tx_power_w is a config error, not a traceback
    assert main(["sumrate", "--grid", "4000", "--out", str(tmp_path)]) == 1
    assert "tx_power_dbm" in capsys.readouterr().err
    nan_noise = tmp_path / "nan.ini"
    nan_noise.write_text("[montecarlo]\nnoise_figure_db = nan\n", encoding="utf-8")
    assert main(["outage", "--config", str(nan_noise)]) == 1
    assert "noise_figure_db" in capsys.readouterr().err
    assert main(["print-config", "--config", str(tmp_path / "missing.ini")]) == 1
    # a non-finite channel field is named before any channel is built
    inf_shape = tmp_path / "inf.ini"
    inf_shape.write_text("[channel]\nshape_m = inf\n", encoding="utf-8")
    assert main(["outage", "--config", str(inf_shape), "--grid", "1",
                 "--trials", "10", "--out", str(tmp_path)]) == 1
    assert "shape_m" in capsys.readouterr().err
    for argv in (["outage", "--out", str(tmp_path)],
                 ["sumrate", "--out", str(tmp_path)], ["validate"]):
        assert main(argv + ["--seed", "-1"]) == 1
        assert "config error: config field 'seed'" in capsys.readouterr().err
    # every grid point is a scenario, checked like one; 2^2000 - 1 overflows
    high_target = tmp_path / "target.ini"
    high_target.write_text("[noma]\ntarget_rate = 2000\n", encoding="utf-8")
    freespace = tmp_path / "freespace.ini"
    freespace.write_text("[montecarlo]\nfreespace_baseline = true\n", encoding="utf-8")
    collapsing = "1e16:1.0000000000000004e16:1"  # 1e16 + 1 == 1e16
    for argv, field in ((["outage", "--grid", "2000"], "target_rate"),
                        (["outage", "--grid", "-1"], "target_rate"),
                        (["sumrate", "--config", str(high_target)], "target_rate"),
                        # the free-space reference link has no surface
                        (["sumrate", "--config", str(freespace)], "freespace_baseline"),
                        (["outage", "--grid", collapsing], "grid"),
                        (["sumrate", "--grid", collapsing], "grid"),
                        (["outage", "--grid", "1", "--schemes", ""], "schemes"),
                        (["outage", "--grid", "1", "--schemes", " , "], "schemes"),
                        (["outage", "--grid", "1", "--schemes", "fair,fair"],
                         "schemes")):
        assert main(argv + ["--trials", "10", "--out", str(tmp_path)]) == 1, argv
        err = capsys.readouterr().err
        assert f"config error: config field '{field}'" in err, argv
        assert "Traceback" not in err


def test_out_is_a_sweep_only_flag(tmp_path, capsys):
    # validate and print-config write no file, so --out is a usage error
    for command in ("validate", "print-config"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err


def test_exit_code_runtime_error(tmp_path, small_config, monkeypatch):
    # unwritable output location: a file where the directory should go
    blocker = tmp_path / "blocked"
    blocker.write_text("", encoding="utf-8")
    rc = main(["outage", "--config", small_config, "--grid", "1",
               "--out", str(blocker)])
    assert rc == 2


def test_exit_code_noise_underflow(tmp_path, capsys):
    # -5000 dBm underflows the noise power to 0, which no link budget allows
    ini = tmp_path / "quiet.ini"
    ini.write_text(SMALL_INI + "noise_power_dbm = -5000\n", encoding="utf-8")
    for command in ("outage", "sumrate"):
        rc = main([command, "--config", str(ini), "--grid", "1",
                   "--out", str(tmp_path / command)])
        assert rc == 1
        assert ("config error: config field 'noise_power_dbm'"
                in capsys.readouterr().err)


# 1e-200 m squares to 0, so aligned antennas sit 0 m apart: the channel
# divides by zero and warns on the way to a non-finite gain
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("user", ["far", "near"])
def test_exit_code_non_finite_gain(tmp_path, capsys, user):
    ini = tmp_path / "tiny.ini"
    ini.write_text(f"[channel]\nbs_user_distance_{user} = 1e-200\n", encoding="utf-8")
    for command, grid in (("outage", "1"), ("sumrate", "30")):
        out = tmp_path / command
        rc = main([command, "--config", str(ini), "--grid", grid,
                   "--trials", "200", "--out", str(out)])
        assert rc == 2
        assert "channel gains must be finite" in capsys.readouterr().err
        assert not (out / f"{command}.csv").exists()


def test_exit_code_dead_pool_worker(tmp_path, small_config, monkeypatch, capsys):
    # every pool worker exits as it starts, which breaks the pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, initializer=os._exit, initargs=(1,)))
    # two chunks give two tasks, so the sweep still uses the pool
    rc = main(["outage", "--config", small_config, "--grid", "1:2:1",
               "--trials", "1100", "--workers", "2",
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "worker pool failed" in capsys.readouterr().err


def _rate_check_line(out):
    (line,) = [x for x in out.splitlines() if "fair far-rate worst deviation" in x]
    return line


def test_validate_passes_and_reports(tmp_path, small_config, capsys):
    rc = main(["validate", "--config", small_config, "--seed", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "validation passed" in out
    assert "SE" in out  # per-case margins are reported
    assert _rate_check_line(out).endswith(" ok")


def test_validate_fails_when_fair_share_misses_the_target(small_config, monkeypatch,
                                                          capsys):
    # both fair schemes get the same perturbed share, so the branches still
    # agree and only the far-rate check can fail
    allocate = cli.allocate

    def perturbed(*args):
        alpha, feasible = allocate(*args)
        return (alpha * (1.0 + 1e-6) if feasible else alpha), feasible

    monkeypatch.setattr(cli, "allocate", perturbed)
    rc = main(["validate", "--config", small_config, "--seed", "2"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "branch disagreement" not in out
    assert _rate_check_line(out).endswith(" FAIL")


def test_validate_exit_code_on_impossible_tolerance(small_config, capsys):
    rc = main(["validate", "--config", small_config, "--seed", "2",
               "--tolerance-se", "1e-9"])
    assert rc == 3
    assert "FAILED" in capsys.readouterr().out
