"""CLI subcommands: grids, CSV layout, manifests, exit codes, determinism."""

import concurrent.futures
import functools
import gc
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from thznoma import cli, montecarlo
from thznoma.cli import _parse_grid, _parse_schemes, main
from thznoma.config import (FAR, NEAR, ConfigError, ScenarioConfig,
                            parse_config, render_config)

SMALL_INI = """\
[channel]
bs_antennas = 4
user_antennas = 4
ris_elements = 16
"""


# an INI per field that makes a scenario invalid; every command rejects each
BAD_INIS = {
    "frequency_hz": "[channel]\nfrequency_hz = -1\n",
    "noise_figure_db": "[montecarlo]\nnoise_figure_db = nan\n",
    # a non-finite channel field is named before any channel is built
    "shape_m": "[channel]\nshape_m = inf\n",
    # 1e-200 m squares to 0, which would put aligned antennas 0 m apart
    "bs_user_distance_near": "[channel]\nbs_user_distance_near = 1e-200\n",
    # every grid point is a scenario, checked like one; 2^2000 - 1 overflows
    "target_rate": "[noma]\ntarget_rate = 2000\n",
    # no positive equivalent beamwidth, so no pointing loss Delta3
    "beamwidth_m": "[channel]\nbeamwidth_m = 1e-170\n",
    # the reference link is a channel, not a scenario mode
    "freespace_baseline": "[montecarlo]\nfreespace_baseline = false\n",
    # Q is len(nlos_gains) + 1, and noise_figure_db sets the noise power
    "ray_count": "[channel]\nray_count = 4\n",
    "noise_power_dbm": "[montecarlo]\nnoise_power_dbm = -90\n",
    # the trial and worker counts are the run's flags, not the scenario's
    "trials": "[montecarlo]\ntrials = 400\n",
    "workers": "[montecarlo]\nworkers = 2\n",
    # a % is a literal character, not an interpolation
    "ris_phase_mode": "[channel]\nris_phase_mode = 50%\n",
    # [DEFAULT] is no scenario section; its keys would land in every one
    "DEFAULT": "[DEFAULT]\nshape_m = 3\n[channel]\nbs_antennas = 4\n",
    # an unclosed section header is no INI at all
    "config": "[channel\nbs_antennas = 4\n",
}


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
    # that runs a pool imports them
    assert _modules_after_import(("multiprocessing",
                                  "concurrent.futures.process")) == "[]"


def test_parse_grid():
    assert _parse_grid("0.5:6:0.5") == tuple(0.5 + 0.5 * k for k in range(12))
    assert _parse_grid("0:30:6") == (0.0, 6.0, 12.0, 18.0, 24.0, 30.0)
    assert _parse_grid("3") == (3.0,)
    assert _parse_grid("2:2:1") == (2.0,)
    for bad in ("a:b:c", "1:2", "1:2:0", "5:1:1", "", "0:inf:1", "0:nan:1",
                "nan", "inf", "-1e308:1e308:1",
                # distinct points that the CSV prints alike at 12 digits
                "0.5:0.50000000000005:1e-14"):
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
               "--grid", "0.5:1.5:0.5", "--trials", "400", "--out", out])
    assert rc == 0
    lines = Path(out, "outage.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "target_rate,scheme,user,outage,stderr"
    # 3 grid points x 2 schemes x 2 users
    assert len(lines) == 1 + 3 * 2 * 2
    first = lines[1].split(",")
    assert first[0] == "0.5" and first[1] == "fixed" and first[2] == "far"
    for row in lines[1:]:
        cells = row.split(",")
        assert len(cells) == 5
        assert 0.0 <= float(cells[3]) <= 1.0


def test_failed_write_leaves_no_file(tmp_path, small_config, capsys,
                                     monkeypatch):
    # the temporary file is removed when it cannot take the CSV's name
    def failing(src, dst):
        raise OSError(f"cannot rename {src!r}")

    monkeypatch.setattr(os, "replace", failing)
    out = tmp_path / "run"
    rc = main(["outage", "--config", small_config, "--grid", "1",
               "--trials", "10", "--out", str(out)])
    assert rc == 2
    assert "error: cannot rename" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_outputs_take_the_umask_permissions(tmp_path, small_config,
                                            monkeypatch):
    # like a file made by open, not the 0600 of the temporary file; the
    # kernel applies the umask, so the writer never reads or sets the
    # process-wide one, and a run where os.umask raises writes the same
    set_umask = os.umask

    def no_umask(mask):
        raise AssertionError("the writer calls os.umask")

    for umask, mode, guarded in ((0o022, 0o644, False), (0o077, 0o600, False),
                                 (0o077, 0o600, True)):
        out = tmp_path / f"run{umask:o}{'-guarded' if guarded else ''}"
        old = set_umask(umask)
        try:
            with monkeypatch.context() as patch:
                if guarded:
                    patch.setattr(os, "umask", no_umask)
                rc = main(["outage", "--config", small_config, "--grid", "1",
                           "--trials", "10", "--out", str(out)])
        finally:
            set_umask(old)
        assert rc == 0
        for name in ("outage.csv", "outage_manifest.json"):
            assert (out / name).stat().st_mode & 0o777 == mode, (umask, name)
        assert sorted(p.name for p in out.iterdir()) == [
            "outage.csv", "outage_manifest.json"]


def test_outage_manifest(tmp_path, small_config):
    out = str(tmp_path / "run")
    main(["outage", "--config", small_config, "--seed", "3",
          "--grid", "1", "--trials", "400", "--out", out])
    manifest = json.loads(Path(out, "outage_manifest.json").read_text(
        encoding="utf-8"))
    assert manifest["command"] == "outage"
    assert manifest["seed"] == 3
    assert manifest["outputs"] == ["outage.csv"]
    assert manifest["trials"] == 400
    assert manifest["config"]["bs_antennas"] == 4
    assert "timestamp" in manifest and "version" in manifest


def test_manifest_does_not_depend_on_the_worker_count(tmp_path, small_config,
                                                      pool_starts):
    # two chunks, one a worker, so two workers run a pool; the run record,
    # like the CSV, is the same at any worker count but for its timestamp
    manifests = []
    for workers in ("1", "2"):
        out = str(tmp_path / workers)
        assert main(["outage", "--config", small_config, "--grid", "1:2:1",
                     "--trials", "2048", "--workers", workers, "--out", out]) == 0
        manifest = json.loads(Path(out, "outage_manifest.json").read_text(
            encoding="utf-8"))
        del manifest["timestamp"]
        manifests.append(manifest)
    assert pool_starts == [2]
    assert manifests[0] == manifests[1]


def test_outage_rerun_is_byte_identical(tmp_path, small_config):
    out1, out2, out3 = (str(tmp_path / d) for d in ("a", "b", "c"))
    args = ["outage", "--config", small_config, "--grid", "0.5:2.5:1",
            "--trials", "500"]
    main(args + ["--seed", "11", "--out", out1])
    main(args + ["--seed", "11", "--out", out2])
    main(args + ["--seed", "12", "--out", out3])
    read = lambda d: Path(d, "outage.csv").read_bytes()
    assert read(out1) == read(out2)
    assert read(out1) != read(out3)


def test_outage_zero_target_grid(tmp_path, small_config):
    out = str(tmp_path / "run")
    main(["outage", "--config", small_config, "--grid", "0", "--trials", "400",
          "--out", out])
    lines = Path(out, "outage.csv").read_text(encoding="utf-8").splitlines()
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
    lines = Path(out, "sumrate.csv").read_text(encoding="utf-8").splitlines()
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
    lines = Path(out, "sumrate.csv").read_text(encoding="utf-8").splitlines()
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
                                 ris_elements=16)


def test_exit_code_config_error(tmp_path, capsys):
    # a bad flag is exit 1, as a bad INI is in every command (see below);
    # a non-finite grid is rejected before it reaches the sweep
    assert main(["outage", "--grid", "0:inf:1"]) == 1
    assert "config error: config field 'grid'" in capsys.readouterr().err
    assert main(["outage", "--grid", "nonsense"]) == 1
    # a power that overflows tx_power_w is a config error, not a traceback
    assert main(["sumrate", "--grid", "4000", "--out", str(tmp_path)]) == 1
    assert "tx_power_dbm" in capsys.readouterr().err
    assert main(["print-config", "--config", str(tmp_path / "missing.ini")]) == 1
    for argv in (["outage", "--out", str(tmp_path)],
                 ["sumrate", "--out", str(tmp_path)], ["validate"]):
        assert main(argv + ["--seed", "-1"]) == 1
        assert "config error: config field 'seed'" in capsys.readouterr().err
    collapsing = "1e16:1.0000000000000004e16:1"  # 1e16 + 1 == 1e16
    print_alike = "0.5:0.50000000000005:1e-14"  # five points, one CSV key
    for argv, field in ((["outage", "--grid", "2000"], "target_rate"),
                        (["outage", "--grid", "-1"], "target_rate"),
                        (["outage", "--grid", collapsing], "grid"),
                        (["sumrate", "--grid", collapsing], "grid"),
                        (["outage", "--grid", print_alike], "grid"),
                        (["sumrate", "--grid", print_alike], "grid"),
                        (["outage", "--grid", "1", "--schemes", ""], "schemes"),
                        (["outage", "--grid", "1", "--schemes", " , "], "schemes"),
                        (["outage", "--grid", "1", "--schemes", "fair,fair"],
                         "schemes")):
        assert main(argv + ["--trials", "10", "--out", str(tmp_path)]) == 1, argv
        err = capsys.readouterr().err
        assert f"config error: config field '{field}'" in err, argv
        assert "Traceback" not in err


def test_out_is_a_sweep_only_flag(tmp_path, capsys):
    # validate and print-config write no file, so --out is a usage error;
    # so is any other flag a command does not read
    for argv in (["validate", "--out", str(tmp_path)],
                 ["print-config", "--out", str(tmp_path)],
                 ["print-config", "--seed", "1"],
                 ["print-config", "--trials", "5"],
                 ["print-config", "--workers", "2"],
                 ["validate", "--trials", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_exit_code_runtime_error(tmp_path, small_config, monkeypatch):
    # unwritable output location: a file where the directory should go
    blocker = tmp_path / "blocked"
    blocker.write_text("", encoding="utf-8")
    rc = main(["outage", "--config", small_config, "--grid", "1",
               "--trials", "400", "--out", str(blocker)])
    assert rc == 2


def test_exit_code_noise_underflow(tmp_path, capsys):
    # a -5000 dB noise figure underflows the noise power to 0, which no
    # link budget allows
    ini = tmp_path / "quiet.ini"
    ini.write_text(SMALL_INI + "\n[montecarlo]\nnoise_figure_db = -5000\n",
                   encoding="utf-8")
    for command in ("outage", "sumrate"):
        rc = main([command, "--config", str(ini), "--grid", "1",
                   "--out", str(tmp_path / command)])
        assert rc == 1
        assert ("config error: config field 'noise_figure_db'"
                in capsys.readouterr().err)


# 1e-160 m squares to a subnormal, not to 0, so the config takes it; the
# aligned antennas' entry amplitude is then about 3e155 and its square
# overflows: the channel warns on the way to a non-finite gain, which
# validate, faded or not, stops on before it checks anything
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("user", ["far", "near"])
def test_exit_code_non_finite_gain(tmp_path, capsys, user):
    ini = tmp_path / "tiny.ini"
    ini.write_text(f"[channel]\nbs_user_distance_{user} = 1e-160\n", encoding="utf-8")
    for command, grid in (("outage", "1"), ("sumrate", "30")):
        out = tmp_path / command
        rc = main([command, "--config", str(ini), "--grid", grid,
                   "--trials", "200", "--out", str(out)])
        assert rc == 2
        assert "channel gains must be finite" in capsys.readouterr().err
        assert not (out / f"{command}.csv").exists()
    for fading in ("true", "false"):
        ini.write_text(f"[channel]\nbs_user_distance_{user} = 1e-160\n"
                       f"fading_enabled = {fading}\n", encoding="utf-8")
        assert main(["validate", "--config", str(ini)]) == 2, fading
        out, err = capsys.readouterr()
        assert "channel gains must be finite" in err
        assert "FAIL" not in out
        assert "spectrum" not in out + err


# 1e-153 m keeps both gains finite, but the near user's SINR overflows at
# 100 dBm: it is inf, and at the SIC stage at 200 dBm inf / inf
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command, extra, flags", [
    ("sumrate", "", ["--schemes", "fixed,fair,improved-fair", "--grid", "100"]),
    ("outage", "[montecarlo]\ntx_power_dbm = 200\n",
     ["--schemes", "fixed", "--grid", "3"])], ids=["sumrate", "outage"])
def test_exit_code_sinr_overflow(tmp_path, capsys, command, extra, flags):
    ini = tmp_path / "close.ini"
    ini.write_text("[channel]\nbs_user_distance_near = 1e-153\n" + extra,
                   encoding="utf-8")
    out = tmp_path / command
    rc = main([command, "--config", str(ini), "--trials", "200",
               "--out", str(out), *flags])
    assert rc == 2
    assert "SINR must be finite" in capsys.readouterr().err
    assert not (out / f"{command}.csv").exists()


@pytest.mark.parametrize("field, text", [
    *(pytest.param(f, BAD_INIS[f].encode(), id=f) for f in sorted(BAD_INIS)),
    # a Latin-1 byte is no UTF-8, so the file is no INI the parser reads
    pytest.param("config", b"[channel]\nshape_m = 1.0 # caf\xe9\n",
                 id="config-latin1"),
    # an empty [DEFAULT] is an unknown section too
    pytest.param("DEFAULT", b"[DEFAULT]\n[channel]\nbs_antennas = 4\n",
                 id="DEFAULT-empty")])
def test_every_command_rejects_the_same_scenarios(tmp_path, capsys, field,
                                                  text, pool_starts):
    # the scenario validates itself, so print-config and validate reject
    # what the sweeps reject, and a sweep rejects it before it forks a
    # pool: when any work repays one, two chunks would give two workers
    path = tmp_path / "bad.ini"
    path.write_bytes(text)
    ini = str(path)
    runs = [["print-config"], ["validate", "--tolerance-se", "5"]]
    for command in ("outage", "sumrate"):
        for workers in ("1", "2"):
            runs.append([command, "--trials", "2048", "--workers", workers,
                         "--out", str(tmp_path / command / workers)])
    for argv in runs:
        assert main(argv + ["--config", ini]) == 1, argv
        err = capsys.readouterr().err
        assert f"config error: config field '{field}'" in err, argv
        assert "Traceback" not in err
    assert pool_starts == []
    assert not (tmp_path / "outage").exists()
    assert not (tmp_path / "sumrate").exists()


def test_exit_code_dead_pool_worker(tmp_path, small_config, monkeypatch, capsys):
    # every pool worker exits as it starts, which breaks the pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, initializer=os._exit, initargs=(1,)))
    # when any work repays a pool, two chunks give two tasks, so the sweep
    # uses the pool
    monkeypatch.setattr(montecarlo, "POOL_EVALS", 1)
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
    allocate = cli.allocate

    def perturbed(*args):
        alpha, feasible = allocate(*args)
        return np.where(feasible, alpha * (1.0 + 1e-6), alpha), feasible

    monkeypatch.setattr(cli, "allocate", perturbed)
    rc = main(["validate", "--config", small_config, "--seed", "2"])
    out = capsys.readouterr().out
    assert rc == 3
    assert _rate_check_line(out).endswith(" FAIL")


def test_validate_exit_code_on_impossible_tolerance(small_config, capsys):
    rc = main(["validate", "--config", small_config, "--seed", "2",
               "--tolerance-se", "1e-9"])
    assert rc == 3
    assert "FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_validate_rejects_a_tolerance_that_is_not_finite_and_positive(
        small_config, tolerance, capsys):
    # NaN or a negative bound fails every case, an infinite one none
    rc = main(["validate", "--config", small_config,
               f"--tolerance-se={tolerance}"])
    assert rc == 1
    assert "tolerance_se" in capsys.readouterr().err


def _ignore_m(shape_m, rng, size):
    # a sampler regression: every envelope Rayleigh, whatever m
    return np.sqrt(rng.standard_exponential(size))


@pytest.mark.parametrize("phases", ["random", "zero"])
@pytest.mark.parametrize("shape_m", [0.5, 1.5, 3.0, 1e8])
def test_validate_catches_a_sampler_that_ignores_m(tmp_path, monkeypatch, capsys,
                                                    shape_m, phases):
    path = tmp_path / "scenario.ini"
    path.write_text(f"[channel]\nshape_m = {shape_m}\nris_phase_mode = {phases}\n",
                    encoding="utf-8")
    monkeypatch.setattr(montecarlo, "sample_nakagami", _ignore_m)
    assert main(["validate", "--config", str(path)]) == 3
    # the THz link's gain law is what fails
    assert any(line.startswith(f"  thz m {shape_m:g} ") and line.endswith(" FAIL")
               for line in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("shape_m", [1e8, 1e12, 1e300])
def test_validate_passes_at_any_accepted_m(tmp_path, capsys, shape_m):
    # exact moments that hold at any m, and a gain whose stderr is below its
    # rounding still compared to rounding
    path = tmp_path / "scenario.ini"
    path.write_text(f"[channel]\nshape_m = {shape_m!r}\n", encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 0
    assert "validation passed" in capsys.readouterr().out


@pytest.mark.parametrize("ini", [
    "[noma]\nfixed_alpha_far = 0\n", "[noma]\nfixed_alpha_far = 1\n",
    os.path.join(os.path.dirname(__file__), "golden", "m1-no-fading.ini"),
], ids=["alpha-0", "alpha-1", "m1-no-fading"])
def test_validate_passes_degenerate_links(tmp_path, capsys, ini):
    # a rate or gain that never varies has stderr 0: it is compared to
    # rounding, and a RuntimeWarning from dividing by 0 fails the test
    if ini.startswith("["):
        path = tmp_path / "scenario.ini"
        path.write_text(ini, encoding="utf-8")
        ini = str(path)
    assert main(["validate", "--config", ini, "--tolerance-se", "5"]) == 0
    assert "(no spread) ok" in capsys.readouterr().out


@pytest.mark.parametrize("ini, draws", [
    (None, 1),  # thz, baseline and the rate chain's direct link share m = 1
    ("m3.ini", 2),  # thz and direct at m = 3, baseline at m = 1
    ("m1-no-fading.ini", 1),  # no rate chain without fading
])
def test_validate_draws_once_per_shape(monkeypatch, capsys, ini, draws):
    calls = []

    def counting(shape_m, cfg, links, rng, n):
        calls.append((shape_m, list(links)))
        return montecarlo._chunk_gains(shape_m, cfg, links, rng, n)

    monkeypatch.setattr(cli, "_chunk_gains", counting)
    config = [] if ini is None else [
        "--config", os.path.join(os.path.dirname(__file__), "golden", ini)]
    assert main(["validate"] + config) == 0
    assert len(calls) == draws, calls
    # the gain law prints no line for the direct link
    assert "direct" not in capsys.readouterr().out


def test_validate_builds_the_direct_matrices_once(monkeypatch, capsys):
    # the rate chain's "direct" link reads the "thz" link's |D|^2, so the
    # direct matrix is built once per user
    calls = []

    def counting(cfg, user, _real=montecarlo.direct_channel_matrix):
        calls.append(user)
        return _real(cfg, user)

    monkeypatch.setattr(montecarlo, "direct_channel_matrix", counting)
    montecarlo._deterministic_parts.cache_clear()
    assert main(["validate", "--seed", "7"]) == 0
    assert "validation passed" in capsys.readouterr().out
    assert sorted(calls) == [FAR, NEAR]


def test_validate_peak_memory(capsys):
    # the closed form's temporaries are (nodes x distinct entries), and the
    # link's |D|^2 has 16 distinct entries per user of 256
    argv = ["validate", "--tolerance-se", "5", "--seed", "7"]
    assert main(argv) == 0  # first-call allocations are not counted
    montecarlo._deterministic_parts.cache_clear()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "validation passed" in capsys.readouterr().out
    assert peak < 1.5e6


def test_process_entry_freezes_the_heap_after_main(monkeypatch, capsys):
    events = []
    real_main = cli.main

    def recording_main(argv=None):
        code = real_main(argv)
        events.append("main")
        return code

    monkeypatch.setattr(cli, "main", recording_main)
    monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(sys, "argv", ["thznoma", "print-config"])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 0
    assert events == ["main", "freeze"]
    assert capsys.readouterr().out == render_config(parse_config())


def test_main_freezes_nothing(capsys):
    # a frozen heap would keep a leaked file's cycle alive in a test process
    before = gc.get_freeze_count()
    assert main(["print-config"]) == 0
    assert gc.get_freeze_count() == before


def test_module_entry_prints_the_config():
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    out = subprocess.run([sys.executable, "-m", "thznoma.cli", "print-config"],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout == render_config(parse_config())


def test_benchmark_command_lines_run(tmp_path, monkeypatch):
    # each workload's argv as perfbench/run.py builds it, run in-process;
    # the benchmark is imported, not changed, and leaves no bytecode
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    for name, wl in run.WORKLOADS.items():
        argv = list(wl.cli_args) + ["--workers", str(wl.workers), "--seed", "1"]
        argv += ["--out", str(tmp_path / name)] if wl.csv else []
        assert main(argv) == 0, name
