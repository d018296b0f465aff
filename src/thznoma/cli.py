"""Command-line front end: config, sweeps, CSV emission, self-validation.

Subcommands:
    outage        near/far outage probability vs far-user target rate
    sumrate       mean sum rate vs transmit power, with reference link
    validate      the scenario's simulated link against exact moments and
                  the closed form, and PA conformance
    print-config  echo the fully resolved scenario in config grammar

Exit codes: 0 success, 1 config error, 2 runtime error or usage error
(argparse: an unknown, missing-value or malformed flag), 3 validation
failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .allocation import FAIR, allocate
from .config import (FAR, NEAR, ConfigError, ScenarioConfig, parse_config,
                     render_config)
from .ergodic import closed_form_capacity
from .montecarlo import (OUTAGE_SCHEMES, SUMRATE_SCHEMES, SweepSpec,
                         _chunk_gains, _deterministic_parts, _gain_moments,
                         _merge, _moments, _plan, run_outage_sweep,
                         run_sumrate_sweep)
from .noma import capacity, sinr

_DEFAULT_SEED = 12345
_DEFAULT_TRIALS = 100000
_OUTAGE_GRID = "0.5:6:0.5"
_SUMRATE_GRID = "0:30:6"
_VALIDATE_TRIALS = 4096


def _parse_grid(text: str) -> tuple:
    """Inclusive start:stop:step grid; a bare number is a one-point grid."""
    try:
        values = [float(p) for p in text.split(":")]
    except ValueError:
        values = []
    if len(values) not in (1, 3) or not all(map(math.isfinite, values)):
        raise ConfigError("grid", "start:stop:step or a single number, all finite",
                          text)
    if len(values) == 1:
        return tuple(values)
    start, stop, step = values
    # finite ends can still span more than a float: -1e308:1e308:1
    if step <= 0 or stop < start or math.isinf((stop - start) / step):
        raise ConfigError("grid", "step > 0, stop >= start and a finite span", text)
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    grid = tuple(start + k * step for k in range(count))
    # two points that print alike would write rows with the same key
    if len(set(map(_fmt, grid))) < count:
        raise ConfigError("grid", "points that differ in 12 significant digits",
                          text)
    return grid


def _parse_schemes(text: str) -> tuple:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _fmt(v) -> str:
    return f"{float(v):.12g}"


def _write_atomic(path: str, data: str):
    """Write a new file beside path, whose mode the umask sets, and rename it."""
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(out_dir: str, command: str, cfg: ScenarioConfig,
                    spec: SweepSpec, outputs: list):
    manifest = {
        "command": command,
        "config": cfg.as_dict(),
        "seed": spec.seed,
        "trials": spec.trials,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
    }
    path = os.path.join(out_dir, f"{command}_manifest.json")
    _write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _cmd_sweep(args) -> int:
    """``outage`` or ``sumrate``, by ``args.command``: sweep, write CSV and manifest."""
    cfg = parse_config(args.config)
    if args.command == "outage":
        default, sweep = OUTAGE_SCHEMES, run_outage_sweep
        header = "target_rate,scheme,user,outage,stderr"
        columns = ((["far"], "far_outage"), (["near"], "near_outage"))
    else:
        default, sweep = SUMRATE_SCHEMES, run_sumrate_sweep
        header = "tx_power_dbm,scheme,sum_rate,stderr"
        columns = (([], "sum_rate"),)
    schemes = default if args.schemes is None else _parse_schemes(args.schemes)
    spec = SweepSpec(grid=_parse_grid(args.grid), schemes=schemes,
                     seed=args.seed, trials=args.trials,
                     workers=args.workers)
    series = sweep(spec, cfg)
    lines = [header]
    for i, value in enumerate(spec.grid):
        for scheme in spec.schemes:
            s = series[scheme]
            for label, key in columns:
                lines.append(",".join([_fmt(value), scheme, *label, _fmt(s[key][i]),
                                       _fmt(s[f"{key}_stderr"][i])]))
    name = f"{args.command}.csv"
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, name)
    _write_atomic(csv_path, "\n".join(lines) + "\n")
    _write_manifest(args.out, args.command, cfg, spec, [name])
    print(f"wrote {csv_path} ({len(spec.grid)} grid points, "
          f"{spec.trials} trials/point)")
    return 0


def _check(label: str, estimate: float, exact: float, stderr: float,
           scale: float, tol: float) -> bool:
    """Print one estimate against its exact value; True if it is within
    tol std errors of it or, whatever its stderr, equals it to rounding,
    1e-12 of scale. The stderr picks the printed margin alone."""
    diff = abs(estimate - exact)
    ok = diff <= tol * stderr or diff <= 1e-12 * scale
    how = f"{diff / stderr:.2f} SE" if stderr > 0 else "no spread"
    print(f"  {label}: {estimate:.6g} exact {exact:.6g} ({how}) "
          f"{'ok' if ok else 'FAIL'}")
    return ok


def _cmd_validate(args) -> int:
    # the sweeps leave this check to SweepSpec; validate builds none
    if args.seed < 0:
        raise ConfigError("seed", "an integer >= 0", args.seed)
    cfg = parse_config(args.config)
    tol = args.tolerance_se
    # a NaN or negative margin bound fails every case, an infinite one none
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError("tolerance_se", "a finite value > 0", tol)
    rng = np.random.default_rng(args.seed)
    n = _VALIDATE_TRIALS
    p, s2, a = cfg.tx_power_w, cfg.noise_power_w, cfg.fixed_alpha_far
    failures = 0

    print(f"gain law: {n} draws of each link through the sweep's sampler "
          f"(tolerance {tol:g} std errors)")
    plan = _plan(cfg, SUMRATE_SCHEMES)
    if cfg.fading_enabled:  # the rate chain's link, drawn with the THz link
        plan[cfg.shape_m]["direct"] = []
    for shape_m, links in plan.items():
        for link, g in zip(links, _chunk_gains(shape_m, cfg, links, rng, n)):
            if link == "direct":
                direct = g
                continue
            mean, var = _gain_moments(cfg, link, shape_m)
            # the sweep's (mean, stderr) per user; a constant sample has stderr 0
            record = {"g": _moments(g), "sq": _moments((g - mean[:, None]) ** 2)}
            (g_mean, _), (sq_mean, sq_se) = _merge([record], [n]).values()
            for user, name in ((FAR, "far"), (NEAR, "near")):
                label = f"{link} m {shape_m:g} {name}"
                failures += not _check(f"{label} mean", g_mean[user], mean[user],
                                       math.sqrt(var[user] / n), mean[user], tol)
                failures += not _check(f"{label} variance", sq_mean[user],
                                       var[user], sq_se[user], mean[user] ** 2, tol)

    print("rate chain: fixed allocation without the surface vs the closed form")
    if cfg.fading_enabled:
        print("  (blind to the envelope law: a gain's M*N like terms average "
              "it out; the gain law sees it)")
        w = _deterministic_parts(cfg, "direct")[0]
        for user, name, signal, residual in ((FAR, "far", a, 1.0 - a),
                                             (NEAR, "near", 1.0 - a, 0.0)):
            rate, se = _merge([{name: _moments(capacity(
                sinr(direct[user], signal, residual, p, s2)))}], [n])[name]
            exact = closed_form_capacity(w[user], signal * p, residual * p, s2,
                                         cfg.shape_m)
            failures += not _check(f"{name} rate", rate, exact, se, exact, tol)
    else:
        print("  skipped: the closed form models a faded link")

    print("power allocation conformance")
    exponent, rate = rng.uniform((-16.0, 0.0), (-10.0, 6.0), (2000, 2)).T
    gain = 10.0 ** exponent
    alpha, feasible = allocate(FAIR, gain, p, s2, rate)
    # the fair share solves the rate equation: the far user gets R_m
    deviation = np.abs(capacity(sinr(gain, alpha, 1.0 - alpha, p, s2)) - rate)
    worst = float(np.max(deviation, where=feasible, initial=0.0))
    ok = worst <= 1e-9
    failures += not ok
    print(f"  fair far-rate worst deviation {worst:.3g} {'ok' if ok else 'FAIL'}")

    if failures:
        print(f"validation FAILED ({failures} violations)")
        return 3
    print("validation passed")
    return 0


def _cmd_print_config(args) -> int:
    sys.stdout.write(render_config(parse_config(args.config)))
    return 0


def _add_flags(p, command: str):
    """Each command's flags: only those it reads, so any other flag is a
    usage error (exit 2)."""
    p.add_argument("--config", default=None, help="scenario INI file")
    if command == "print-config":
        return
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED,
                   help="RNG seed (default %(default)s)")
    # validate ignores it: perfbench/run.py passes it to every workload
    p.add_argument("--workers", type=int, default=1,
                   help="most worker processes (default %(default)s); validate, "
                   "and a sweep with too little work for a pool, run in one process")
    if command == "validate":
        p.add_argument("--tolerance-se", type=float, default=5.0,
                       help="bound on each check's margin in std errors "
                       "(default %(default)s; up to 10 checks per run)")
        return
    p.add_argument("--trials", type=int, default=_DEFAULT_TRIALS,
                   help="Monte Carlo trials per grid point (default %(default)s)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--grid", default=_OUTAGE_GRID if command == "outage"
                   else _SUMRATE_GRID, help="start:stop:step (default %(default)s)")
    p.add_argument("--schemes", default=None, help="comma list of schemes to run")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thznoma",
        description="Link-level sweeps for a RIS-assisted NOMA-MIMO THz downlink.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, text in (
            ("outage", _cmd_sweep, "outage vs far-user target rate"),
            ("sumrate", _cmd_sweep, "sum rate vs transmit power (dBm)"),
            ("validate", _cmd_validate, "numerical self-checks"),
            ("print-config", _cmd_print_config, "echo the resolved scenario")):
        p = sub.add_parser(command, help=text)
        _add_flags(p, command)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    """The process entry of ``thznoma`` and ``python -m thznoma.cli``: main,
    then a frozen heap, which the collections at exit skip; main freezes nothing."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
