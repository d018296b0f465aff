"""thznoma benchmark: end-to-end CLI runs and per-layer traced runs.

Usage, from the repository root:

    python3 perfbench/run.py --workload outage|sumrate-pool|validate \
        --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: one CLI invocation at a
time, each a fresh process (``python3 -m thznoma.cli``) with at most two
worker processes. Invocations repeat until ``--seconds`` is used up (at
least three with ``--trace 0``, one round with ``--trace 1``). Every
invocation gets its own CLI seed, drawn from ``--seed``.

``--trace 0`` reports the end-to-end metrics of untraced invocations,
``--trace 1`` the per-layer metrics of runs through ``traced_cli.py``.
The last stdout line is the JSON result; the lines before it give each
metric with its unit and sample count, and the environment. A fuller
record of every invocation goes to ``perfbench/results/``.

Every output is checked: a sweep CSV against the stored reference values
(``reference.py``), ``validate`` by its exit code. A failed check counts
in ``failed`` and ``failed_share``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

RUN_LIMIT_S = 165.0        # every child is killed before a run reaches this
SETUP_SAMPLES = 5          # fewest fresh-interpreter set-ups per run
MIN_INVOCATIONS = 3        # untraced CLI invocations per end-to-end run
# BLAS thread pinning, set in the children's environment only
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

VALIDATE_ORACLE_DRAWS = 6 * 2 * 200000   # cases x SNRs x draws in `validate`


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple        # without --workers, --seed and --out
    workers: int
    csv: str | None        # output file checked against the reference
    trials: int            # Monte Carlo trials per grid point and scheme
    work: int              # Monte Carlo trials per invocation
    setup_power: str       # setup_probe.py channel argument


def _sweep(kind: str, trials: int) -> tuple:
    return tuple(reference.SWEEPS[kind] + ["--trials", str(trials)])


WORKLOADS = {
    # 12 rates x 3 schemes; 1536 trials = one full and one partial chunk
    "outage": Workload("outage", _sweep("outage", 1536), 1, "outage.csv",
                       1536, 12 * 3 * 1536, "default"),
    # 6 powers x 4 schemes; 8 chunks per point so both workers get 4
    "sumrate-pool": Workload("sumrate-pool", _sweep("sumrate", 8192), 2,
                             "sumrate.csv", 8192, 6 * 4 * 8192, "0"),
    # 5 SE instead of the default 3: twelve comparisons at 3 SE raise a
    # false alarm on about 3% of seeds, at 5 SE on about 1 in 1e5
    "validate": Workload("validate", ("validate", "--tolerance-se", "5"), 1,
                         None, 200000, VALIDATE_ORACLE_DRAWS, "none"),
}

END_TO_END_UNITS = {"wall_s": "s", "trials_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_share": "share"}

# per-layer metric -> (traced layer, stats field)
LAYER_METRICS = {
    "channel.build_s": ("channel.build", "busy_s"),
    "channel.build_calls": ("channel.build", "calls"),
    "channel.fading_s": ("channel.fading", "busy_s"),
    "channel.fading_draws": ("channel.fading", "units"),
    "channel.combine_s": ("channel.combine", "busy_s"),
    "channel.combine_calls": ("channel.combine", "calls"),
    "noma.gain_s": ("noma.gain", "busy_s"),
    "noma.gain_calls": ("noma.gain", "calls"),
    "noma.link_s": ("noma.link", "busy_s"),
    "noma.link_calls": ("noma.link", "calls"),
    "allocation.allocate_s": ("allocation.allocate", "busy_s"),
    "allocation.allocate_calls": ("allocation.allocate", "calls"),
    "allocation.reference_s": ("allocation.reference", "busy_s"),
    "allocation.reference_calls": ("allocation.reference", "calls"),
    "ergodic.closed_form_s": ("ergodic.closed_form", "busy_s"),
    "ergodic.closed_form_calls": ("ergodic.closed_form", "calls"),
    "ergodic.oracle_s": ("ergodic.oracle", "busy_s"),
    "ergodic.oracle_draws": ("ergodic.oracle", "units"),
    "montecarlo.trial_self_s": ("montecarlo.trial", "self_s"),
    "montecarlo.trial_calls": ("montecarlo.trial", "calls"),
}


# ---------------------------------------------------------------------------
# child processes

def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, **BLAS_ENV)


def _kill_group(pgid: int):
    """SIGKILL what is left of a child's process group and wait it out."""
    for _ in range(200):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Runner:
    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.started = time.perf_counter()
        self.count = 0

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, argv: list, ready_line: bool = False) -> dict:
        """Run one child to completion in its own process group.

        Returns exit code, wall time, the time its first stdout line
        arrived (when ``ready_line``), and the peak resident set size of
        the child and the descendants it waited for (``ru_maxrss`` from
        ``wait4``, the largest single process, not a sum).
        """
        self.count += 1
        log = os.path.join(self.work_dir, f"child-{self.count}.log")
        timeout = max(self.remaining(), 1.0)
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=_child_env(), start_new_session=True,
                stdout=subprocess.PIPE if ready_line else out,
                stderr=out)
            killed = threading.Event()

            def kill():
                killed.set()
                _kill_group(proc.pid)

            timer = threading.Timer(timeout, kill)
            timer.start()
            ready = None
            try:
                if ready_line:
                    line = proc.stdout.readline()
                    ready = time.perf_counter() - start
                    if line.strip() != b"ready":
                        ready = None
                    out.write(line + proc.stdout.read())
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                if proc.stdout is not None:
                    proc.stdout.close()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)   # pool workers left behind by a killed run
        return {"exit": proc.returncode, "wall_s": wall, "ready_s": ready,
                "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6, "log": log,
                "timed_out": killed.is_set()}


def _exit_problems(rec: dict) -> list:
    if rec["exit"] == 0:
        return []
    with open(rec["log"], "rb") as fh:
        tail = fh.read().decode("utf-8", "replace").strip().splitlines()[-1:]
    return [f"exit code {rec['exit']}: {' '.join(tail)[:300]}"]


def _check_output(wl: Workload, rec: dict, out_dir: str, ref: dict | None) -> list:
    problems = _exit_problems(rec)
    if wl.csv is None:
        return problems
    path = os.path.join(out_dir, wl.csv)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return problems + [f"no {wl.csv}"]
    rec["csv_sha256"] = hashlib.sha256(data).hexdigest()
    rec["csv_bytes"] = data
    kind = os.path.splitext(wl.csv)[0]
    return problems + reference.check_csv(kind, data.decode("utf-8"), wl.trials, ref)


def run_cli(runner: Runner, wl: Workload, seed: int, ref, mode: str = "cli",
            workers: int | None = None) -> dict:
    """One CLI invocation, plain (``cli``) or through traced_cli.py."""
    out_dir = tempfile.mkdtemp(prefix="out-", dir=runner.work_dir)
    workers = workers or wl.workers
    args = list(wl.cli_args) + ["--workers", str(workers), "--seed", str(seed)]
    args += ["--out", out_dir] if wl.csv else []
    stats_path = os.path.join(out_dir, "trace.json")
    if mode == "cli":
        argv = [sys.executable, "-m", "thznoma.cli"] + args
    else:
        argv = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                stats_path, mode, "--"] + args
    rec = runner.spawn(argv)
    rec.update(mode=mode, seed=seed, workers=workers)
    rec["problems"] = _check_output(wl, rec, out_dir, ref)
    if mode != "cli":
        try:
            with open(stats_path, encoding="utf-8") as fh:
                rec["trace"] = json.load(fh)
        except (OSError, ValueError):
            rec["problems"].append("no trace stats")
    return rec


def probe_setup(runner: Runner, wl: Workload) -> dict:
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), wl.setup_power]
    rec = runner.spawn(argv, ready_line=True)
    rec["mode"] = "setup"
    rec["problems"] = _exit_problems(rec)
    if not rec["problems"] and rec["ready_s"] is None:
        rec["problems"].append("set-up probe printed no ready line")
    return rec


# ---------------------------------------------------------------------------
# runs

def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _keep_going(runner: Runner, start: float, rounds: int, minimum: int,
                seconds: float, last: list) -> bool:
    """Start another round only if it should end within the budget."""
    if any(r.get("timed_out") for r in last):
        return False
    elapsed = time.perf_counter() - start
    per_round = elapsed / rounds
    if runner.remaining() < 2 * per_round + 5:
        return False
    return rounds < minimum or elapsed + per_round <= seconds


def end_to_end(runner: Runner, wl: Workload, seeds: random.Random,
               seconds: float, ref) -> tuple:
    """Rounds of one set-up probe and one CLI invocation, so that both
    sample the whole window: the machine's speed drifts over seconds."""
    probe_setup(runner, wl)   # warm-up: file cache, bytecode; not counted
    start = time.perf_counter()
    setups, calls = [], []
    while True:
        setups.append(probe_setup(runner, wl))
        calls.append(run_cli(runner, wl, seeds.randrange(1, 2 ** 31), ref))
        if not _keep_going(runner, start, len(calls), MIN_INVOCATIONS,
                           seconds, calls[-1:]):
            break
    while len(setups) < SETUP_SAMPLES and runner.remaining() > 10:
        setups.append(probe_setup(runner, wl))
    wall = _median(r["wall_s"] for r in calls)
    records = setups + calls
    failed = sum(bool(r["problems"]) for r in records)
    metrics = {
        "wall_s": (wall, len(calls)),
        "trials_per_s": (wl.work / wall, len(calls)),
        "setup_s": (_median(r["ready_s"] for r in setups), len(setups)),
        "peak_rss_mb": (_median(r["peak_rss_mb"] for r in calls), len(calls)),
        "ok_share": (1.0 - failed / len(records), len(records)),
    }
    return metrics, END_TO_END_UNITS, records


def _layer(rec: dict, layer: str, field: str):
    stats = rec.get("trace", {}).get("layers", {}).get(layer)
    return stats[field] if stats else 0


def traced(runner: Runner, wl: Workload, seeds: random.Random,
           seconds: float, ref) -> tuple:
    """Rounds of: light run as configured, light run at one worker (pool
    workloads only), full trace at one worker, all on one CLI seed."""
    pool = wl.workers > 1
    start = time.perf_counter()
    rounds, records = [], []
    while True:
        seed = seeds.randrange(1, 2 ** 31)
        light = run_cli(runner, wl, seed, ref, "light")
        light1 = run_cli(runner, wl, seed, ref, "light", 1) if pool else light
        full = run_cli(runner, wl, seed, ref, "full", 1)
        if wl.csv:
            if full.get("csv_bytes") != light1.get("csv_bytes"):
                full["problems"].append("traced CSV differs from untraced CSV")
            if pool and light.get("csv_bytes") != light1.get("csv_bytes"):
                light["problems"].append(
                    f"CSV at {wl.workers} workers differs from 1 worker")
        rounds.append((light, light1, full))
        records += [light, light1, full] if pool else [light, full]
        if not _keep_going(runner, start, len(rounds), 1, seconds, rounds[-1]):
            break
    fulls = [f for _, _, f in rounds]
    first = fulls[0]
    metrics = {
        "cli.import_s": _median(r.get("trace", {}).get("import_s") for r in records),
        "config.parse_s": _median(_layer(r, "config.parse", "busy_s") for r in records),
        "montecarlo.sweep_s": _median(_layer(lt, "montecarlo.sweep", "busy_s")
                                      for lt, _, _ in rounds),
    }
    for name, (layer, field) in LAYER_METRICS.items():
        if field.endswith("_s"):
            metrics[name] = _median(_layer(f, layer, field) for f in fulls)
        else:
            metrics[name] = _layer(first, layer, field)
    if pool:
        s_w = [_layer(lt, "montecarlo.sweep", "busy_s") for lt, _, _ in rounds]
        s_1 = [_layer(l1, "montecarlo.sweep", "busy_s") for _, l1, _ in rounds]
        eff = [a / (wl.workers * b) for a, b in zip(s_1, s_w) if b > 0]
        over = [b - a / wl.workers for a, b in zip(s_1, s_w)]
        metrics["montecarlo.pool_efficiency"] = _median(eff)
        metrics["montecarlo.pool_overhead_s"] = _median(over)
    else:   # no pool on this workload
        metrics["montecarlo.pool_efficiency"] = 0.0
        metrics["montecarlo.pool_overhead_s"] = 0.0
    metrics["trace.overhead_s"] = _median(f["wall_s"] - l1["wall_s"]
                                          for _, l1, f in rounds)
    units = {n: ("count" if n.endswith(("_calls", "_draws")) else
                 "ratio" if n.endswith("_efficiency") else "s") for n in metrics}
    samples = {n: (1 if units[n] == "count" else len(rounds)) for n in metrics}
    samples["cli.import_s"] = samples["config.parse_s"] = len(records)
    metrics = {n: (v, samples[n]) for n, v in metrics.items()}
    return metrics, units, records


# ---------------------------------------------------------------------------
# environment and report

def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "thznoma")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "child_env": BLAS_ENV,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "thznoma", "cli.py")):
        print(f"no thznoma sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    ref = reference.load(os.path.splitext(wl.csv)[0]) if wl.csv else None
    env = environment()
    seeds = random.Random(args.seed)

    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        runner = Runner(work_dir)
        measure = traced if args.trace else end_to_end
        metrics, units, records = measure(runner, wl, seeds, args.seconds, ref)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(bool(r["problems"]) for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, (v, _) in metrics.items()},
    }
    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "samples": {n: s for n, (_, s) in metrics.items()},
        "result": result,
        "invocations": [{k: v for k, v in r.items()
                         if k not in ("csv_bytes", "log")} for r in records],
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    detail_path = os.path.join(
        HERE, "results", f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(detail_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print("environment " + " ".join(
        f"{k}={','.join(f'{a}={b}' for a, b in v.items()) if isinstance(v, dict) else v}"
        for k, v in env.items()))
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(records)} processes, {failed} failed")
    for r in records:
        for problem in r["problems"]:
            print(f"  FAILED {r['mode']} seed {r.get('seed', '-')}: {problem}")
    for n, (v, samples) in metrics.items():
        print(f"  {n:28s} {v:14.6g} {units[n]:6s} (n={samples})")
    print(f"  {'failed_share':28s} {failed / len(records):14.6g} {'share':6s} "
          f"({failed}/{len(records)})")
    print(f"detail {os.path.relpath(detail_path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
