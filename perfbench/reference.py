"""Seed-independent correctness check for the sweep CSVs.

Every CSV value is compared with a reference estimate made once, at many
more trials, and stored in ``perfbench/reference/``. The check is
statistical, not byte-wise, so it holds for any workload seed and keeps
holding when a refactor moves the last bits of the channel gains.

Tolerance, per value (Z = 6):

* outage probability p at n trials:
  ``|p - p_ref| <= Z * sqrt(p_ref (1 - p_ref) / n + se_ref^2) + 2 / n``.
  The binomial error is taken from the reference value because a CSV
  value of 0 or 1 reports a zero standard error; the ``2 / n`` term
  covers the discreteness of a count of n trials.
* mean sum rate: ``|r - r_ref| <= Z * sqrt(se^2 + se_ref^2) + 1e-9 |r_ref|``,
  with se the CSV's own standard error (the sample mean of n >= 1024
  trials is close to normal); the relative term covers the CSV's 12
  significant digits.

At Z = 6 a correct program fails one value in about 5e8 under the normal
law, a little more often for outage counts near 0 or 1.

Regenerate the stored values (about 4 minutes on 2 cores), from the
repository root, with

    python3 perfbench/reference.py
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

Z = 6.0
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
REFERENCE_TRIALS = 100000
REFERENCE_SEED = 987654321

# CLI arguments of each reference sweep; the workloads run the same sweeps
# at fewer trials.
SWEEPS = {
    "outage": ["outage", "--schemes", "fixed,fair,improved-fair",
               "--grid", "0.5:6:0.5"],
    "sumrate": ["sumrate", "--schemes", "fixed,fair,improved-fair,baseline",
                "--grid", "0:30:6"],
}


def _rows(kind: str, text: str) -> dict:
    """CSV text -> {(grid, scheme[, user]): (value, stderr)}."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = {}
    for rec in reader:
        if kind == "outage":
            key, value, se = (rec[0], rec[1], rec[2]), rec[3], rec[4]
        else:
            key, value, se = (rec[0], rec[1]), rec[2], rec[3]
        if key in rows:
            raise ValueError(f"duplicate row {key}")
        rows[key] = (float(value), float(se))
    return header, rows


def load(kind: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{kind}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_csv(kind: str, text: str, trials: int, ref: dict) -> list:
    """Problems found in one CSV; an empty list means it passed."""
    try:
        header, rows = _rows(kind, text)
    except (ValueError, IndexError, StopIteration) as exc:
        return [f"unparseable {kind} CSV: {exc}"]
    if header != ref["header"]:
        return [f"header {header} != {ref['header']}"]
    expected = {tuple(r["key"]): r for r in ref["rows"]}
    problems = []
    for key in sorted(set(expected) ^ set(rows)):
        problems.append(f"row {key} {'missing' if key in expected else 'unexpected'}")
    for key in sorted(set(expected) & set(rows)):
        value, se = rows[key]
        r = expected[key]
        if kind == "outage":
            p = r["value"]
            tol = (Z * math.sqrt(p * (1.0 - p) / trials + r["stderr"] ** 2)
                   + 2.0 / trials)
        else:
            tol = Z * math.hypot(se, r["stderr"]) + 1e-9 * abs(r["value"])
        if not abs(value - r["value"]) <= tol:
            problems.append(f"{key}: {value!r} vs reference {r['value']!r} "
                            f"(tolerance {tol:.3g})")
    return problems


def make(root: str):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    work = os.path.join(os.path.dirname(REFERENCE_DIR), ".work")
    os.makedirs(work, exist_ok=True)
    for kind, args in SWEEPS.items():
        with tempfile.TemporaryDirectory(dir=work) as out:
            argv = args + ["--trials", str(REFERENCE_TRIALS), "--workers", "2",
                           "--seed", str(REFERENCE_SEED), "--out", out]
            subprocess.run([sys.executable, "-m", "thznoma.cli"] + argv,
                           env=env, cwd=root, check=True)
            with open(os.path.join(out, f"{kind}.csv"), encoding="utf-8") as fh:
                header, rows = _rows(kind, fh.read())
        doc = {
            "command": ["thznoma"] + args + ["--trials", str(REFERENCE_TRIALS),
                                             "--seed", str(REFERENCE_SEED)],
            "z": Z,
            "header": header,
            "rows": [{"key": list(k), "value": v, "stderr": se}
                     for k, (v, se) in rows.items()],
        }
        path = os.path.join(REFERENCE_DIR, f"{kind}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_dumps(doc))
        print(f"wrote {path} ({len(rows)} rows)")


def _dumps(doc: dict) -> str:
    """JSON with one row per line, so a regenerated file diffs by row."""
    head = {k: v for k, v in doc.items() if k != "rows"}
    lines = [json.dumps(head)[:-1] + ', "rows": [']
    lines += [f"  {json.dumps(r)}," for r in doc["rows"]]
    lines[-1] = lines[-1].rstrip(",")
    return "\n".join(lines) + "\n]}\n"


if __name__ == "__main__":
    make(os.getcwd())
