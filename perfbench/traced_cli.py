"""Run ``thznoma.cli.main`` in-process with timing wrappers on each layer.

Usage: python3 perfbench/traced_cli.py STATS_JSON full|light -- CLI_ARGS...

The wrappers are installed from here, around the public functions of each
module; nothing under ``src/`` changes. ``full`` wraps every layer in
``LAYERS``; ``light`` wraps only the functions called a handful of times
per run (config parsing and the sweep entry points), so its cost is a few
microseconds and its wall time stands for an untraced run.

A wrapped function that the package no longer has is reported under
``missing`` and its layer as not called, so a refactor that removes a
per-trial helper does not break the trace.

Per layer the stats hold calls, units (work counted by ``UNITS``), busy
time (outermost calls of the layer only, so nesting is not counted twice)
and self time (busy time minus the time of wrapped calls made inside).
Top-level spans (those with no wrapped caller) are kept with name, start
and end, relative to interpreter start-up of this script.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

_T0 = time.perf_counter()
import thznoma.cli as cli  # noqa: E402  (the import is itself measured)

IMPORT_S = time.perf_counter() - _T0

# (layer, module, public function)
LAYERS = [
    ("config.parse", "config", "parse_config"),
    ("channel.build", "channel", "direct_channel_matrix"),
    ("channel.build", "channel", "ris_channel_matrix"),
    ("channel.fading", "channel", "sample_nakagami"),
    ("channel.combine", "channel", "combine_channels"),
    ("noma.gain", "noma", "channel_gain"),
    ("noma.link", "noma", "sinr_own"),
    ("noma.link", "noma", "sinr_cross"),
    ("noma.link", "noma", "capacity"),
    ("allocation.allocate", "allocation", "allocate"),
    ("allocation.reference", "allocation", "fair_pa_iterative"),
    ("ergodic.closed_form", "ergodic", "closed_form_capacity"),
    ("ergodic.oracle", "ergodic", "ergodic_capacity_mc_oracle"),
    ("montecarlo.trial", "montecarlo", "run_trial"),
    ("montecarlo.sweep", "montecarlo", "run_outage_sweep"),
    ("montecarlo.sweep", "montecarlo", "run_sumrate_sweep"),
]
LIGHT_LAYERS = {"config.parse", "montecarlo.sweep"}


def _fading_units(fn):
    return lambda args, kwargs, result: int(getattr(result, "size", 1))


def _oracle_units(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs, result: int(
        sig.bind(*args, **kwargs).arguments.get("trials", 0))


# work counted per layer besides calls: envelope draws, oracle draws
UNITS = {"channel.fading": _fading_units, "ergodic.oracle": _oracle_units}


class Tracer:
    def __init__(self):
        self.stats = {}        # layer -> {"calls", "units", "busy_s", "self_s"}
        self.spans = []        # top-level spans: [name, start_s, end_s]
        self._stack = []       # child time accumulated per open span
        self._depth = {}       # open spans per layer

    def wrap(self, layer: str, name: str, fn):
        stats = self.stats.setdefault(
            layer, {"calls": 0, "units": 0, "busy_s": 0.0, "self_s": 0.0})
        units = UNITS[layer](fn) if layer in UNITS else None
        stack, depth, spans = self._stack, self._depth, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            depth[layer] = depth.get(layer, 0) + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                dt = end - start
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][0] += dt
                else:
                    spans.append([name, start - _T0, end - _T0])
                stats["calls"] += 1
                stats["self_s"] += dt - child[0]
                if depth[layer] == 0:
                    stats["busy_s"] += dt
            if units is not None:
                stats["units"] += units(args, kwargs, result)
            return result
        return traced


def install(tracer: Tracer, mode: str) -> list:
    """Wrap the selected public functions everywhere the package binds them.

    Returns the ``module.function`` names that no longer exist.
    """
    package = [m for name, m in sys.modules.items()
               if name == "thznoma" or name.startswith("thznoma.")]
    missing = []
    for layer, module, name in LAYERS:
        if mode == "light" and layer not in LIGHT_LAYERS:
            continue
        tracer.stats.setdefault(
            layer, {"calls": 0, "units": 0, "busy_s": 0.0, "self_s": 0.0})
        try:
            original = getattr(importlib.import_module(f"thznoma.{module}"), name)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{name}")
            continue
        traced = tracer.wrap(layer, f"{module}.{name}", original)
        # `from .x import f` copies the binding, so rebind in every module
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
    return missing


def main(argv: list) -> int:
    if len(argv) < 3 or argv[1] not in ("full", "light") or argv[2] != "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    stats_path, mode, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    missing = install(tracer, mode)
    start = time.perf_counter()
    code = cli.main(cli_args)
    main_s = time.perf_counter() - start
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"mode": mode, "import_s": IMPORT_S, "main_s": main_s,
                   "exit_code": code, "missing": missing,
                   "layers": tracer.stats, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
