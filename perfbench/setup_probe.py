"""Bring a fresh interpreter to the point where a sweep could start.

Usage: python3 perfbench/setup_probe.py TX_POWER_DBM|default|none

Imports ``thznoma.cli``, parses the default scenario and, unless the
power is ``none``, builds the deterministic direct and surface channels
of both users at that transmit power (the workload's first grid point;
``default`` keeps the scenario's own). Then prints ``ready`` and exits.
The caller times the span from process start to that line.
"""

import sys

import thznoma.cli  # noqa: F401  (the CLI's import cost is part of set-up)
from thznoma import channel, config


def main(argv: list) -> int:
    power = argv[0]
    cfg = config.parse_config()
    if power not in ("none", "default"):
        cfg = cfg.replace(tx_power_dbm=float(power))
    if power != "none":
        for user in (config.FAR, config.NEAR):
            channel.direct_channel_matrix(cfg, user)
            channel.ris_channel_matrix(cfg, user)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
