"""Time one set-up in a fresh interpreter: imports plus the workload's set-up.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints `time.monotonic()` at the moment set-up is done; the parent takes the
same clock just before it starts this process.
"""

from __future__ import annotations

import os
import sys
import time


def main() -> None:
    import checkout
    checkout.use_checkout_sources()
    import workloads

    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    os.makedirs(workdir, exist_ok=True)
    workloads.WORKLOADS[name].setup(seed, workdir, workloads.Checks())
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
