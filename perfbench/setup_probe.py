"""Time one workload's set-up in this fresh process.

Usage (from the repository root)::

    python3 perfbench/setup_probe.py --workload equi_fanout

Prints the seconds taken to import ``repro``, build the session and admit
the standing queries.  Before the timer starts the interpreter holds only
the standard library and the workload table, so the whole import of
``repro`` and of everything it imports (numpy included) is timed.
"""

from __future__ import annotations

import argparse
import sys
import time

from workloads import WORKLOADS, import_repro


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    preloaded = sorted(name for name in ("numpy", "repro") if name in sys.modules)
    if preloaded:
        print(f"error: {', '.join(preloaded)} imported before the timer", file=sys.stderr)
        return 1
    started = time.perf_counter()
    import_repro()
    session, _ = WORKLOADS[args.workload].build()
    elapsed = time.perf_counter() - started
    session.close()
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
