"""One workload in a fresh interpreter; started by run.py, not by hand.

Prints one JSON object as its last stdout line. The first thing it does is
import ``fasloc.cli``, so ``setup_s`` (from ``--t0``, a CLOCK_MONOTONIC
reading the parent takes just before starting this process) covers
interpreter start-up plus the program's import and nothing of the
benchmark's own work. A calibration slot right after the import, with
the one the parent runs just before starting this process, scales it to
reference host speed (calib.py).
"""

import argparse
import json
import sys
import time


def _parse():
    p = argparse.ArgumentParser()
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--manifest")
    p.add_argument("--seconds", type=float, help="time budget: stop starting operations after it")
    p.add_argument("--trace-out", help="trace this run and write its spans here")
    return p.parse_args()


def main():
    args = _parse()
    t_import = time.monotonic()
    import fasloc.cli  # noqa: F401  (the program's set-up is what is timed)
    ready = time.monotonic()
    import calib
    setup = {"setup_s": ready - args.t0, "import_s": ready - t_import,
             "setup_cal_after": calib.slot(calib.SETUP_UNITS)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import measure
    result = measure.run(args.manifest, budget_s=args.seconds, trace_out=args.trace_out)
    print(json.dumps({**setup, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
