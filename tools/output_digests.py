"""Print the sha256 of every output that the byte-identity invariant covers.

    python3 tools/output_digests.py > digests.txt

Run it from the root of a checkout: it imports that checkout's ``src/``.
Two checkouts give the same outputs exactly when their runs print the same
lines, so comparing two revisions is one ``diff`` of two runs. It covers:

* the CSV and JSON tables of ``fasloc reproduce fig2 --trials 2000 --json``
  and of ``fasloc reproduce fig3 --json`` (both pitches, 10,000 trials), at
  seed 42, each with ``--workers`` 1 and 2;
* the stdout and exit code of ``fasloc estimate`` on each of the benchmark's
  768 capture files (``perfbench/workloads.py``, imported and only read),
  one digest per method over its captures in pool order;
* the stdout of each script in ``demos/``, one digest per demo;
* ``simulate_measurements`` over a fixed grid, one digest: the AVERAGE_MU
  model at N = 12, JAKES_EXACT at N = 50 and INDEPENDENT at N = 1, each at
  seeds 7, (1, 2), () and 2**64 + 5 and at 1, 3 and 1000 snapshots.
"""

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # nothing is written under perfbench/

from fasloc import (CorrelationModel, FasLayout, Scene, build_covariance, cli,  # noqa: E402
                    simulate_measurements)
import workloads  # noqa: E402

SWEEPS = {"fig2": ("--trials", "2000"), "fig3": ()}
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SIMULATE_GRID = ((CorrelationModel.AVERAGE_MU, 12), (CorrelationModel.JAKES_EXACT, 50),
                 (CorrelationModel.INDEPENDENT, 1))
SIMULATE_SEEDS = (7, (1, 2), (), 2 ** 64 + 5)
SIMULATE_SNAPSHOTS = (1, 3, 1000)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def sweep_digests(work):
    """(name, sha256) of every table file of the preset sweeps."""
    for preset, extra in SWEEPS.items():
        for workers in (1, 2):
            out = work / f"{preset}_w{workers}" / f"{preset}.csv"
            out.parent.mkdir()
            with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("ignore", UserWarning)  # fig3's far-field warning
                rc = cli.main(["reproduce", preset, *extra, "--seed", "42", "--workers",
                               str(workers), "--out", str(out), "--json"])
            if rc != 0:
                raise SystemExit(f"reproduce {preset} --workers {workers} exited {rc}")
            for path in sorted(out.parent.iterdir()):
                yield f"reproduce {preset} --workers {workers}: {path.name}", \
                    _sha(path.read_bytes())


def estimate_digests(work):
    """(name, sha256) per capture method of every estimate's exit code and
    stdout, in pool order."""
    for method in workloads.CAPTURE_METHODS:
        digest = hashlib.sha256()
        for index in range(workloads.CAPTURE_POOL):
            rows, theta = workloads.capture_rows(method, index)
            path = work / f"capture_{method}_{index}.csv"
            workloads.write_capture(path, rows)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(workloads.estimate_argv(method, path, theta))
            digest.update(f"{index} {rc} {stdout.getvalue()}".encode("utf-8"))
        yield f"estimate --method {method}: {workloads.CAPTURE_POOL} captures", \
            digest.hexdigest()


def demo_digests(work):
    """(name, sha256) of each demo script's stdout, run from ``work``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for demo in DEMOS:
        proc = subprocess.run([sys.executable, str(demo)], cwd=work, env=env,
                              capture_output=True, check=True, timeout=600)
        yield f"demo {demo.name}: stdout", _sha(proc.stdout)


def simulate_digests():
    """(name, sha256) of simulate_measurements' rows over the fixed grid,
    each row block prefixed by its grid point."""
    digest = hashlib.sha256()
    scene = Scene(distance=10.0, bearing=math.pi / 3.0)
    for model, n_ports in SIMULATE_GRID:
        layout = FasLayout(n_ports, 0.5)
        cov = build_covariance(layout, model, 0.1)
        for seed in SIMULATE_SEEDS:
            for n in SIMULATE_SNAPSHOTS:
                rows = simulate_measurements(layout, scene, cov, seed, n)
                digest.update(f"{model.value} {n_ports} {seed!r} {n}".encode("utf-8"))
                digest.update(rows.tobytes())
    yield (f"simulate_measurements: {len(SIMULATE_GRID)} layouts x {len(SIMULATE_SEEDS)} "
           f"seeds x {len(SIMULATE_SNAPSHOTS)} snapshot counts"), digest.hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, digest in [*sweep_digests(work), *estimate_digests(work),
                             *demo_digests(work), *simulate_digests()]:
            print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
