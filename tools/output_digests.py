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
  seeds 7, (1, 2), () and 2**64 + 5 and at 1, 3 and 1000 snapshots;
* the input boundary, one digest: the exit code of ``fasloc`` and whether
  its stdout is empty, for each of a fixed table of bad ``reproduce
  --config`` files and bad ``estimate`` flags. The error messages are left
  out, so rewording one moves no line;
* command-line parsing, one digest: the exit code and stdout of ``fasloc``
  on each argument list of ``tests/cli_argv_table.py`` (valid calls of each
  command, help, version, and lists that argparse refuses), each run with
  ``COLUMNS=80`` so that help text does not depend on the terminal.

Each ``fasloc`` run of the last two lines is a ``python -m fasloc`` process
of its own, so they also cover ``main`` reading ``sys.argv``.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
sys.dont_write_bytecode = True  # nothing is written under perfbench/ or tests/

from fasloc import (CorrelationModel, FasLayout, Scene, build_covariance, cli,  # noqa: E402
                    simulate_measurements)
import cli_argv_table  # noqa: E402
import workloads  # noqa: E402

# the environment of every process the digests run: this checkout's package,
# and help text at one width whatever the terminal
CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1",
             "COLUMNS": "80"}
SWEEPS = {"fig2": ("--trials", "2000"), "fig3": ()}
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SIMULATE_GRID = ((CorrelationModel.AVERAGE_MU, 12), (CorrelationModel.JAKES_EXACT, 50),
                 (CorrelationModel.INDEPENDENT, 1))
SIMULATE_SEEDS = (7, (1, 2), (), 2 ** 64 + 5)
SIMULATE_SNAPSHOTS = (1, 3, 1000)
SNR_SWEEP = {"sweep_axis": "snr_db", "axis_values": [0, 10], "trials": 100,
             "estimators": ["fas_ls"], "layout": {"n_ports": 4, "aperture": 0.5}}
APERTURE_SWEEP = {"sweep_axis": "aperture_w", "axis_values": [0.1, 0.2], "trials": 100,
                  "estimators": ["fas_ls"], "snr_db": 10, "spacing_h": 0.05}
PORT_SWEEP = {"sweep_axis": "port_count_n", "axis_values": [4, 8], "trials": 100,
              "estimators": ["fas_ls"], "snr_db": 10, "layout": {"aperture": 0.5}}
# config files that ``reproduce --config`` must refuse, as file text
BAD_CONFIGS = (
    json.dumps({**SNR_SWEEP, "sweep_axis": "distance"}),
    json.dumps({**SNR_SWEEP, "estimators": []}),
    json.dumps({**APERTURE_SWEEP, "spacing_h": 0}),
    json.dumps({**APERTURE_SWEEP, "spacing_h": -0.05}),
    json.dumps({**PORT_SWEEP, "axis_values": [4, 4.5]}),
    json.dumps({**PORT_SWEEP, "axis_values": [4, 10 ** 12]}),
    json.dumps({**APERTURE_SWEEP, "axis_values": [0.1, 1000.0], "spacing_h": 0.001}),
    json.dumps(SNR_SWEEP)[:-1] + ', "scene": {"bearing": 1e400}}',
    "[1, 2]",
    json.dumps({**SNR_SWEEP, "scene": {"tx_power_dbm": 1e308}}),
    json.dumps({**SNR_SWEEP, "scene": {"distance": 1e300}}),
    json.dumps({**SNR_SWEEP, "scene": {"distance": 10 ** 400}}),
)
# flags that ``estimate`` must refuse on a valid capture (a repeated flag's
# last value wins)
BAD_ESTIMATE_FLAGS = (("--theta", "nan"), ("--amp-const", "0"), ("--bracket", "5", "1"),
                      ("--tolerance", "inf"))


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
    for demo in DEMOS:
        proc = subprocess.run([sys.executable, str(demo)], cwd=work, env=CHILD_ENV,
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


def boundary_digests(work):
    """(name, sha256) of the exit code and stdout emptiness of ``fasloc`` on
    each bad input, each run in a process of its own."""
    rows, theta = workloads.capture_rows("ls", 0)
    capture = work / "boundary_capture.csv"
    workloads.write_capture(capture, rows)
    runs = []
    for index, text in enumerate(BAD_CONFIGS):
        path = work / f"boundary_{index}.json"
        path.write_text(text, encoding="utf-8")
        runs.append(["reproduce", "--config", str(path),
                     "--out", str(work / f"boundary_{index}.csv")])
    runs += [[*workloads.estimate_argv("ls", capture, theta), *flags]
             for flags in BAD_ESTIMATE_FLAGS]
    digest = hashlib.sha256()
    for index, argv in enumerate(runs):
        proc = subprocess.run([sys.executable, "-m", "fasloc", *argv], cwd=work, env=CHILD_ENV,
                              capture_output=True, timeout=600)
        digest.update(f"{index} {proc.returncode} {proc.stdout == b''}\n".encode("utf-8"))
    yield f"boundary: exit code and empty stdout of {len(runs)} bad inputs", digest.hexdigest()


def parse_digests(work):
    """(name, sha256) of the exit code and stdout of ``fasloc`` on each
    argument list of the parse table, each run in a process of its own from
    a directory that holds the files the lists name."""
    work = work / "parse"
    work.mkdir()
    for method, name in (("ls", "capture12.csv"), ("single", "capture1.csv")):
        workloads.write_capture(work / name, workloads.capture_rows(method, 0)[0])
    (work / "sweep.json").write_text(json.dumps(SNR_SWEEP), encoding="utf-8")
    runs = [*cli_argv_table.VALID.values(), *cli_argv_table.EXITS.values(),
            *cli_argv_table.UNRECOGNIZED.values()]
    digest = hashlib.sha256()
    for index, argv in enumerate(runs):
        proc = subprocess.run([sys.executable, "-m", "fasloc", *argv], cwd=work, env=CHILD_ENV,
                              capture_output=True, timeout=600)
        digest.update(f"{index} {proc.returncode}\n".encode("utf-8") + proc.stdout)
    yield f"cli parse: exit code and stdout of {len(runs)} argument lists", digest.hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, digest in [*sweep_digests(work), *estimate_digests(work),
                             *demo_digests(work), *simulate_digests(),
                             *boundary_digests(work), *parse_digests(work)]:
            print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
