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
  one digest per method over its captures in pool order.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # nothing is written under perfbench/

from fasloc import cli  # noqa: E402
import workloads  # noqa: E402

SWEEPS = {"fig2": ("--trials", "2000"), "fig3": ()}


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


def main():
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, digest in [*sweep_digests(work), *estimate_digests(work)]:
            print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
