"""Regenerate the stored reference outputs in perfbench/refs.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run from the root of a checkout, and only when the reference outputs are
meant to change; the benchmark checks every later commit against them.

``fig2.json`` / ``fig3.json`` hold, per base seed, the rows of the serial
sweep: axis value, estimator, nmse_db, stderr_db, trials, excluded,
realized_n, draw_digest, and the largest change of nmse_db and of stderr_db
that moving every per-trial d_hat by at most 1e-6 m can cause (twice the
first-order worst case, plus 1e-9 dB for summation order).
``estimate.json`` holds the d_hat of every capture in the estimate pool.
"""

import contextlib
import importlib
import io
import json
import math
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from workloads import (CAPTURE_METHODS, CAPTURE_POOL, REFS_DIR, SCENE, SWEEP_REF_SEEDS,
                       capture_rows, estimate_argv, sweep_config, write_capture)

D_HAT_TOL = 1e-6
_DB = 10.0 / math.log(10.0)


def nmse_tolerances(d_hats, d_true, delta=D_HAT_TOL):
    """Bounds on |change| of (nmse_db, stderr_db) when each d_hat moves by
    at most delta, from the gradient of the jackknife formulas."""
    x = np.asarray(d_hats, dtype=float)
    n = x.size
    e = ((x - d_true) / d_true) ** 2
    de = np.abs(2.0 * (x - d_true) / d_true ** 2) * delta
    tol_nmse = _DB * float(de.sum()) / (n * float(e.mean()))
    tol_se = 0.0
    if n >= 2:
        loo = (e.sum() - e) / (n - 1)
        theta = 10.0 * np.log10(loo)
        se = math.sqrt((n - 1) / n * float(np.sum((theta - theta.mean()) ** 2)))
        if se > 0.0:
            c = (n - 1) / n * (theta - theta.mean()) / se * _DB / (loo * (n - 1))
            tol_se = float(np.sum(np.abs(c.sum() - c) * de))
    return 2.0 * tol_nmse + 1e-9, 2.0 * tol_se + 1e-9


def _record_estimates(calls):
    """Rebind the sweep runner's estimators so each result is appended to
    ``calls`` as (d_hat, converged), in call order."""
    exp = importlib.import_module("fasloc.experiments")
    for name in ("estimate_mle", "estimate_ls", "estimate_single_antenna"):
        fn = getattr(exp, name)

        def recorded(*args, _fn=fn, **kwargs):
            out = _fn(*args, **kwargs)
            calls.append((out.d_hat, out.converged))
            return out
        setattr(exp, name, recorded)


def _sweep_refs(family, work, cli, calls):
    from fasloc.experiments import nmse_db
    tables = {}
    for base_seed in SWEEP_REF_SEEDS:
        config = sweep_config(family, base_seed)
        path = work / "spec.json"
        path.write_text(json.dumps(config))
        out = work / "table.csv"
        calls.clear()
        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["reproduce", "--config", str(path), "--out", str(out), "--json"])
        if rc != 0:
            raise SystemExit(f"{family} seed {base_seed}: exit {rc}")
        rows = json.loads(out.with_suffix(".json").read_text())["rows"]
        ests = config["estimators"]
        per_point = config["trials"] * len(ests)
        stored = []
        for k, row in enumerate(rows):
            point, col = divmod(k, len(ests))
            block = calls[point * per_point:(point + 1) * per_point]
            col_calls = block[col::len(ests)]
            d_hats = [d for d, conv in col_calls if conv]
            nmse, se = nmse_db(d_hats, SCENE["distance"])
            if (nmse, se) != (row["nmse_db"], row["stderr_db"]):
                raise SystemExit(f"{family} seed {base_seed}: recorded d_hats do not "
                                 f"reproduce row {k}")
            tol_nmse, tol_se = nmse_tolerances(d_hats, SCENE["distance"])
            stored.append([row["axis_value"], row["estimator"], row["nmse_db"],
                           row["stderr_db"], row["trials"], row["excluded"],
                           row["realized_n"], row["draw_digest"], tol_nmse, tol_se])
        tables[str(base_seed)] = {"rows": stored}
        print(f"{family} seed {base_seed}: {len(stored)} rows", file=sys.stderr)
    return tables


def _estimate_refs(work, cli):
    refs = {}
    for method in CAPTURE_METHODS:
        d_hats = []
        for index in range(CAPTURE_POOL):
            rows, theta = capture_rows(method, index)
            path = work / "capture.csv"
            write_capture(path, rows)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(estimate_argv(method, path, theta))
            if rc != 0:
                raise SystemExit(f"capture {method} {index}: exit {rc}")
            d_hats.append(json.loads(buf.getvalue())["d_hat"])
        refs[method] = d_hats
    return refs


def main():
    warnings.simplefilter("ignore")  # fig3's far-field warnings are counted by the benchmark
    cli = importlib.import_module("fasloc.cli")
    calls = []
    _record_estimates(calls)
    state = Path.cwd() / ".perfbench"
    state.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="refs-", dir=state))
    try:
        REFS_DIR.mkdir(exist_ok=True)
        for family in ("fig2", "fig3"):
            tables = _sweep_refs(family, work, cli, calls)
            payload = {"d_hat_tolerance": D_HAT_TOL, "tables": tables}
            (REFS_DIR / f"{family}.json").write_text(
                json.dumps(payload, separators=(",", ":")) + "\n")
        payload = {"d_hat_tolerance": D_HAT_TOL, "d_hat": _estimate_refs(work, cli)}
        (REFS_DIR / "estimate.json").write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
