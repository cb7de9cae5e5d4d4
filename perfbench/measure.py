"""Workload loops, correctness checks and metrics inside the workload process.

Sweeps call ``fasloc.cli.main(["reproduce", "--config", ...])`` on the spec
files the parent wrote; estimates call ``fasloc.cli.main(["estimate", ...])``
on the capture files. Both are closed loops with one client: the next
operation starts when the previous one has returned.
"""

import contextlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import calib
from run import THREAD_ENV
from spans import Tracer
from workloads import REFS_DIR

# A run stops starting sweeps once its budget is spent, but runs at least
# this many so that its median has company.
MIN_SWEEPS = 3
# A run makes at least this many estimate calls, so its p99 has at least
# ten samples beyond it.
MIN_CALLS = 1000
# Calls per block between two calibration slots, and calibration units per
# slot: about 8 ms of calibration per 40 ms of calls, and 0.1 s per sweep.
BLOCK_CALLS = 25
ESTIMATE_CAL_UNITS = 50
SWEEP_CAL_UNITS = 600
FAR_FIELD_MARK = "equal-mean-power approximation degrades"


def _percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def check_table(rows, ref_rows):
    """Compare a sweep's JSON rows with the stored reference rows.

    Returns one bool per reference row. A row fails when its identity
    (axis value, estimator, trials, realized port count), draw digest or
    excluded count differs, or when its NMSE or stderr moves by more than
    a per-trial d_hat change of 1e-6 m can explain (the stored per-row
    tolerance, see make_refs.py).
    """
    if len(rows) != len(ref_rows):
        return [False] * len(ref_rows)
    ok = []
    for row, ref in zip(rows, ref_rows):
        axis, est, nmse, se, trials, excluded, realized_n, digest, tol_nmse, tol_se = ref
        same = (row["axis_value"] == axis and row["estimator"] == est
                and row["trials"] == trials and row["realized_n"] == realized_n
                and row["draw_digest"] == digest and row["excluded"] == excluded)
        for value, want, tol in ((row["nmse_db"], nmse, tol_nmse), (row["stderr_db"], se, tol_se)):
            if want is None:
                same = same and value is None
            else:
                same = same and value is not None and abs(value - want) <= tol
        ok.append(same)
    return ok


class _Sweeps:
    """``fasloc reproduce --config`` on the spec files, one sweep per op."""

    min_ops = MIN_SWEEPS
    block = 1
    cal_units = SWEEP_CAL_UNITS

    def __init__(self, manifest, work):
        self.cli = importlib.import_module("fasloc.cli")
        self.refs = json.loads((REFS_DIR / f"{manifest['family']}.json").read_text())["tables"]
        self.trials = manifest["trials"]
        self.estimates = manifest["estimates"]
        self.out_csv = work / "table.csv"
        self.out_json = work / "table.json"
        self.sink = io.StringIO()
        self.pool_csv = None
        self.byte_identical = None
        self.attempted = self.failed = self.rows_rejected = 0
        if manifest["pool_check"]:
            # Unmeasured pooled pass over the first spec; the first measured
            # (serial) sweep of that spec must match it byte for byte.
            self._sweep(manifest["ops"][0], manifest["pool_check"])
            self.pool_csv = self.out_csv.read_bytes()

    def _sweep(self, op, workers):
        argv = ["reproduce", "--config", op["config"], "--workers", str(workers),
                "--out", str(self.out_csv), "--json"]
        with contextlib.redirect_stderr(self.sink):
            t0 = time.perf_counter()
            rc = self.cli.main(argv)
            dt = time.perf_counter() - t0
        self.sink.seek(0)
        self.sink.truncate()
        if rc != 0:
            raise RuntimeError(f"fasloc {' '.join(argv)} exited {rc}")
        return dt

    def run(self, op):
        """Run and check one sweep; return its wall time in seconds."""
        dt = self._sweep(op, 1)
        rows = json.loads(self.out_json.read_text())["rows"]
        ref_rows = self.refs[str(op["base_seed"])]["rows"]
        verdicts = check_table(rows, ref_rows)
        if self.pool_csv is not None and self.byte_identical is None:
            self.byte_identical = self.out_csv.read_bytes() == self.pool_csv
            if not self.byte_identical:
                verdicts = [False] * len(verdicts)
        for ok, ref in zip(verdicts, ref_rows):
            trials, excluded = ref[4], ref[5]
            self.attempted += trials
            self.failed += excluded if ok else trials
            self.rows_rejected += 0 if ok else 1
        return dt

    def correct(self):
        return self.rows_rejected == 0 and self.byte_identical is not False


class _Estimates:
    """``fasloc estimate`` on the capture files, one call per op."""

    min_ops = MIN_CALLS
    block = BLOCK_CALLS
    cal_units = ESTIMATE_CAL_UNITS

    def __init__(self, manifest, work):
        self.cli = importlib.import_module("fasloc.cli")
        refs = json.loads((REFS_DIR / "estimate.json").read_text())
        self.refs, self.tolerance = refs["d_hat"], refs["d_hat_tolerance"]
        self.trials = self.estimates = 1
        self.stdout = io.StringIO()
        self.sink = io.StringIO()
        self.attempted = self.failed = 0

    def run(self, op):
        """Run and check one call; return its latency in seconds."""
        with contextlib.redirect_stdout(self.stdout), contextlib.redirect_stderr(self.sink):
            t0 = time.perf_counter_ns()
            rc = self.cli.main(op["argv"])
            dt = time.perf_counter_ns() - t0
        text = self.stdout.getvalue()
        for buf in (self.stdout, self.sink):
            buf.seek(0)
            buf.truncate()
        want = self.refs[op["method"]][op["index"]]
        self.attempted += 1
        if rc != 0 or abs(json.loads(text)["d_hat"] - want) > self.tolerance:
            self.failed += 1
        return dt / 1e9

    def correct(self):
        return self.failed == 0


def _loop(runner, ops, budget_s):
    """Closed loop over ``ops`` until the budget is spent, with a
    calibration slot before the first block and after every block.

    Returns the wall seconds of every op, grouped by block, and the
    calibration slots (µs per unit): block ``b`` lies between slots ``b``
    and ``b + 1``.
    """
    blocks, slots = [], [calib.slot(runner.cal_units)]
    t_start = time.perf_counter()
    last = 0.0
    i = 0
    while i < runner.min_ops or time.perf_counter() - t_start + last <= budget_s:
        t0 = time.perf_counter()
        blocks.append([runner.run(ops[(i + k) % len(ops)]) for k in range(runner.block)])
        slots.append(calib.slot(runner.cal_units))
        last = time.perf_counter() - t0
        i += runner.block
    return blocks, slots


def _traced_loop(runner, ops, budget_s, tracer):
    """Closed loop that times every op twice, once with the tracer bound
    and once without, alternating which goes first, so that the overhead
    estimate compares neighbouring runs of the same input."""
    plain, traced = [], []
    spent = last = 0.0
    i = 0
    while i < runner.min_ops or spent + last <= budget_s:
        op = ops[i % len(ops)]
        last = 0.0
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            tracer.enable(on)
            if on:
                tracer.new_group()
            (traced if on else plain).append(runner.run(op))
            last += (traced if on else plain)[-1]
        tracer.enable(False)
        spent += last
        i += 1
    return plain, traced


def _layer_metrics(tracer, trials, traced, plain, far_field):
    """Per-layer numbers of a traced run as {name: {"value", "unit"}}. A
    "trial" is one paired sweep trial or one estimate call. A layer the
    traced process never called reads 0."""
    summary = tracer.summary()
    stats = tracer.estimator_stats()

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def us(name, key="incl_ns"):
        c = calls(name)
        return summary[name][key] / c / 1e3 if c else 0.0

    def stat(name, key):
        s = stats.get(name)
        return s[key] / s["calls"] if s else 0.0

    mle, ls, single = ("estimators.estimate_mle", "estimators.estimate_ls",
                       "estimators.estimate_single_antenna")
    fm, ch = "forward_model", "channel"
    rows = [
        (f"{mle}.us_per_call", us(mle), "us"),
        (f"{mle}.self_us_per_call", us(mle, "self_ns"), "us"),
        (f"{ls}.us_per_call", us(ls), "us"),
        (f"{ls}.self_us_per_call", us(ls, "self_ns"), "us"),
        (f"{single}.us_per_call", us(single), "us"),
        (f"{mle}.iterations_mean", stat(mle, "iterations"), "count"),
        (f"{ls}.nfev_mean", stat(ls, "iterations"), "count"),
        (f"{mle}.nonconverged_frac", stat(mle, "nonconverged"), "ratio"),
        (f"{ls}.nonconverged_frac", stat(ls, "nonconverged"), "ratio"),
        (f"{single}.nonconverged_frac", stat(single, "nonconverged"), "ratio"),
        (f"{ls}.anchor_calls_per_mle",
         stats[ls]["nested"] / stats[mle]["calls"] if ls in stats and mle in stats else 0.0,
         "count"),
        (f"{fm}.predicted_rssi.calls_per_trial", calls(f"{fm}.predicted_rssi") / trials,
         "count/trial"),
        (f"{fm}.predicted_rssi.us_per_call", us(f"{fm}.predicted_rssi"), "us"),
        (f"{fm}.simulate_measurements.calls_per_trial",
         calls(f"{fm}.simulate_measurements") / trials, "count/trial"),
        (f"{fm}.simulate_measurements.self_us_per_call",
         us(f"{fm}.simulate_measurements", "self_ns"), "us"),
        (f"{fm}.read_measurements.us_per_call", us(f"{fm}.read_measurements"), "us"),
        (f"{fm}.far_field_warnings_per_trial", far_field / trials, "count/trial"),
        (f"{ch}.sample_fading.calls_per_trial", calls(f"{ch}.sample_fading") / trials,
         "count/trial"),
        (f"{ch}.sample_fading.us_per_call", us(f"{ch}.sample_fading"), "us"),
        (f"{ch}.build_covariance.us_per_call", us(f"{ch}.build_covariance"), "us"),
        (f"{ch}.average_mu_squared.us_per_call", us(f"{ch}.average_mu_squared"), "us"),
        ("specfun.bessel_j0.calls_per_trial", calls("specfun.bessel_j0") / trials, "count/trial"),
        ("specfun.bessel_j0.us_per_call", us("specfun.bessel_j0"), "us"),
        ("experiments.run_experiment.self_s_per_trial",
         summary.get("experiments.run_experiment", {}).get("self_ns", 0) / 1e9 / trials, "s"),
        ("experiments.nmse_db.us_per_call", us("experiments.nmse_db"), "us"),
        ("cli.main.self_us_per_call", us("cli.main", "self_ns"), "us"),
        # per operation, traced over untraced time of the same input run
        # back to back: robust to the machine's speed phases
        ("trace_overhead_frac", _percentile([t / p for t, p in zip(traced, plain)], 0.5) - 1.0,
         "ratio"),
        ("trace.self_time_coverage",
         sum(s["self_ns"] for s in summary.values()) / 1e9 / sum(traced), "ratio"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in rows}


def _timings(blocks, slots, runner):
    """End-to-end timings of the untraced blocks, as medians over the run.

    Each op's wall time is scaled to reference host speed by the
    calibration slots around its block (see calib.py). ``trials_per_s``
    is the median over blocks of paired trials (or calls) per second;
    ``estimate_p50_us`` and ``estimate_p99_us`` are the median and the
    nearest-rank 99th percentile over ops of time per estimate (one call,
    or one estimator on one paired trial). The same figures from wall time
    alone carry a ``_raw`` suffix.
    """
    per_op = runner.trials * runner.estimates
    out = {"blocks": len(blocks)}
    for suffix, scales in (("", [calib.factor(a, b) for a, b in zip(slots, slots[1:])]),
                           ("_raw", [1.0] * len(blocks))):
        scaled = [[d * f for d in block] for block, f in zip(blocks, scales)]
        ops = [d / per_op for block in scaled for d in block]
        out["trials_per_s" + suffix] = statistics.median(
            len(block) * runner.trials / sum(block) for block in scaled)
        out["estimate_p50_us" + suffix] = statistics.median(ops) * 1e6
        out["estimate_p99_us" + suffix] = _percentile(ops, 0.99) * 1e6
    return out


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment():
    import scipy
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}}


def run(manifest_path, budget_s, trace_out):
    """Run the workload described by the manifest and return its record."""
    manifest = json.loads(Path(manifest_path).read_text())
    work = Path(manifest_path).parent
    sweep = manifest["kind"] == "sweep"
    tracer = None
    if trace_out:
        tracer = Tracer()
        tracer.install()
        tracer.enable(False)

    far_field = 0

    def count(message, category, *_args, **_kwargs):
        # counted, not stored: a list of every warning would inflate peak RSS
        nonlocal far_field
        if issubclass(category, UserWarning) and FAR_FIELD_MARK in str(message):
            far_field += 1

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = count
        runner = (_Sweeps if sweep else _Estimates)(manifest, work)
        if tracer is None:
            blocks, slots = _loop(runner, manifest["ops"], budget_s)
            plain = [d for block in blocks for d in block]
        else:
            plain, traced = _traced_loop(runner, manifest["ops"], budget_s, tracer)
    out = {"correct": runner.correct(), "attempted": runner.attempted, "failed": runner.failed,
           "ops": len(plain), "wall_s": sum(plain), "op_seconds": plain,
           "peak_rss_mb": _peak_rss_mb(),
           "far_field_warnings": far_field, "environment": _environment()}
    if sweep:
        out["byte_identical"] = runner.byte_identical
        out["rows_rejected"] = runner.rows_rejected
    if tracer is None:
        out["calibration_us_per_unit"] = slots
        out.update(_timings(blocks, slots, runner))
    else:
        # far-field warnings: the traced and plain halves saw the same inputs
        out["per_layer"] = _layer_metrics(tracer, len(traced) * runner.trials, traced, plain,
                                          far_field / 2.0)
        out["spans"] = len(tracer.start)
        tracer.write(trace_out)
    return out
