"""fasloc benchmark: one workload per call, run from the root of a checkout.

    python3 perfbench/run.py --workload fig2_serial --seed 1 --seconds 10 --trace 0

Writes the workload's inputs from ``--seed``, times program set-up in
fresh interpreters, runs the workload in a fresh child process with BLAS
and OpenMP pools pinned to one thread, checks its outputs against the
references in ``perfbench/refs``, and prints the metrics by name. The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``; per-layer metrics from
a traced run with ``--trace 1``). The full record, with the environment,
goes to ``.perfbench/results/`` and traced spans to ``.perfbench/traces/``.
See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib
from workloads import DEFAULT_SEED, WORKLOADS, write_inputs

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
# Fresh interpreters started only to time set-up; the workload child adds
# one more sample.
SETUP_PROBES = 6
DEADLINE_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "BLIS_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1"}

END_TO_END_UNITS = {"trials_per_s": "1/s", "estimate_p50_us": "us", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _parse():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def _child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(THREAD_ENV)
    return env


def _run_child(extra, env, root, deadline):
    """Start child.py, wait for it, and return its JSON record."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a workload process")
    cal_before = calib.slot(calib.SETUP_UNITS)
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD), "--t0", repr(t0), *extra],
                            cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("workload process ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no record")
    rec = json.loads(lines[-1])
    rec["setup_s_raw"] = rec["setup_s"]
    rec["setup_s"] *= calib.factor(cal_before, rec["setup_cal_after"])
    return rec


def _git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment(root, child):
    """Machine and checkout facts, plus what the workload process saw:
    library versions and BLAS/OpenMP thread settings."""
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), "platform": platform.platform(),
            "git_commit": _git_commit(root), **child}


def _measure(args, root, work, env, deadline):
    manifest = write_inputs(args.workload, args.seed, work)
    probes = [_run_child(["--setup-only"], env, root, deadline) for _ in range(SETUP_PROBES)]
    base = ["--manifest", str(manifest)]
    if not args.trace:
        rec = _run_child(base + ["--seconds", repr(args.seconds)], env, root, deadline)
        setups = [p["setup_s"] for p in probes] + [rec["setup_s"]]
        values = {"trials_per_s": rec["trials_per_s"],
                  "estimate_p50_us": rec["estimate_p50_us"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": rec["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        # the same figures from wall time alone, printed and recorded, not gated
        rec["wall_clock"] = {"trials_per_s": rec["trials_per_s_raw"],
                             "estimate_p50_us": rec["estimate_p50_us_raw"],
                             "estimate_p99_us": rec["estimate_p99_us_raw"],
                             "setup_s": statistics.median(
                                 [p["setup_s_raw"] for p in probes] + [rec["setup_s_raw"]])}
    else:
        traces = root / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_path = traces / f"{args.workload}_seed{args.seed}.json.gz"
        rec = _run_child(base + ["--seconds", repr(args.seconds), "--trace-out", str(trace_path)],
                         env, root, deadline)
        metrics = dict(rec["per_layer"])
        metrics["cli.import_s"] = {"value": statistics.median(
            [p["import_s"] for p in probes] + [rec["import_s"]]), "unit": "s"}
    return metrics, rec


def main():
    args = _parse()
    root = Path.cwd()
    if not (root / "src" / "fasloc" / "cli.py").is_file():
        print("perfbench: run from the root of a fasloc checkout (src/fasloc not found)",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and its children, so that each
        # calibration slot runs where the work it scales ran
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    state = root / ".perfbench"
    state.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=state))
    env = _child_env(root)
    try:
        metrics, rec = _measure(args, root, work, env, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, correct = rec["attempted"], rec["failed"], rec["correct"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 0.0,
        "metrics": metrics,
        "environment": _environment(root, rec["environment"]),
        "run": {k: v for k, v in rec.items() if k not in ("per_layer", "environment")},
    }
    results = state / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  correct {correct}")
    wall = rec.get("wall_clock", {})
    for name, m in record["metrics"].items():
        raw = f"  (wall clock {wall[name]:.6g})" if name in wall else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{raw}")
    print(f"  failed_frac = {record['failed_frac']:.6g} ratio ({failed} of {attempted})")
    if not args.trace:
        # reported, not gated: see perfbench/README.md, "End-to-end metrics"
        print(f"  estimate_p99_us = {rec['estimate_p99_us']:.6g} us "
              f"(wall clock {wall['estimate_p99_us']:.6g}; over {rec['ops']} operations)")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
