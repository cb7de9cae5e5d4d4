"""Alternating parent/change runs of perfbench, and the per-change record of them.

    python3 tools/bench_record.py run --parent ../parent --change . \\
        --workload estimate_cli --seed 1 --pairs 10 --records bench-records
    python3 tools/bench_record.py summarize bench-records \\
        --claim estimate_cli:trials_per_s > BENCH_<n>.json

``run`` times the same workload in two checkouts, one after the other, for
``--pairs`` pairs, with the parent first in odd pairs and the change first in
even ones, each run ``BENCHMARK.json``'s ``run_seconds`` long. After each run
it copies the record that ``perfbench/run.py`` wrote to
``.perfbench/results/`` into ``--records`` as
``<workload>_s<seed>_t<trace>_p<pair>_<side>.json``, before the next run of
that checkout overwrites it, and adds to it the identity of the checkout's
code: its git commit (None outside a repository) and a SHA-256 of its
``src/`` tree.

``summarize`` prints one JSON object: the claimed metrics as given; the
distinct machine environments of the records; per workload, seed, trace and
metric of ``BENCHMARK.json``, the code each side ran, the median and
quartiles of each side, the pairs the change wins and whether the gap of the
medians exceeds the parent's interquartile range, a loss as well as a gain
(``change_wins`` and the medians say which); and every record,
tagged with its pair, side and seed. The metrics are the end-to-end ones
and the per-layer ones, which only a traced (``--trace 1``) run records, so
a traced group gets a row per layer. A row's ``calibrated`` says whether
perfbench scales the metric to reference host speed by its calibration
slots: true for the end-to-end metrics (peak RSS, not a time, needs no
scaling), false for the per-layer ones: traced wall time, which the host's
speed phases move between runs, so a per-layer gap under about 10% is not
resolved. A record's per-operation and
per-calibration-slot timings are replaced by their count, median and
quartiles, which keeps the file small. It refuses records of another length
than ``run_seconds``, and a group whose parent or change records ran
different code.
"""

import argparse
import hashlib
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^(?P<workload>\w+?)_s(?P<seed>\d+)_t(?P<trace>[01])_p(?P<pair>\d+)_"
                  r"(?P<side>parent|change)\.json$")
# per-operation arrays of a record, kept as their spread only
ARRAYS = ("op_seconds", "calibration_us_per_unit")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def spread(values):
    """Count, median and quartiles (inclusive method) of a non-empty list."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def checkout(root):
    """The git commit of a checkout (None outside a repository) and a SHA-256
    of the paths and bytes of its ``src/`` files, caches left out."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True)
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(f"{path.relative_to(root).as_posix()}\0".encode())
            digest.update(path.read_bytes())
    return {"git_commit": head.stdout.strip() if head.returncode == 0 else None,
            "src_sha256": digest.hexdigest()}


def run(args):
    out = Path(args.records)
    out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for pair in range(1, args.pairs + 1):
        for side in ("parent", "change") if pair % 2 else ("change", "parent"):
            root = sides[side]
            subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                            "--seed", str(args.seed), "--seconds", str(BENCHMARK["run_seconds"]),
                            "--trace", str(args.trace)], cwd=root, check=True)
            name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
            result = root / ".perfbench" / "results" / name
            record = {**json.loads(result.read_text(encoding="utf-8")), "checkout": checkout(root)}
            (out / f"{args.workload}_s{args.seed}_t{args.trace}_p{pair}_{side}.json").write_text(
                json.dumps(record), encoding="utf-8")


def summarize(args):
    runs, environments = [], []
    for path in sorted(Path(args.records).iterdir()):
        tag = NAME.match(path.name)
        if tag is None:
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        if "checkout" not in record:
            sys.exit(f"{path.name}: no checkout identity; the run command adds it")
        if record["seconds"] != BENCHMARK["run_seconds"]:
            sys.exit(f"{path.name}: a {record['seconds']} s run, not the benchmark's "
                     f"{BENCHMARK['run_seconds']} s")
        for key in ARRAYS:
            if key in record.get("run", {}):
                record["run"][key] = spread(record["run"][key])
        if record["environment"] not in environments:
            environments.append(record["environment"])
        runs.append({"workload": tag["workload"], "seed": int(tag["seed"]),
                     "trace": int(tag["trace"]), "pair": int(tag["pair"]), "side": tag["side"],
                     "record": record})
    runs.sort(key=lambda r: (r["workload"], r["seed"], r["trace"], r["pair"], r["side"]))

    calibrated = {metric["name"] for metric in BENCHMARK["end_to_end"]}
    summary = []
    for key in sorted({(r["workload"], r["seed"], r["trace"]) for r in runs}):
        group = [r for r in runs if (r["workload"], r["seed"], r["trace"]) == key]
        code = {}
        for side in ("parent", "change"):
            ran = [r["record"]["checkout"] for r in group if r["side"] == side]
            if any(each != ran[0] for each in ran):
                sys.exit(f"{'_'.join(map(str, key))}: the {side} runs ran different code")
            code[side] = ran[0] if ran else None
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            name = metric["name"]
            value = {(r["pair"], r["side"]): r["record"]["metrics"][name]["value"]
                     for r in group if name in r["record"]["metrics"]}
            pairs = sorted({p for p, _ in value
                            if (p, "parent") in value and (p, "change") in value})
            if not pairs:
                continue
            sign = 1.0 if metric["better"] == "higher" else -1.0
            parent = spread([value[p, "parent"] for p in pairs])
            change = spread([value[p, "change"] for p in pairs])
            summary.append({
                "workload": key[0], "seed": key[1], "trace": key[2], "metric": name,
                "parent_checkout": code["parent"], "change_checkout": code["change"],
                "unit": metric["unit"], "better": metric["better"],
                "calibrated": name in calibrated, "pairs": len(pairs),
                "parent": parent, "change": change,
                "change_wins": sum(sign * (value[p, "change"] - value[p, "parent"]) > 0
                                   for p in pairs),
                "gap_exceeds_parent_iqr": (abs(change["median"] - parent["median"])
                                           > parent["q3"] - parent["q1"]),
                "correct": all(r["record"]["correct"] for r in group),
                "failed": sum(r["record"]["failed"] for r in group)})
    claims = [dict(zip(("workload", "metric"), c.split(":", 1))) for c in args.claim]
    json.dump({"claims": claims,
               "environments": environments, "summary": summary, "runs": runs},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    r = commands.add_parser("run", help="alternating parent/change perfbench runs")
    r.add_argument("--parent", required=True, help="checkout of the parent commit")
    r.add_argument("--change", required=True, help="checkout of the change")
    r.add_argument("--workload", required=True)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--records", required=True, help="directory the tagged records go to")
    s = commands.add_parser("summarize", help="print the record of a set of runs as JSON")
    s.add_argument("records", help="directory of tagged records")
    s.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                   help="a metric the change claims to improve (repeatable)")
    args = parser.parse_args(argv)
    (run if args.command == "run" else summarize)(args)


if __name__ == "__main__":
    main()
