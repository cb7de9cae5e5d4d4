"""The per-change benchmark record: pair statistics of tagged perfbench records."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)

ENVIRONMENT = {"nproc": 2, "python": "3.11.7"}
SECONDS = bench_record.BENCHMARK["run_seconds"]


def code(side):
    return {"git_commit": None, "src_sha256": side}


def write_record(directory, pair, side, trials_per_s, p50_us, seconds=SECONDS, checkout=None):
    record = {"workload": "estimate_cli", "seed": 3, "trace": 0, "seconds": seconds,
              "correct": True, "attempted": 100, "failed": 0, "environment": ENVIRONMENT,
              "metrics": {"trials_per_s": {"value": trials_per_s, "unit": "1/s"},
                          "estimate_p50_us": {"value": p50_us, "unit": "us"}},
              "run": {"op_seconds": [0.001, 0.002, 0.003, 0.004, 0.005]},
              "checkout": checkout or code(side)}
    (directory / f"estimate_cli_s3_t0_p{pair}_{side}.json").write_text(json.dumps(record))


def test_summary_gives_medians_quartiles_and_wins_per_metric(tmp_path, capsys):
    parent, change = [100.0, 110.0, 120.0, 130.0, 140.0], [150.0, 105.0, 160.0, 170.0, 180.0]
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        write_record(tmp_path, pair, "parent", p, 1e6 / p)
        write_record(tmp_path, pair, "change", c, 1e6 / c)
    (tmp_path / "notes.txt").write_text("not a record")
    bench_record.main(["summarize", str(tmp_path), "--claim", "estimate_cli:trials_per_s"])
    out = json.loads(capsys.readouterr().out)

    assert out["claims"] == [{"workload": "estimate_cli", "metric": "trials_per_s"}]
    assert out["environments"] == [ENVIRONMENT]
    assert len(out["runs"]) == 10
    assert out["runs"][0]["record"]["run"]["op_seconds"] == {
        "n": 5, "median": 0.003, "q1": 0.002, "q3": 0.004}
    rows = {row["metric"]: row for row in out["summary"]}
    assert set(rows) == {"trials_per_s", "estimate_p50_us"}
    tps = rows["trials_per_s"]
    assert (tps["pairs"], tps["change_wins"], tps["failed"]) == (5, 4, 0)
    assert tps["parent"] == {"n": 5, "median": 120.0, "q1": 110.0, "q3": 130.0}
    assert tps["change"]["median"] == 160.0
    assert tps["gap_exceeds_parent_iqr"]
    assert (tps["parent_checkout"], tps["change_checkout"]) == (code("parent"), code("change"))
    # lower is better for a latency: the same pairs win
    assert rows["estimate_p50_us"]["change_wins"] == 4
    # both end-to-end timings are scaled by calibration slots
    assert tps["calibrated"] and rows["estimate_p50_us"]["calibrated"]


def test_a_traced_group_gets_a_row_per_layer_metric(tmp_path, capsys):
    layer = "experiments.nmse_db.us_per_call"
    parent, change = [30.0, 32.0, 31.0, 29.0, 33.0], [20.0, 21.0, 35.0, 19.0, 22.0]
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        for side, value in (("parent", p), ("change", c)):
            record = {"workload": "fig2_serial", "seed": 1, "trace": 1, "seconds": SECONDS,
                      "correct": True, "attempted": 10, "failed": 0,
                      "environment": ENVIRONMENT, "checkout": code(side),
                      "metrics": {layer: {"value": value, "unit": "us"},
                                  "trace.self_time_coverage": {"value": 0.999, "unit": "ratio"}}}
            (tmp_path / f"fig2_serial_s1_t1_p{pair}_{side}.json").write_text(json.dumps(record))
    bench_record.main(["summarize", str(tmp_path)])
    rows = {row["metric"]: row for row in json.loads(capsys.readouterr().out)["summary"]}
    # only the layers the records hold, and no end-to-end row
    assert set(rows) == {layer, "trace.self_time_coverage"}
    nmse = rows[layer]
    assert (nmse["workload"], nmse["seed"], nmse["trace"]) == ("fig2_serial", 1, 1)
    assert nmse["parent"] == {"n": 5, "median": 31.0, "q1": 30.0, "q3": 32.0}
    assert nmse["change"] == {"n": 5, "median": 21.0, "q1": 20.0, "q3": 22.0}
    # lower is better: the change wins every pair but the third
    assert (nmse["better"], nmse["change_wins"], nmse["gap_exceeds_parent_iqr"]) == \
        ("lower", 4, True)
    assert rows["trace.self_time_coverage"]["better"] == "higher"
    # traced wall time, which no calibration slot scales
    assert not nmse["calibrated"] and not rows["trace.self_time_coverage"]["calibrated"]


def test_calibrated_marks_the_end_to_end_metrics_and_no_per_layer_one(tmp_path, capsys):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in bench_record.BENCHMARK["end_to_end"] + bench_record.BENCHMARK["per_layer"]}
    for side in ("parent", "change"):
        record = {"workload": "fig2_serial", "seed": 1, "trace": 1, "seconds": SECONDS,
                  "correct": True, "attempted": 10, "failed": 0, "environment": ENVIRONMENT,
                  "checkout": code(side), "metrics": metrics}
        (tmp_path / f"fig2_serial_s1_t1_p1_{side}.json").write_text(json.dumps(record))
    bench_record.main(["summarize", str(tmp_path)])
    rows = json.loads(capsys.readouterr().out)["summary"]
    assert len(rows) == len(metrics)
    assert {row["metric"] for row in rows if row["calibrated"]} == \
        {m["name"] for m in bench_record.BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("odd, message", [
    ({"seconds": SECONDS / 2}, f"estimate_cli_s3_t0_p2_change.json: a {SECONDS / 2} s run"),
    ({"checkout": code("other")}, "estimate_cli_3_0: the change runs ran different code")],
    ids=["shorter run", "other code"])
def test_summary_refuses_a_run_unlike_the_rest_of_its_side(tmp_path, odd, message):
    for pair in (1, 2):
        write_record(tmp_path, pair, "parent", 100.0, 1e4)
    write_record(tmp_path, 1, "change", 110.0, 9e3)
    write_record(tmp_path, 2, "change", 110.0, 9e3, **odd)
    with pytest.raises(SystemExit) as stop:
        bench_record.main(["summarize", str(tmp_path)])
    assert str(stop.value).startswith(message)


def test_a_checkout_is_its_commit_and_the_hash_of_its_sources(tmp_path):
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text("x = 1\n")
    before = bench_record.checkout(tmp_path)
    assert before["git_commit"] is None
    (tmp_path / "src" / "pkg" / "__pycache__" / "mod.pyc").write_bytes(b"cache")
    assert bench_record.checkout(tmp_path) == before
    (tmp_path / "src" / "pkg" / "mod.py").write_text("x = 2\n")
    assert bench_record.checkout(tmp_path)["src_sha256"] != before["src_sha256"]
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q",
                    "--allow-empty", "-m", "empty"], cwd=tmp_path, check=True)
    assert len(bench_record.checkout(tmp_path)["git_commit"]) == 40
