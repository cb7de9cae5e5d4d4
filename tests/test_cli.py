"""Command-line interface: presets, single-shot estimation, inspection."""

import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cli_argv_table as argv_table
from fasloc import cli, experiments
from fasloc.channel import (CorrelationModel, FasLayout, ModelValidityError,
                            average_mu_squared, build_covariance)
from fasloc.cli import _read_config, main
from fasloc.estimators import (READING_LIMIT_DBM, EstimatorConfig, solve_ls, solve_mle,
                               solve_single_antenna)
from fasloc.experiments import fig2_spec, run_experiment
from fasloc.forward_model import (RssiProfile, Scene, read_measurements,
                                  simulate_measurements, write_measurements)

A_DEFAULT = 3.14557575653044e-4
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# spec_sha256 of the README's example config, computed before the config
# schema was derived from the dataclass fields
README_CONFIG_SHA256 = "4710cc25e6b1b3a60cc7c4835a66c7afdf6a2229a87e03afb1925e81f5b8368f"

# Captures of the benchmark scene (12 ports at W = 0.5, index spacing,
# d = 10 m, theta = pi/3, SNR 10 dB): three port sweeps, and five readings
# of one antenna.
CAPTURE_12 = """\
0,-60.2413351,-59.8775359,-59.635319,-59.7625307,-59.6405358,-60.5475926,-59.6491452,-59.8658437,-59.7216725,-59.9081083,-59.7497861,-59.7950976
1,-59.5414401,-60.4349382,-59.9476468,-59.9639008,-59.3124651,-60.2229571,-59.8435279,-60.1035692,-59.1015109,-59.7999123,-59.895044,-60.1865104
2,-60.326016,-59.8883364,-59.5457192,-60.2036438,-60.3461058,-60.3752433,-59.9063764,-59.2468254,-60.0658469,-60.0350916,-60.3492701,-59.8655405
"""
CAPTURE_1 = "0,-60.5685902\n1,-60.6020725\n2,-59.7113119\n3,-59.9222638\n4,-59.6647287\n"
# stdout of `estimate` on those captures, one line per method
ESTIMATE_LINES = {
    "mle": ('{"converged": true, "d_hat": 10.015971218847996, "iterations": 6, '
            '"objective_value": -4.964634425785874e-09}'),
    "ls": ('{"converged": true, "d_hat": 10.015834538409, "iterations": 8, '
           '"objective_value": 0.4876711270951243}'),
    "single": ('{"converged": true, "d_hat": 10.055179318889776, "iterations": 0, '
               '"objective_value": 0.8435906630915512}'),
}


def run_cli(*argv):
    return main(list(argv))


def make_noiseless_file(path, n_ports=12, aperture=0.5, d=10.0,
                        theta=math.pi / 3.0, spacing="endpoint"):
    lay = FasLayout(n_ports, aperture, 0.125, spacing)
    scene = Scene(distance=d, bearing=theta)
    write_measurements(path, scene.profile(lay).at(d)[np.newaxis])


# ---------------------------------------------------------------- reproduce

def test_reproduce_fig2_row_count_and_summary(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    rc = run_cli("reproduce", "fig2", "--seed", "42", "--trials", "100",
                 "--out", str(out))
    assert rc == 0
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(body) == 1 + 7 * 4  # header plus 7 SNR points x 4 estimators
    err = capsys.readouterr().err
    assert "gap at SNR 10 dB" in err


def test_reproduce_fig2_deterministic_across_workers(tmp_path):
    o1, o2, o3 = (tmp_path / f"f{i}.csv" for i in range(3))
    run_cli("reproduce", "fig2", "--trials", "100", "--out", str(o1))
    run_cli("reproduce", "fig2", "--trials", "100", "--out", str(o2))
    run_cli("reproduce", "fig2", "--trials", "100", "--workers", "2", "--out", str(o3))
    assert o1.read_bytes() == o2.read_bytes() == o3.read_bytes()


def test_reproduce_fig3_single_pitch(tmp_path):
    out = tmp_path / "fig3.csv"
    with pytest.warns(UserWarning, match="equal-mean-power"):  # the large apertures
        rc = run_cli("reproduce", "fig3", "--trials", "100", "--spacing-h", "0.05",
                     "--out", str(out))
    assert rc == 0
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    header = body[0].split(",")
    assert "realized_n" in header
    col = header.index("realized_n")
    realized = {int(ln.split(",")[col]) for ln in body[1:]}
    assert len(realized) > 1  # port count varies along the sweep


def test_reproduce_fig3_writes_both_pitches(tmp_path):
    out = tmp_path / "fig3.csv"
    with pytest.warns(UserWarning, match="equal-mean-power"):  # the large apertures
        rc = run_cli("reproduce", "fig3", "--trials", "100", "--out", str(out))
    assert rc == 0
    assert (tmp_path / "fig3_h0p05.csv").exists()
    assert (tmp_path / "fig3_h0p01.csv").exists()


def test_reproduce_config_file(tmp_path):
    cfg = {
        "sweep_axis": "snr_db",
        "axis_values": [0.0, 10.0],
        "trials": 100,
        "base_seed": 3,
        "estimators": ["fas_ls"],
        "layout": {"n_ports": 8, "aperture": 0.5, "spacing": "index"},
        "scene": {"distance": 10.0, "bearing": 1.0},
        "output": str(tmp_path / "sweep.csv"),
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("reproduce", "--config", str(cfg_path)) == 0
    assert (tmp_path / "sweep.csv").exists()


def test_reproduce_config_rejects_unknown_keys(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"sweep_axis": "snr_db", "axis_values": [0.0],
                                    "trials": 100, "estimators": ["fas_ls"],
                                    "layout": {"n_ports": 8, "aperture": 0.5},
                                    "turbo": True}))
    assert run_cli("reproduce", "--config", str(cfg_path)) == 2
    assert "turbo" in capsys.readouterr().err


def test_reproduce_rejects_a_negative_seed_with_exit_2(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    assert run_cli("reproduce", "fig2", "--seed", "-1", "--trials", "100",
                   "--workers", "2", "--out", str(out)) == 2
    assert "base_seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, True])
def test_reproduce_config_rejects_a_bad_base_seed_with_exit_2(tmp_path, capsys, seed):
    out = tmp_path / "sweep.csv"
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"sweep_axis": "snr_db", "axis_values": [0.0],
                                    "trials": 100, "base_seed": seed,
                                    "estimators": ["fas_ls"],
                                    "layout": {"n_ports": 8, "aperture": 0.5},
                                    "output": str(out)}))
    assert run_cli("reproduce", "--config", str(cfg_path)) == 2
    assert "base_seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("trials", 150.9), ("mle_frozen_weights", "no")])
def test_reproduce_config_rejects_a_bad_trials_or_flag_with_exit_2(tmp_path, capsys,
                                                                   key, value):
    out = tmp_path / "sweep.csv"
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"sweep_axis": "snr_db", "axis_values": [0.0],
                                    "trials": 150, "estimators": ["fas_mle"],
                                    "layout": {"n_ports": 8, "aperture": 0.5},
                                    "output": str(out), key: value}))
    assert run_cli("reproduce", "--config", str(cfg_path)) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("level", ["layout", "scene"])
def test_reproduce_config_rejects_unknown_nested_keys(tmp_path, capsys, level):
    cfg = {"sweep_axis": "snr_db", "axis_values": [0.0], "trials": 100,
           "estimators": ["fas_ls"], "layout": {"n_ports": 8, "aperture": 0.5},
           "scene": {"distance": 10.0}}
    cfg[level]["turbo"] = True
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("reproduce", "--config", str(cfg_path)) == 2
    assert f"config.{level}" in capsys.readouterr().err


SNR_SWEEP = {"sweep_axis": "snr_db", "axis_values": [0, 10], "trials": 100,
             "estimators": ["fas_ls"], "layout": {"n_ports": 4, "aperture": 0.5}}
APERTURE_SWEEP = {"sweep_axis": "aperture_w", "axis_values": [0.1, 0.2], "trials": 100,
                  "estimators": ["fas_ls"], "snr_db": 10, "spacing_h": 0.05}


@pytest.mark.parametrize("cfg", [
    {**SNR_SWEEP, "scene": {"distance": "ten"}},
    {**SNR_SWEEP, "scene": {"bearing": None}},
    {**SNR_SWEEP, "scene": {"gain_tx": "1"}},
    {**SNR_SWEEP, "layout": {"n_ports": 4, "aperture": "0.5"}},
    {**SNR_SWEEP, "axis_values": [0, "10"]},
    {**APERTURE_SWEEP, "snr_db": "10"},
    {**APERTURE_SWEEP, "spacing_h": "0.05"},
], ids=["distance", "bearing", "gain_tx", "aperture", "axis_values", "snr_db", "spacing_h"])
def test_reproduce_config_rejects_a_value_of_the_wrong_type_with_exit_2(tmp_path, capsys,
                                                                        cfg):
    out = tmp_path / "sweep.csv"
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({**cfg, "output": str(out)}))
    assert run_cli("reproduce", "--config", str(cfg_path)) == 2
    assert "must be a number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("axis_values", 5), ("axis_values", None), ("axis_values", {"a": 1}),
    ("axis_values", "0,10"), ("estimators", 5), ("estimators", "fas_ls"),
    ("estimators", None),
])
def test_reproduce_config_rejects_a_key_that_is_not_an_array_with_exit_2(tmp_path, capsys,
                                                                        key, value):
    out = tmp_path / "sweep.csv"
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({**SNR_SWEEP, key: value, "output": str(out)}))
    assert run_cli("reproduce", "--config", str(cfg_path)) == 2
    assert f"config {key} must be a JSON array" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("preset, flags, named", [
    (None, ["--seed", "7"], ["--seed"]),
    (None, ["--seed", "42"], ["--seed"]),
    (None, ["--trials", "500"], ["--trials"]),
    (None, ["--spacing-h", "0.3"], ["--spacing-h"]),
    (None, ["--seed", "7", "--trials", "500", "--spacing-h", "0.3"],
     ["--seed", "--trials", "--spacing-h"]),
    ("fig2", ["--spacing-h", "0.3"], ["--spacing-h"]),
    ("fig2", ["--config", "sweep.json"], ["either a preset or --config"]),
], ids=["config-seed", "config-seed-42", "config-trials", "config-spacing-h",
        "config-all-three", "fig2-spacing-h", "fig2-config"])
def test_reproduce_rejects_a_flag_it_would_ignore_with_exit_2(tmp_path, capsys, preset,
                                                              flags, named):
    out = tmp_path / "sweep.csv"
    if preset is None:
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(SNR_SWEEP))
        source = ["--config", str(cfg_path)]
    else:
        source = [preset, "--trials", "100"]
    assert run_cli("reproduce", *source, *flags, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in named)
    assert not out.exists()


def test_reproduce_presets_default_to_seed_42(tmp_path):
    given, default = tmp_path / "given.csv", tmp_path / "default.csv"
    assert run_cli("reproduce", "fig2", "--trials", "100", "--seed", "42",
                   "--out", str(given)) == 0
    assert run_cli("reproduce", "fig2", "--trials", "100", "--out", str(default)) == 0
    assert given.read_bytes() == default.read_bytes()


def test_reproduce_config_rejects_an_output_that_is_not_a_string(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({**SNR_SWEEP, "output": 5}))
    assert run_cli("reproduce", "--config", str(cfg_path)) == 2
    assert "output" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [0, -3])
def test_reproduce_rejects_workers_below_one_with_exit_2(tmp_path, capsys, workers):
    with pytest.raises(ValueError, match="workers"):
        run_experiment(fig2_spec(trials=100), workers=workers)
    out = tmp_path / "fig2.csv"
    assert run_cli("reproduce", "fig2", "--trials", "100", "--workers", str(workers),
                   "--out", str(out)) == 2
    assert "workers" in capsys.readouterr().err
    assert not out.exists()


def test_readme_config_spec_hash_is_pinned(tmp_path):
    block = re.search(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(block)
    spec, output = _read_config(cfg_path)
    assert output == "sweep.csv"
    assert spec.sha256() == README_CONFIG_SHA256


def test_reproduce_requires_preset_or_config(capsys):
    assert run_cli("reproduce") == 2


@pytest.mark.parametrize("cfg, field", [
    ({"sweep_axis": "aperture_w", "axis_values": [0.2, 0.3], "snr_db": 10.0,
      "spacing_h": 0.05, "layout": {"n_ports": 7}}, "n_ports"),
    ({"sweep_axis": "snr_db", "axis_values": [0.0, 10.0],
      "layout": {"n_ports": 8, "aperture": 0.5}, "spacing_h": 0.3}, "spacing_h"),
    ({"sweep_axis": "port_count_n", "axis_values": [4, 8], "snr_db": 10.0,
      "layout": {"aperture": 0.5}, "spacing_h": 0.3}, "spacing_h"),
], ids=["aperture_w-n_ports", "snr_db-spacing_h", "port_count_n-spacing_h"])
def test_reproduce_config_rejects_a_field_its_axis_does_not_read_with_exit_2(
        tmp_path, capsys, cfg, field):
    out = tmp_path / "sweep.csv"
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"trials": 100, "estimators": ["fas_ls"], **cfg}))
    assert run_cli("reproduce", "--config", str(cfg_path), "--out", str(out)) == 2
    assert not out.exists()
    assert f"does not read {field}" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [
    {"sweep_axis": "snr_db", "axis_values": [-4000.0, 0.0, 10.0],
     "layout": {"n_ports": 12, "aperture": 0.5}},
    {"sweep_axis": "aperture_w", "axis_values": [0.5, 1.0], "snr_db": -4000.0,
     "spacing_h": 0.05},
    {"sweep_axis": "snr_db", "axis_values": [0.0, 10.0, 4000.0],
     "layout": {"n_ports": 12, "aperture": 0.5}},
], ids=["axis_value_overflows", "fixed_snr_overflows", "last_axis_value_underflows"])
def test_reproduce_rejects_an_snr_without_a_finite_variance_before_any_trial(
        tmp_path, capsys, monkeypatch, cfg):
    runs = []
    real = experiments._run_trials
    monkeypatch.setattr(experiments, "_run_trials", lambda *a: runs.append(a) or real(*a))
    out = tmp_path / "sweep.csv"
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"trials": 100, "estimators": ["fas_ls"], **cfg}))
    assert run_cli("reproduce", "--config", str(cfg_path), "--out", str(out)) == 2
    assert not out.exists()
    assert runs == []
    assert "snr_db" in capsys.readouterr().err


@pytest.mark.parametrize("argv, output, clash", [
    (("fig2", "--trials", "100", "--out", "t.json"), None, "t.json"),
    (("fig3", "--trials", "100", "--out", "t.json"), None, "t_h0p05.json"),
    (("--config", "sweep.json"), "t.json", "t.json"),
], ids=["fig2-out", "fig3-derived", "config-output"])
def test_reproduce_rejects_a_csv_path_that_is_its_json_twin_before_any_trial(
        tmp_path, capsys, monkeypatch, argv, output, clash):
    runs = []
    real = experiments._run_trials
    monkeypatch.setattr(experiments, "_run_trials", lambda *a: runs.append(a) or real(*a))
    monkeypatch.chdir(tmp_path)
    cfg = {"sweep_axis": "snr_db", "axis_values": [0.0, 10.0], "trials": 100,
           "estimators": ["fas_ls"], "layout": {"n_ports": 12, "aperture": 0.5}}
    (tmp_path / "sweep.json").write_text(json.dumps({**cfg, "output": output}))
    assert run_cli("reproduce", *argv, "--json") == 2
    assert runs == []
    assert list(tmp_path.iterdir()) == [tmp_path / "sweep.json"]
    assert clash in capsys.readouterr().err


@pytest.mark.parametrize("cfg, key", [
    ('"sweep_axis": "port_count_n", "axis_values": [4, 1e400], "snr_db": 10.0, '
     '"layout": {"aperture": 0.5}', "axis_values"),
    ('"sweep_axis": "aperture_w", "axis_values": [0.5, 1.0], "snr_db": 10.0, '
     '"spacing_h": 1e-320', "spacing_h"),
    ('"sweep_axis": "port_count_n", "axis_values": [4, NaN], "snr_db": 10.0, '
     '"layout": {"aperture": 0.5}', "axis_values"),
    ('"sweep_axis": "snr_db", "axis_values": [0.0, 10.0], '
     '"layout": {"n_ports": NaN, "aperture": 0.5}', "n_ports"),
], ids=["infinite_port_count", "port_count_overflows", "nan_port_count", "nan_fixed_n_ports"])
def test_reproduce_rejects_a_non_finite_point_naming_its_key_with_exit_2(
        tmp_path, capsys, cfg, key):
    # the config text holds the JSON as written: 1e400 reads as inf
    out = tmp_path / "sweep.csv"
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text('{"trials": 100, "estimators": ["fas_ls"], ' + cfg + "}")
    assert run_cli("reproduce", "--config", str(cfg_path), "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert key in err and "finite" in err


PORT_SWEEP = {"sweep_axis": "port_count_n", "axis_values": [4, 8], "trials": 100,
              "estimators": ["fas_ls"], "snr_db": 10, "layout": {"aperture": 0.5}}


@pytest.mark.parametrize("text, message", [
    (json.dumps({**SNR_SWEEP, "sweep_axis": "distance"}), "sweep_axis must be one of"),
    (json.dumps({**SNR_SWEEP, "estimators": []}), "estimator list is empty"),
    (json.dumps({**APERTURE_SWEEP, "spacing_h": 0}), "spacing_h must be positive"),
    (json.dumps({**APERTURE_SWEEP, "spacing_h": -0.05}), "spacing_h must be positive"),
    (json.dumps({**PORT_SWEEP, "axis_values": [4, 4.5]}),
     "n_ports must be a positive integer, got 4.5"),
    (json.dumps({**PORT_SWEEP, "axis_values": [4, 10 ** 12]}), "n_ports must be at most"),
    (json.dumps({**APERTURE_SWEEP, "axis_values": [0.1, 1000.0], "spacing_h": 0.001}),
     "n_ports must be at most"),
    (json.dumps(SNR_SWEEP)[:-1] + ', "scene": {"bearing": 1e400}}', "bearing must be finite"),
    ("[1, 2]", "config root must be a JSON object"),
    (json.dumps({**SNR_SWEEP, "scene": {"tx_power_dbm": 1e308}}), "tx_power_dbm"),
    (json.dumps({**SNR_SWEEP, "scene": {"distance": 1e300}}), "noiseless RSSI"),
    (json.dumps({**SNR_SWEEP, "scene": {"distance": 10 ** 400}}), "distance must be finite"),
], ids=["unknown_axis", "no_estimators", "zero_pitch", "negative_pitch",
        "fractional_port_count", "port_count_over_the_cap", "aperture_over_the_cap",
        "infinite_bearing", "array_root", "overflowing_tx_power", "overflowing_distance",
        "int_distance_beyond_floats"])
def test_reproduce_config_rejects_a_bad_spec_before_any_group_with_exit_2(
        tmp_path, capsys, monkeypatch, text, message):
    # a run that got past the spec would build N x N covariances first
    monkeypatch.setattr(experiments, "_group_contexts", lambda spec: pytest.fail("ran"))
    out = tmp_path / "sweep.csv"
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(text)
    assert run_cli("reproduce", "--config", str(cfg_path), "--out", str(out)) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_a_config_sweep_checks_its_spec_once(tmp_path, monkeypatch):
    calls = []
    validate, resolve = experiments.ExperimentSpec.validate, experiments._resolve_point
    monkeypatch.setattr(experiments.ExperimentSpec, "validate",
                        lambda spec: calls.append("validate") or validate(spec))
    monkeypatch.setattr(experiments, "_resolve_point",
                        lambda spec, v: calls.append("resolve") or resolve(spec, v))
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(SNR_SWEEP))
    assert run_cli("reproduce", "--config", str(cfg_path),
                   "--out", str(tmp_path / "sweep.csv")) == 0
    # validate resolves each point once, and the solve groups once more
    points = len(SNR_SWEEP["axis_values"])
    assert sorted(calls) == ["resolve"] * 2 * points + ["validate"]


def test_reproduce_runs_and_writes_every_table_at_one_site():
    source = inspect.getsource(cli._cmd_reproduce)
    assert source.count("run_experiment(") == 1
    assert source.count("_write_table(") == 1


def test_json_twin_writes_null_for_a_row_that_excluded_every_trial(tmp_path):
    # weighted ML excludes every trial where the weight pole reaches the scene
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "sweep_axis": "aperture_w", "axis_values": [1.0, 1.1, 1.2], "trials": 100,
        "estimators": ["fas_mle", "fas_ls"], "snr_db": 10.0, "spacing_h": 0.01,
        "layout": {"spacing": "index"}}))
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # far field
        assert run_cli("reproduce", "--config", str(cfg_path), "--out", str(out),
                       "--json") == 0

    def reject(constant):
        raise ValueError(f"not RFC 8259 JSON: {constant}")

    rows = json.loads(out.with_suffix(".json").read_text(), parse_constant=reject)["rows"]
    excluded = [r for r in rows if r["excluded"] == r["trials"]]
    assert excluded
    assert all((r["nmse_db"] is None) == (r in excluded) for r in rows)
    assert out.read_text().count(",nan,") == len(excluded)


# ---------------------------------------------------------------- estimate

@pytest.mark.parametrize("method", ["mle", "ls"])
def test_estimate_noiseless_file(tmp_path, capsys, method):
    path = tmp_path / "caps.txt"
    make_noiseless_file(path)
    rc = run_cli("estimate", "--input", str(path), "--theta", str(math.pi / 3.0),
                 "--n-ports", "12", "--aperture", "0.5",
                 "--amp-const", str(A_DEFAULT), "--method", method)
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert abs(payload["d_hat"] - 10.0) < 1e-3


def test_estimate_single_method(tmp_path, capsys):
    path = tmp_path / "caps1.txt"
    make_noiseless_file(path, n_ports=1, aperture=0.0, spacing="index")
    rc = run_cli("estimate", "--input", str(path), "--theta", "0.0",
                 "--n-ports", "1", "--aperture", "0.0", "--spacing", "index",
                 "--amp-const", str(A_DEFAULT), "--method", "single")
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["d_hat"] - 10.0) < 1e-6


def test_estimate_wrong_port_count_exits_2(tmp_path, capsys):
    path = tmp_path / "caps.txt"
    make_noiseless_file(path, n_ports=12)
    rc = run_cli("estimate", "--input", str(path), "--theta", "1.0",
                 "--n-ports", "6", "--aperture", "0.5",
                 "--amp-const", str(A_DEFAULT))
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_estimate_non_convergence_exits_3_with_payload(tmp_path, capsys):
    path = tmp_path / "caps.txt"
    make_noiseless_file(path)
    rc = run_cli("estimate", "--input", str(path), "--theta", str(math.pi / 3.0),
                 "--n-ports", "12", "--aperture", "0.5",
                 "--amp-const", str(A_DEFAULT), "--method", "ls",
                 "--bracket", "50", "200")
    assert rc == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is False
    assert "d_hat" in payload


@pytest.mark.parametrize("case", ["nan_reading", "nan_theta", "nan_theta_single",
                                  "negative_amp_const", "infinite_bracket"])
def test_estimate_rejects_bad_input_with_exit_2(tmp_path, capsys, case):
    path = tmp_path / "caps.txt"
    # the single-antenna method reads no bearing, but the link model checks it
    n_ports, method = (1, "single") if case == "nan_theta_single" else (12, "mle")
    make_noiseless_file(path, n_ports=n_ports)
    if case == "nan_reading":
        fields = path.read_text().strip().split(",")
        fields[3] = "nan"
        path.write_text(",".join(fields) + "\n")
    theta = "nan" if case.startswith("nan_theta") else str(math.pi / 3.0)
    amp = "-3e-4" if case == "negative_amp_const" else str(A_DEFAULT)
    bracket = ["--bracket", "0.5", "inf"] if case == "infinite_bracket" else []
    assert run_cli("estimate", "--input", str(path), "--theta", theta,
                   "--n-ports", str(n_ports), "--aperture", "0.5", f"--amp-const={amp}",
                   "--method", method, *bracket) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error" in captured.err


@pytest.mark.parametrize("capture", ["x,-60,-61,-62\nx,-60,-61,-62\n",
                                     "-60.24,-59.88,-59.64,-59.76\n"],
                         ids=["text_index", "no_index_column"])
def test_estimate_rejects_a_snapshot_index_that_is_not_an_integer(tmp_path, capsys, capture):
    rc, path = estimate_capture(tmp_path, "ls", capture)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}:1:" in captured.err


def test_estimate_rejects_a_port_count_over_the_cap_with_exit_2(tmp_path, capsys):
    path = tmp_path / "capture.txt"
    path.write_text(CAPTURE_12)
    assert run_cli("estimate", "--input", str(path), "--theta", "1.0",
                   "--n-ports", "100000", "--aperture", "0.5",
                   "--amp-const", str(A_DEFAULT)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_ports" in captured.err


@pytest.mark.parametrize("method", ["ls", "mle"])
def test_estimate_rejects_a_bracket_end_whose_square_overflows_with_exit_2(tmp_path, capsys,
                                                                          method):
    # the model squares the distance: a bracket end of 1e300 is the bracket's
    # fault, not the link constants', and must fail before any overflow
    path = tmp_path / "capture.txt"
    path.write_text(CAPTURE_12)
    assert run_cli("estimate", "--input", str(path), "--theta", str(math.pi / 3.0),
                   "--n-ports", "12", "--aperture", "0.5", "--spacing", "index",
                   "--amp-const", str(A_DEFAULT), "--method", method,
                   "--bracket", "1", "1e300") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "search bracket end d_max" in captured.err and "1e+300" in captured.err
    assert "RuntimeWarning" not in captured.err


def test_estimate_mle_rejects_a_bracket_inside_the_weight_pole_with_exit_2(tmp_path, capsys):
    # 12 index-spaced ports at W = 2 facing theta = 0: the pole is at 5.5 m
    path = tmp_path / "capture.txt"
    path.write_text(CAPTURE_12)
    assert run_cli("estimate", "--input", str(path), "--theta", "0", "--n-ports", "12",
                   "--aperture", "2.0", "--spacing", "index", "--amp-const", str(A_DEFAULT),
                   "--method", "mle", "--bracket", "0.01", "0.02") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "5.5 m" in captured.err


def estimate_capture(tmp_path, method, capture=None, *flags):
    """Run `estimate` on a benchmark-scene capture, with ``flags`` appended;
    returns (rc, path)."""
    if capture is None:
        capture = CAPTURE_1 if method == "single" else CAPTURE_12
    path = tmp_path / "capture.txt"
    path.write_text(capture)
    n_ports = str(capture.splitlines()[0].count(","))
    rc = run_cli("estimate", "--input", str(path), "--theta", repr(math.pi / 3.0),
                 "--n-ports", n_ports, "--aperture", "0.5", "--spacing", "index",
                 "--amp-const", repr(A_DEFAULT), "--method", method, *flags)
    return rc, path


def with_first_reading(capture, value):
    """The capture with the first reading of its first snapshot replaced."""
    head, rest = capture.split("\n", 1)
    fields = head.split(",")
    fields[1] = repr(value)
    return ",".join(fields) + "\n" + rest


def estimate_warnings(tmp_path, method, capture, *flags):
    """(rc, RuntimeWarnings raised) of one `estimate` call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, _ = estimate_capture(tmp_path, method, capture, *flags)
    return rc, [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("method", ["mle", "ls", "single"])
@pytest.mark.parametrize("reading", [math.nextafter(READING_LIMIT_DBM, math.inf), 1e155,
                                     -1e300])
def test_estimate_rejects_a_reading_beyond_the_limit_with_exit_2(tmp_path, capsys, method,
                                                                 reading):
    capture = with_first_reading(CAPTURE_1 if method == "single" else CAPTURE_12, reading)
    rc, runtime_warnings = estimate_warnings(tmp_path, method, capture)
    captured = capsys.readouterr()
    assert (rc, captured.out, runtime_warnings) == (2, "", [])
    assert "within +-1e+100 dBm" in captured.err


@pytest.mark.parametrize("method", ["mle", "ls"])
@pytest.mark.parametrize("reading", [READING_LIMIT_DBM, -READING_LIMIT_DBM])
def test_estimate_solves_readings_at_the_limit_without_warnings(tmp_path, capsys, method,
                                                                reading):
    rc, runtime_warnings = estimate_warnings(tmp_path, method,
                                             with_first_reading(CAPTURE_12, reading))
    out = capsys.readouterr().out
    assert rc in (0, 3) and runtime_warnings == []
    assert json.loads(out)["converged"] is (rc == 0)


@pytest.mark.parametrize("reading, flags", [
    (-READING_LIMIT_DBM, ()),
    (-60.0, ("--amp-const", "100", "--path-loss-exp", "0.001")),
], ids=["low-reading", "amp-const-above-1"])
def test_estimate_single_rejects_a_distance_beyond_the_float_range(tmp_path, capsys,
                                                                  reading, flags):
    rc, runtime_warnings = estimate_warnings(
        tmp_path, "single", with_first_reading(CAPTURE_1, reading), *flags)
    captured = capsys.readouterr()
    assert (rc, captured.out, runtime_warnings) == (2, "", [])
    assert "beyond the float range" in captured.err


@pytest.mark.parametrize("method", ["mle", "ls"])
@pytest.mark.parametrize("path_loss_exp", ["1e300", "1.7e308"])
def test_estimate_rejects_a_model_beyond_the_reading_limit_with_exit_2(tmp_path, capsys,
                                                                      method, path_loss_exp):
    rc, runtime_warnings = estimate_warnings(tmp_path, method, CAPTURE_12,
                                             "--path-loss-exp", path_loss_exp)
    captured = capsys.readouterr()
    assert (rc, captured.out, runtime_warnings) == (2, "", [])
    assert "path_loss_exp and amp_const" in captured.err


@pytest.mark.parametrize("method", ["mle", "ls", "single"])
def test_estimate_prints_the_pinned_line(tmp_path, capsys, method):
    rc, _ = estimate_capture(tmp_path, method)
    assert rc == 0
    assert capsys.readouterr().out == ESTIMATE_LINES[method] + "\n"


@pytest.mark.parametrize("method", ["mle", "ls", "single"])
def test_estimate_equals_the_solver_on_the_port_wise_mean(tmp_path, capsys, method):
    rc, path = estimate_capture(tmp_path, method)
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    layout = FasLayout(1 if method == "single" else 12, 0.5, 0.125, "index")
    cfg = EstimatorConfig(search_bracket=(0.01, 10000.0), tolerance=1e-6)
    profile = RssiProfile(layout, math.pi / 3.0, A_DEFAULT, 2.0)
    if method == "single":
        batch = solve_single_antenna(read_measurements(path, 1).reshape(1, -1), profile)
    else:
        rows = read_measurements(path, 12)
        assert rows.shape == (3, 12)
        mean = rows.mean(axis=0, keepdims=True)
        if method == "mle":
            batch = solve_mle(mean, profile, average_mu_squared(layout), cfg)
        else:
            batch = solve_ls(mean, profile, cfg)
    assert payload == {"d_hat": float(batch.d_hat[0]), "converged": bool(batch.converged[0]),
                       "iterations": int(batch.iterations[0]),
                       "objective_value": float(batch.objective_value[0])}


def test_estimate_single_method_rejects_two_ports(tmp_path, capsys):
    capture = "0,-60.0,-60.1\n1,-59.9,-60.2\n"
    rc, _ = estimate_capture(tmp_path, "single", capture)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "one-port" in captured.err


def test_estimate_noisy_file_lands_near_truth(tmp_path, capsys):
    lay = FasLayout(12, 0.5, 0.125, "index")
    scene = Scene(distance=10.0, bearing=math.pi / 3.0)
    cov = build_covariance(lay, CorrelationModel.AVERAGE_MU, 0.1)
    snaps = simulate_measurements(lay, scene, cov, (6, 0), 1)
    path = tmp_path / "noisy.txt"
    write_measurements(path, snaps)
    rc = run_cli("estimate", "--input", str(path), "--theta", str(math.pi / 3.0),
                 "--n-ports", "12", "--aperture", "0.5", "--spacing", "index",
                 "--amp-const", str(A_DEFAULT), "--method", "mle")
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    # prediction interval from the benchmark NMSE at SNR 10 (about -38 dB):
    # 3 * sigma_pred with sigma_pred = d * 10^(nmse/20) ~ 0.38 m
    assert abs(payload["d_hat"] - 10.0) < 3.0 * 10.0 * 10 ** (-38.0 / 20.0)


# ---------------------------------------------------------------- inspect

def test_inspect_two_ports(capsys):
    assert run_cli("inspect", "--n-ports", "2", "--aperture", "0.5") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mu_squared"] == pytest.approx(0.304242, abs=1e-6)
    assert payload["kappa"] is not None


def test_inspect_fully_correlated(capsys):
    assert run_cli("inspect", "--n-ports", "12", "--aperture", "0.0") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mu_squared"] == pytest.approx(1.0, abs=1e-9)
    assert payload["kappa"] is None
    assert payload["eigenvalue_min"] == pytest.approx(0.0, abs=1e-6)
    assert payload["eigenvalue_max"] == pytest.approx(12.0, abs=1e-6)


def test_inspect_independent_profile(capsys):
    assert run_cli("inspect", "--n-ports", "12", "--aperture", "0.5",
                   "--model", "independent") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["correlation_profile"][0] == 1.0
    assert all(v == 0.0 for v in payload["correlation_profile"][1:])


def test_inspect_invalid_layout_exits_2(capsys):
    assert run_cli("inspect", "--n-ports", "1", "--aperture", "0.5") == 2


def test_a_model_validity_error_exits_4(capsys, monkeypatch):
    # no valid input reaches the PSD-repair limit, so the error is forced
    def fail(*args):
        raise ModelValidityError("forced")

    monkeypatch.setattr(cli, "build_covariance", fail)
    assert run_cli("inspect", "--n-ports", "4", "--aperture", "0.5") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "model-validity error: forced" in captured.err


def test_inspect_stdout_is_pure_json(capsys):
    run_cli("inspect", "--n-ports", "4", "--aperture", "0.3")
    out = capsys.readouterr().out
    json.loads(out)  # parses as a single object
    assert out.count("\n") == 1


# sha256 of `inspect` stdout at aperture 0.3 per "model spacing n_ports",
# and with every optional flag left at its default, computed before the
# layout flags moved to a parser shared with `estimate`
INSPECT_SHA256 = {
    "jakes endpoint 2": "60b40a117b62da1670fcfb124c00ed1c70aff95b4572c0779bba25e445e4cebc",
    "jakes endpoint 12": "336043f3474b72267b7b80d93138c71e6d4a6ab1c2d14570b76a0e0b7b0ada93",
    "jakes endpoint 40": "dfc14accd989945e8565c5d392d7684ad1617ed1ff27a49000cc7f793430fc22",
    "jakes index 2": "584ecf13c9fcfde95871b1834ffd952de72b360a816fd8c5ac06bfc84c05e109",
    "jakes index 12": "d4029eaae8dba87d5b1824d97a2bfa3c743a73cfa9a8fe1b44c25cc8af78e708",
    "jakes index 40": "c395aa9a5e3a0e88f60c9f81dd873808bfdba81f43e88343b9c32675d4e90f00",
    "average-mu endpoint 2": "3e34de004e4f19bd04fa92fa30ebc0af0a07d8985680c202534d344fa63cc034",
    "average-mu endpoint 12": "211954af52fc8ddb0616cab6d65b8561d697c5f7c5bf3b2d3399ba0e78a1cf13",
    "average-mu endpoint 40": "6d32150df471fcfafe5afe00106830a15a31e0b5521fb45308adbe04f0bb9600",
    "average-mu index 2": "c2485f6609a2da01ce1b8e51a7fcd516ac72fdea5e6405a9a140289005a20c8f",
    "average-mu index 12": "3fa78b64dfab54ebf5ce5a7617860e4cb7b313e72f0f519611a626cd2ab19b66",
    "average-mu index 40": "9d2b1446c3e789a7ab180142a3a9af8983baea04796cbc799cfbdc770a2da033",
    "independent endpoint 2": "a8f496c2cf31a8b7bd19e141eb1401a23170e9cbdf2b08f234dc08687d71b3a6",
    "independent endpoint 12": "34dfa74f863f16a1a4d5793a3476b47beba3fb00117064a395a91269ccbc9bf3",
    "independent endpoint 40": "2029ee9b098214d21a4d023ff4a3044c931888268b46475681ce72e8c9345208",
    "independent index 2": "77e663a75883619c6362e3db7e3ed46f44bbc61736bcd6d4592673a628bfcf90",
    "independent index 12": "0a03e8069f840a61aa40fa45ce0d0500529678e3421cbc82dc08dd56f074a879",
    "independent index 40": "b0523ac80d41d5d566ce099c5985bb59fbe53b6445bf85b00314b0d5030359ba",
}
INSPECT_DEFAULTS_SHA256 = "796eb88fddf728bdf893852cde62116b2b26f81d47ef1884abfd2dbee036dc32"


@pytest.mark.parametrize("case", list(INSPECT_SHA256))
def test_inspect_prints_the_pinned_json(case):
    model, spacing, n_ports = case.split()
    rc, out = call_cli(["inspect", "--n-ports", n_ports, "--aperture", "0.3",
                        "--model", model, "--spacing", spacing])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == INSPECT_SHA256[case]


@pytest.mark.parametrize("model, spacing, decompositions",
                         [("average-mu", "index", 1), ("jakes", "endpoint", 2)])
def test_inspect_decomposes_again_only_a_repaired_matrix(monkeypatch, model, spacing,
                                                         decompositions):
    # an unrepaired Jakes matrix prints the eigenvalues of its PSD check; an
    # equicorrelated one is decomposed once, by inspect, since its PSD check
    # reads the closed-form spectrum
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rc, out = call_cli(["inspect", "--n-ports", "12", "--aperture", "0.3", "--model", model,
                        "--spacing", spacing])
    assert rc == 0
    assert json.loads(out)["regularized"] is (decompositions == 2)
    assert calls == [(12, 12)] * decompositions


def test_inspect_defaults_print_the_pinned_json():
    rc, out = call_cli(["inspect", "--n-ports", "12", "--aperture", "0.5"])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == INSPECT_DEFAULTS_SHA256


# ---------------------------------------------------------------- one parser per process

def call_cli(argv):
    """Exit code and stdout of one ``main`` call; an argparse error counts
    as the exit code it raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def test_the_shared_parser_carries_no_state_between_calls(tmp_path):
    cap12, cap1 = tmp_path / "cap12.txt", tmp_path / "cap1.txt"
    cap12.write_text(CAPTURE_12)
    cap1.write_text(CAPTURE_1)
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(SNR_SWEEP))
    sweep_csv = tmp_path / "sweep.csv"

    def estimate(path, n_ports, *flags):
        return ["estimate", "--input", str(path), "--theta", repr(math.pi / 3.0),
                "--n-ports", n_ports, "--aperture", "0.5", "--spacing", "index",
                "--amp-const", repr(A_DEFAULT), *flags]

    calls = [
        estimate(cap12, "12", "--method", "mle"),
        estimate(cap12, "12", "--method", "ls", "--bracket", "1", "100"),
        estimate(cap1, "1", "--method", "single"),
        estimate(cap12, "6"),                     # wrong port count: input error
        ["estimate", "--input", str(cap12)],      # missing required flags: argparse error
        ["inspect", "--n-ports", "12", "--aperture", "0.5", "--model", "jakes"],
        ["reproduce", "--config", str(cfg_path), "--out", str(sweep_csv)],
        estimate(cap12, "12", "--method", "mle"),
    ]

    def run(argv):
        rc, out = call_cli(argv)
        table = sweep_csv.read_bytes() if argv[0] == "reproduce" else None
        return rc, out, table

    cli._build_parser.cache_clear()
    shared = [run(argv) for argv in calls]
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [0, 0, 0, 2, 2, 0, 0, 0]
    assert shared[0] == shared[-1]
    assert shared[0][1] == ESTIMATE_LINES["mle"] + "\n"


# ---------------------------------------------------------------- one parse per call

def parse_exit(parse, argv):
    """Exit code, stdout and stderr of a parse that argparse ends."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", argv_table.VALID.values(), ids=argv_table.VALID)
def test_one_parse_gives_the_namespace_of_the_top_level_parser(argv):
    parser, _ = cli._build_parser()
    assert vars(cli._parse_args(argv)) == vars(parser.parse_args(argv))


@pytest.mark.parametrize("argv", [*argv_table.EXITS.values(), *argv_table.UNRECOGNIZED.values()],
                         ids=[*argv_table.EXITS, *(f"{c}_unrecognized" for c in
                                                   argv_table.UNRECOGNIZED)])
def test_one_parse_exits_as_the_top_level_parser_does(argv):
    parser, _ = cli._build_parser()
    code, out, _ = parse_exit(cli._parse_args, argv)
    assert (code, out) == parse_exit(parser.parse_args, argv)[:2]


@pytest.mark.parametrize("command", argv_table.UNRECOGNIZED)
def test_an_unrecognized_flag_is_reported_by_its_command(command):
    code, out, err = parse_exit(cli._parse_args, argv_table.UNRECOGNIZED[command])
    assert (code, out) == (2, "")
    assert f"usage: fasloc {command}" in err
    assert f"fasloc {command}: error: unrecognized arguments:" in err


# each form of a negative finite number that float() reads
@pytest.mark.parametrize("value", ["-1", "-1.5", "-1.", "-.5", "-1e3", "-1e-3", "-1E+2",
                                   "-1.5e3", "-.5e-1", "-1.e2", "-1_000", "-1_0.2_5e1_0"])
def test_a_detached_negative_number_in_any_float_form_is_a_value(value):
    assert cli._parse_args([*argv_table.ESTIMATE, "--theta", value]).theta == float(value)


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan"])
def test_a_detached_negative_infinity_or_nan_is_still_taken_for_a_flag(value):
    code, out, err = parse_exit(cli._parse_args, [*argv_table.ESTIMATE, "--theta", value])
    assert (code, out) == (2, "")
    assert "argument --theta: expected one argument" in err


def run_module(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=60)


def test_importing_the_cli_builds_no_parser():
    proc = run_module("-c", "import fasloc.cli as c; print(c._build_parser.cache_info().currsize)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_a_serial_run_never_loads_the_process_pool():
    code = ("import sys, fasloc.cli, fasloc.experiments as e; "
            "print('multiprocessing' in sys.modules); "
            "e.run_experiment(e.fig2_spec(trials=100)); "
            "print('multiprocessing' in sys.modules)")
    proc = run_module("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\nFalse\n"


def test_python_dash_m_fasloc_is_the_cli(capsys):
    proc = run_module("-m", "fasloc", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("fasloc ")
    argv = ["inspect", "--n-ports", "12", "--aperture", "0.5"]
    proc = run_module("-m", "fasloc", *argv)
    assert proc.returncode == 0, proc.stderr
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out
