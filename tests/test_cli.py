"""Command-line interface: presets, single-shot estimation, inspection."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from fasloc.channel import (CorrelationModel, FasLayout, average_mu_squared,
                            build_covariance)
from fasloc.cli import _read_config, main
from fasloc.estimators import EstimatorConfig, solve_ls, solve_mle, solve_single_antenna
from fasloc.experiments import fig2_spec, run_experiment
from fasloc.forward_model import (Scene, predicted_rssi, read_measurements,
                                  simulate_measurements, write_measurements)

A_DEFAULT = 3.14557575653044e-4
README = Path(__file__).resolve().parents[1] / "README.md"
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
    rssi = predicted_rssi(lay, d, theta, scene.amp_const(0.125))
    write_measurements(path, rssi[np.newaxis])


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


@pytest.mark.parametrize("case", ["nan_reading", "nan_theta", "negative_amp_const",
                                  "infinite_bracket"])
def test_estimate_rejects_bad_input_with_exit_2(tmp_path, capsys, case):
    path = tmp_path / "caps.txt"
    make_noiseless_file(path)
    if case == "nan_reading":
        fields = path.read_text().strip().split(",")
        fields[3] = "nan"
        path.write_text(",".join(fields) + "\n")
    theta = "nan" if case == "nan_theta" else str(math.pi / 3.0)
    amp = "-3e-4" if case == "negative_amp_const" else str(A_DEFAULT)
    bracket = ["--bracket", "0.5", "inf"] if case == "infinite_bracket" else []
    assert run_cli("estimate", "--input", str(path), "--theta", theta,
                   "--n-ports", "12", "--aperture", "0.5", f"--amp-const={amp}",
                   *bracket) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error" in captured.err


def estimate_capture(tmp_path, method, capture=None):
    """Run `estimate` on a benchmark-scene capture; returns (rc, path)."""
    if capture is None:
        capture = CAPTURE_1 if method == "single" else CAPTURE_12
    path = tmp_path / "capture.txt"
    path.write_text(capture)
    n_ports = str(capture.splitlines()[0].count(","))
    rc = run_cli("estimate", "--input", str(path), "--theta", repr(math.pi / 3.0),
                 "--n-ports", n_ports, "--aperture", "0.5", "--spacing", "index",
                 "--amp-const", repr(A_DEFAULT), "--method", method)
    return rc, path


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
    layout = FasLayout(12, 0.5, 0.125, "index")
    cfg = EstimatorConfig(search_bracket=(0.01, 10000.0), tolerance=1e-6)
    link = (A_DEFAULT, 2.0)
    if method == "single":
        batch = solve_single_antenna(read_measurements(path, 1).reshape(1, -1), *link)
    else:
        rows = read_measurements(path, 12)
        assert rows.shape == (3, 12)
        mean = rows.mean(axis=0, keepdims=True)
        if method == "mle":
            batch = solve_mle(mean, layout, math.pi / 3.0, average_mu_squared(layout),
                              cfg, *link)
        else:
            batch = solve_ls(mean, layout, math.pi / 3.0, cfg, *link)
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


def test_inspect_stdout_is_pure_json(capsys):
    run_cli("inspect", "--n-ports", "4", "--aperture", "0.3")
    out = capsys.readouterr().out
    json.loads(out)  # parses as a single object
    assert out.count("\n") == 1
