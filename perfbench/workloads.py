"""Workload definitions and input generation for the fasloc benchmark.

Everything here depends on numpy and the standard library only, never on
the package under test: the inputs a run feeds to fasloc are a function of
the benchmark code and the workload seed alone.

Reference outputs (``refs/``) exist for a fixed pool of inputs: 16 sweep
base seeds per sweep family and 256 capture files per estimate method. The
workload seed picks the order in which a run walks its pool, so runs with
different seeds time different inputs while every output stays checkable.
"""

import json
import math
import random
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFS_DIR = BENCH_DIR / "refs"

DEFAULT_SEED = 1

# Minimum trial count ExperimentSpec accepts; a sweep is 7 or 19 axis points
# of this many paired trials.
SWEEP_TRIALS = 100
SWEEP_REF_SEEDS = tuple(range(1, 17))

WAVELENGTH = 0.125
SCENE = {"distance": 10.0, "bearing": math.pi / 3.0, "tx_power_dbm": 0.0,
         "gain_tx": 1.0, "gain_rx": 1.0, "path_loss_exp": 2.0}
FIG2_SNR_VALUES = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
FIG2_ESTIMATORS = ["fas_mle", "fas_ls", "multipoint_ls", "single_antenna"]
FIG3_W_VALUES = [round(0.10 + 0.05 * i, 2) for i in range(19)]

# Single-shot captures: a 12-port index-spaced sweep (or one port for the
# single-antenna method) of a transmitter at 0 dBm with unit antenna gains.
CAPTURE_POOL = 256
CAPTURE_POOL_SEED = 20251017
CAPTURE_METHODS = ("mle", "ls", "single")
CAPTURE_PORTS = 12
CAPTURE_APERTURE = 0.5
CAPTURE_CORRELATION = 0.2
AMP_CONST = math.sqrt(1e-3 * WAVELENGTH ** 2) / (4.0 * math.pi)

# Measured sweeps run with --workers 1. ``pool_check`` adds an unmeasured run
# of the first spec with that many workers, whose table must match the
# serial one byte for byte.
WORKLOADS = {
    "fig2_serial": {"kind": "sweep", "family": "fig2", "pool_check": 2},
    "fig3_fine": {"kind": "sweep", "family": "fig3", "pool_check": None},
    "estimate_cli": {"kind": "estimate"},
}


def sweep_config(family, base_seed):
    """Config-file sweep description of one preset at one base seed."""
    common = {
        "trials": SWEEP_TRIALS,
        "base_seed": int(base_seed),
        "correlation_model": "average-mu",
        "scene": dict(SCENE),
    }
    if family == "fig2":
        return {**common, "sweep_axis": "snr_db", "axis_values": FIG2_SNR_VALUES,
                "estimators": FIG2_ESTIMATORS,
                "layout": {"n_ports": 12, "aperture": 0.5,
                           "wavelength": WAVELENGTH, "spacing": "index"}}
    if family == "fig3":
        return {**common, "sweep_axis": "aperture_w", "axis_values": FIG3_W_VALUES,
                "estimators": ["fas_ls"], "snr_db": 10.0, "spacing_h": 0.01,
                "layout": {"wavelength": WAVELENGTH, "spacing": "index"}}
    raise ValueError(f"unknown sweep family {family!r}")


def sweep_order(seed):
    """Order in which a run with this workload seed walks the base seeds."""
    return random.Random(seed).sample(SWEEP_REF_SEEDS, len(SWEEP_REF_SEEDS))


def capture_rows(method, index):
    """RSSI snapshots (rows of dBm readings) and bearing of one capture."""
    method_id = CAPTURE_METHODS.index(method)
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence((CAPTURE_POOL_SEED, method_id, int(index)))))
    distance = rng.uniform(5.0, 40.0)
    theta = rng.uniform(0.3, 1.3)
    sigma = rng.uniform(0.5, 2.0)
    if method == "single":
        n_ports, n_snapshots = 1, int(rng.integers(1, 13))
    else:
        n_ports, n_snapshots = CAPTURE_PORTS, int(rng.integers(1, 5))
    offsets = np.arange(n_ports) * CAPTURE_APERTURE * WAVELENGTH
    d_sq = offsets ** 2 + distance ** 2 - 2.0 * offsets * distance * math.cos(theta)
    means = 30.0 + 20.0 * math.log10(AMP_CONST) - 10.0 * np.log10(d_sq)
    common = rng.standard_normal((n_snapshots, 1))
    own = rng.standard_normal((n_snapshots, n_ports))
    fading = sigma * (math.sqrt(CAPTURE_CORRELATION) * common
                      + math.sqrt(1.0 - CAPTURE_CORRELATION) * own)
    return means + fading, float(theta)


def write_capture(path, rows):
    """Write snapshots in fasloc's line format: index, then N readings."""
    with open(path, "w", encoding="utf-8") as fh:
        for t, row in enumerate(rows):
            fh.write(f"{t}," + ",".join(f"{v:.9g}" for v in row) + "\n")


def estimate_argv(method, path, theta):
    """`fasloc estimate` arguments for one capture file."""
    n_ports = 1 if method == "single" else CAPTURE_PORTS
    return ["estimate", "--input", str(path), "--theta", repr(theta),
            "--n-ports", str(n_ports), "--aperture", repr(CAPTURE_APERTURE),
            "--wavelength", repr(WAVELENGTH), "--amp-const", repr(AMP_CONST),
            "--method", method, "--spacing", "index"]


def write_inputs(workload, seed, work_dir):
    """Write a workload's input files under ``work_dir`` and return the
    manifest the workload process reads: the ordered list of operations."""
    spec = WORKLOADS[workload]
    work_dir = Path(work_dir)
    if spec["kind"] == "sweep":
        ops = []
        for base_seed in sweep_order(seed):
            path = work_dir / f"{spec['family']}_seed{base_seed}.json"
            path.write_text(json.dumps(sweep_config(spec["family"], base_seed)))
            ops.append({"config": str(path), "base_seed": base_seed})
        config = sweep_config(spec["family"], 0)
        manifest = {"workload": workload, "kind": "sweep", "family": spec["family"],
                    "pool_check": spec["pool_check"],
                    "trials": len(config["axis_values"]) * config["trials"],
                    "estimates": len(config["estimators"]), "ops": ops}
    else:
        ops = []
        for method in CAPTURE_METHODS:
            for index in range(CAPTURE_POOL):
                rows, theta = capture_rows(method, index)
                path = work_dir / f"capture_{method}_{index}.csv"
                write_capture(path, rows)
                ops.append({"method": method, "index": index,
                            "argv": estimate_argv(method, path, theta)})
        random.Random(seed).shuffle(ops)
        manifest = {"workload": workload, "kind": "estimate", "ops": ops}
    path = work_dir / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path
