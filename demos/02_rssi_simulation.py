#!/usr/bin/env python3
"""Forward model: scene geometry, mean RSSI profile, correlated snapshots.

Builds the default benchmark scene (transmitter 10 m away at 60 degrees,
0 dBm into unit-gain antennas at 2.4 GHz), prints the per-port profile, draws
correlated noisy snapshots, and round-trips them through the line-oriented
record format.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from fasloc import (CorrelationModel, FasLayout, RssiProfile, Scene, build_covariance,
                    read_measurements, simulate_measurements, snr_to_sigma2,
                    write_measurements)

lay = FasLayout(12, 0.5, wavelength=0.125, spacing="index")
scene = Scene(distance=10.0, bearing=math.pi / 3.0, tx_power_dbm=0.0)

print(f"link amplitude constant A = {scene.amp_const(lay.wavelength):.6e}")
print(f"port span {lay.span_m:.3f} m against range {scene.distance} m\n")

# the link model the estimators invert: bearing, A and the path-loss exponent
profile = RssiProfile(lay, scene.bearing, scene.amp_const(lay.wavelength), scene.path_loss_exp)
dist = np.sqrt(profile.dist_sq(np.array([scene.distance]))[0])
mean = profile.at(scene.distance)
print("port   distance (m)   mean RSSI (dBm)")
for i in range(lay.n_ports):
    print(f"{i:4d}   {dist[i]:12.6f}   {mean[i]:12.6f}")

snr_db = 10.0
sigma2 = snr_to_sigma2(snr_db)
print(f"\nSNR {snr_db:.0f} dB maps to shadow-fading variance {sigma2} dB^2")

cov = build_covariance(lay, CorrelationModel.AVERAGE_MU, sigma2)
snaps = simulate_measurements(lay, scene, cov, rng_seed=(2024, 0), n_snapshots=3)
for t, row in enumerate(snaps):
    print(f"snapshot {t}:", np.array2string(row, precision=3))

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "capture.txt"
    write_measurements(path, snaps)
    print(f"\nrecord file ({path.name}):")
    print(path.read_text().rstrip())
    back = read_measurements(path, lay.n_ports)
    drift = float(np.max(np.abs(snaps - back)))
    print(f"round-trip max drift: {drift:.2e} dB (9 significant digits kept)")
