"""Geometry, mean-RSSI profile, noisy simulation, and record format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fasloc.channel import CorrelationModel, FasLayout, build_covariance
from fasloc.forward_model import (RssiProfile, Scene, read_measurements,
                                  simulate_measurements, snr_to_sigma2,
                                  write_measurements)

# Independently computed link constant for 0 dBm, unit gains, 0.125 m:
# A = sqrt(1e-3 * 0.125^2) / (4 pi)
A_DEFAULT = 3.14557575653044e-4
M0_DEFAULT = -60.0459970202808  # mean RSSI at d = 10 m under that link


def default_scene(**kw):
    base = dict(distance=10.0, bearing=math.pi / 3.0, tx_power_dbm=0.0,
                gain_tx=1.0, gain_rx=1.0, path_loss_exp=2.0)
    base.update(kw)
    return Scene(**base)


def port_distances(lay, scene):
    """Distance from each port to the transmitter, from RssiProfile.dist_sq."""
    return np.sqrt(scene.profile(lay).dist_sq(np.array([scene.distance]))[0])


def mean_profile(lay, scene):
    """Noiseless mean RSSI at each port of the layout."""
    return scene.profile(lay).at(scene.distance)


# ---------------------------------------------------------------- scene

def test_scene_validation():
    with pytest.raises(ValueError):
        default_scene(distance=0.0)
    with pytest.raises(ValueError):
        default_scene(path_loss_exp=1.5)
    with pytest.raises(ValueError):
        default_scene(path_loss_exp=6.5)
    with pytest.raises(ValueError):
        default_scene(gain_tx=0.0)


def test_amp_const_value():
    assert default_scene().amp_const(0.125) == pytest.approx(A_DEFAULT, rel=1e-12)


# ---------------------------------------------------------------- geometry

def test_reference_port_distance_is_scene_distance():
    lay = FasLayout(12, 0.5, 0.125)
    assert port_distances(lay, default_scene())[0] == 10.0


def test_broadside_distance_pythagorean():
    lay = FasLayout(12, 0.5, wavelength=1.0)
    scene = default_scene(bearing=math.pi / 2.0)
    # offset of port 3 is 3*0.5/12 = 0.125 m; cos term vanishes
    expected = math.sqrt(10.0 ** 2 + 0.125 ** 2)
    assert port_distances(lay, scene)[3] == pytest.approx(expected, abs=1e-12)


def test_collinear_distance():
    lay = FasLayout(12, 0.5, wavelength=1.0)
    scene = default_scene(bearing=0.0)
    # last port offset 11*0.5/12 m, directly toward the transmitter
    assert port_distances(lay, scene)[11] == pytest.approx(10.0 - 11 * 0.5 / 12, abs=1e-9)


def test_broadside_distances_non_decreasing():
    lay = FasLayout(16, 0.8, wavelength=1.0)
    scene = default_scene(bearing=math.pi / 2.0)
    dists = port_distances(lay, scene)
    assert all(b >= a for a, b in zip(dists, dists[1:]))


def test_degenerate_geometry_rejected():
    lay = FasLayout(2, 1.0, wavelength=1.0, spacing="index")
    scene = default_scene(distance=1.0, bearing=0.0)  # transmitter on port 1
    with pytest.raises(ValueError):
        port_distances(lay, scene)
    with pytest.raises(ValueError):
        mean_profile(lay, scene)


@pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 2.0, 2.5, -3.0])
def test_pole_is_the_largest_singularity_of_the_dropped_term_derivative(theta):
    lay = FasLayout(8, 0.5, 0.125, spacing="index")
    profile = RssiProfile(lay, theta, A_DEFAULT, 2.0)
    assert profile.pole == pytest.approx(max(2.0 * 7 * 0.0625 * math.cos(theta), 0.0),
                                         abs=1e-15)
    if profile.pole > 0.0:
        with pytest.raises(ValueError, match="singular"):
            profile.dropped_term_derivative(np.array([profile.pole]))


# ---------------------------------------------------------------- mean rssi

def test_mean_rssi_at_reference_amplitude():
    scene = default_scene(distance=A_DEFAULT)
    lay = FasLayout(1, 0.0, 0.125, spacing="index")
    assert mean_profile(lay, scene)[0] == pytest.approx(30.0, abs=1e-9)


def test_mean_rssi_one_decade():
    scene = default_scene(distance=10.0 * A_DEFAULT)
    lay = FasLayout(1, 0.0, 0.125, spacing="index")
    assert mean_profile(lay, scene)[0] == pytest.approx(10.0, abs=1e-9)


def test_mean_rssi_benchmark_scene_value():
    lay = FasLayout(12, 0.5, 0.125)
    assert mean_profile(lay, default_scene())[0] == pytest.approx(M0_DEFAULT, abs=1e-9)


def test_general_path_loss_exponent():
    # one decade of distance costs 10*n dB
    lay = FasLayout(1, 0.0, 0.125, spacing="index")
    near = default_scene(distance=2.0, path_loss_exp=4.0)
    far = default_scene(distance=20.0, path_loss_exp=4.0)
    drop = mean_profile(lay, near)[0] - mean_profile(lay, far)[0]
    assert drop == pytest.approx(40.0, abs=1e-9)


def test_mean_rssi_decreasing_in_distance():
    lay = FasLayout(1, 0.0, 0.125, spacing="index")
    vals = [mean_profile(lay, default_scene(distance=d))[0] for d in (1, 5, 10, 50, 200)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_path_loss_two_matches_explicit_log_ratio_form():
    rng = np.random.default_rng(31)
    lay = FasLayout(6, 0.5, 0.125)
    for _ in range(1000):
        scene = default_scene(distance=float(rng.uniform(0.5, 500.0)),
                              bearing=float(rng.uniform(0.0, math.pi)),
                              tx_power_dbm=float(rng.uniform(-20.0, 20.0)))
        i = int(rng.integers(0, 6))
        d_i = port_distances(lay, scene)[i]
        a = scene.amp_const(lay.wavelength)
        assert mean_profile(lay, scene)[i] == pytest.approx(
            30.0 - 20.0 * math.log10(d_i / a), abs=1e-9)


def test_profile_vectorizes_over_distance():
    lay = FasLayout(4, 0.5, 0.125)
    profile = default_scene().profile(lay)
    block = profile.at(np.array([5.0, 10.0, 20.0]))
    assert block.shape == (3, 4)
    single = profile.at(10.0)
    np.testing.assert_array_equal(block[1], single)


# ---------------------------------------------------------------- snr map

def test_snr_convention_anchors():
    assert snr_to_sigma2(0.0) == 1.0
    assert snr_to_sigma2(10.0) == pytest.approx(0.1, rel=1e-12)
    assert snr_to_sigma2(20.0) == pytest.approx(0.01, rel=1e-12)


@pytest.mark.parametrize("snr_db", [-4000.0, 4000.0, -10 ** 400, math.nan])
def test_snr_without_a_positive_finite_variance_raises(snr_db):
    with pytest.raises(ValueError, match="snr_db"):
        snr_to_sigma2(snr_db)


# ---------------------------------------------------------------- simulation

def test_noiseless_limit():
    lay = FasLayout(12, 0.5, 0.125)
    scene = default_scene()
    cov = build_covariance(lay, CorrelationModel.AVERAGE_MU, 1e-12)
    x = simulate_measurements(lay, scene, cov, 7, 1)[0]
    means = mean_profile(lay, scene)
    assert np.max(np.abs(x - means)) <= 1e-4


def test_dimension_mismatch_rejected():
    lay = FasLayout(12, 0.5, 0.125)
    cov = build_covariance(FasLayout(6, 0.5, 0.125), CorrelationModel.INDEPENDENT, 1.0)
    with pytest.raises(ValueError):
        simulate_measurements(lay, default_scene(), cov, 7, 1)


def test_single_port_baseline_stream():
    lay = FasLayout(1, 0.0, 0.125, spacing="index")
    cov = build_covariance(lay, CorrelationModel.INDEPENDENT, 0.5)
    snaps = simulate_measurements(lay, default_scene(), cov, 7, 24)
    assert snaps.shape == (24, 1)


@pytest.mark.parametrize("n_snapshots", [2.5, True, 0, -1])
def test_simulation_rejects_a_snapshot_count_that_is_not_a_positive_integer(n_snapshots):
    lay = FasLayout(12, 0.5, 0.125)
    cov = build_covariance(lay, CorrelationModel.INDEPENDENT, 1.0)
    with pytest.raises(ValueError, match="n_snapshots"):
        simulate_measurements(lay, default_scene(), cov, 7, n_snapshots)


SEED_VALUES = st.integers(0, 2 ** 70)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(seed=SEED_VALUES | st.lists(SEED_VALUES, max_size=4).map(tuple),
       n_snapshots=st.integers(1, 6), n_ports=st.integers(1, 16))
def test_simulation_draws_numpy_philox_streams(seed, n_snapshots, n_ports):
    # an int seed s is the tuple (s,); the stream's entropy leads with the length
    values = seed if isinstance(seed, tuple) else (seed,)
    want = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        (len(values), *values)))).standard_normal((n_snapshots, n_ports))
    lay = FasLayout(n_ports, 0.5, 0.125)
    cov = build_covariance(lay, CorrelationModel.INDEPENDENT, 1.0)
    means = mean_profile(lay, default_scene())
    got = simulate_measurements(lay, default_scene(), cov, seed, n_snapshots)
    np.testing.assert_array_equal(got - means, (means + want) - means)


def test_simulation_deterministic_under_seed():
    lay = FasLayout(12, 0.5, 0.125)
    cov = build_covariance(lay, CorrelationModel.AVERAGE_MU, 0.1)
    a = simulate_measurements(lay, default_scene(), cov, (1, 2), 1)[0]
    b = simulate_measurements(lay, default_scene(), cov, (1, 2), 1)[0]
    np.testing.assert_array_equal(a, b)


def test_iid_residual_variance():
    lay = FasLayout(3, 0.5, 0.125)
    scene = default_scene()
    sigma2 = 0.25
    cov = build_covariance(lay, CorrelationModel.INDEPENDENT, sigma2)
    snaps = simulate_measurements(lay, scene, cov, 11, 100_000)
    resid = snaps - mean_profile(lay, scene)
    var = resid.var(axis=0)
    assert np.all(np.abs(var - sigma2) <= 0.05 * sigma2)


def test_correlated_residual_correlation():
    lay = FasLayout(12, 0.5, 0.125)
    scene = default_scene()
    from fasloc.channel import average_mu_squared
    a = average_mu_squared(lay)
    cov = build_covariance(lay, CorrelationModel.AVERAGE_MU, 1.0)
    snaps = simulate_measurements(lay, scene, cov, 13, 100_000)
    resid = snaps - mean_profile(lay, scene)
    corr = np.corrcoef(resid.T)
    off = corr[~np.eye(12, dtype=bool)]
    assert np.all(np.abs(off - a) <= 0.02)


def test_near_field_warns():
    lay = FasLayout(24, 0.5, 0.125, spacing="index")  # span 1.44 m
    cov = build_covariance(lay, CorrelationModel.INDEPENDENT, 1.0)
    with pytest.warns(UserWarning) as record:
        simulate_measurements(lay, default_scene(), cov, 7, 1)
    assert [w.filename for w in record] == [__file__]  # points at the caller


# ---------------------------------------------------------------- records

def test_record_round_trip(tmp_path):
    lay = FasLayout(12, 0.5, 0.125)
    cov = build_covariance(lay, CorrelationModel.AVERAGE_MU, 0.1)
    snaps = simulate_measurements(lay, default_scene(), cov, 3, 5)
    path = tmp_path / "caps.txt"
    write_measurements(path, snaps)
    lines = path.read_text().splitlines()
    assert len(lines) == 5 and lines[0].startswith("0,")
    back = read_measurements(path, lay.n_ports)
    assert len(back) == 5
    np.testing.assert_allclose(back, snaps, rtol=1e-8)


def test_record_wrong_port_count(tmp_path):
    lay = FasLayout(12, 0.5, 0.125)
    cov = build_covariance(lay, CorrelationModel.AVERAGE_MU, 0.1)
    write_measurements(tmp_path / "caps.txt", simulate_measurements(
        lay, default_scene(), cov, 3, 2))
    with pytest.raises(ValueError):
        read_measurements(tmp_path / "caps.txt", 6)


def test_record_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0,1.0,two,3.0\n")
    with pytest.raises(ValueError):
        read_measurements(path, 3)
    (tmp_path / "empty.txt").write_text("")
    with pytest.raises(ValueError):
        read_measurements(tmp_path / "empty.txt", 3)
