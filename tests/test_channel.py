"""Correlation structures, covariance construction, and fading sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fasloc.channel as channel
from fasloc.channel import (CorrelationModel, FasLayout, ModelValidityError,
                            average_mu_squared, build_covariance, lag_correlations)
from fasloc.forward_model import Scene, simulate_measurements
from fasloc.specfun import bessel_j0

J0_PI = -0.3042421776440939          # J0(pi), high-precision series value
J0_PI_OVER_11 = 0.9797119759440423   # J0(pi/11)
MU2_12_05_ENDPOINT = 0.6001041903598960
MU2_12_05_INDEX = 0.0316788287373986
FAR_SCENE = Scene(distance=100.0, bearing=1.0)  # far field of every layout below
EPS = float(np.finfo(float).eps)


def fading(layout, cov, seed, n_snapshots):
    """The fading rows of simulate_measurements: its readings less the profile."""
    rows = simulate_measurements(layout, FAR_SCENE, cov, seed, n_snapshots)
    return rows - FAR_SCENE.profile(layout).at(FAR_SCENE.distance)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def dense_covariance(layout, model, sigma2):
    """build_covariance and factor() with the PSD check on eigvalsh, for the
    equicorrelated and independent models: (eig_min, entries, shift, factor)."""
    n = layout.n_ports
    r = np.eye(n)
    if model is CorrelationModel.AVERAGE_MU:
        r = np.full((n, n), average_mu_squared(layout))
        np.fill_diagonal(r, 1.0)
    eig_min = float(np.linalg.eigvalsh(r)[0])
    shift = -eig_min + channel._PSD_PAD if eig_min < 0.0 else 0.0
    entries = sigma2 * (r + shift * np.eye(n) if shift else r)
    try:
        factor = np.linalg.cholesky(entries)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(entries)
        factor = v * np.sqrt(np.clip(w, 0.0, None))
    return eig_min, entries, shift, factor


# ---------------------------------------------------------------- layouts

def test_layout_validation():
    with pytest.raises(ValueError):
        FasLayout(0, 0.5)
    with pytest.raises(ValueError):
        FasLayout(4, -0.1)
    with pytest.raises(ValueError):
        FasLayout(4, 0.5, -1.0)
    with pytest.raises(ValueError):
        FasLayout(4, 0.5, 0.125, "diagonal")
    FasLayout(channel.MAX_PORTS, 0.5)  # a layout alone builds no covariance
    with pytest.raises(ValueError, match="n_ports"):
        FasLayout(channel.MAX_PORTS + 1, 0.5)


@pytest.mark.parametrize("n_ports", [float("inf"), float("-inf"), float("nan"),
                                     np.float64("inf"), 2.5])
def test_layout_rejects_a_port_count_that_is_not_a_finite_integer(n_ports):
    with pytest.raises(ValueError, match="n_ports must be a positive integer"):
        FasLayout(n_ports, 0.5)


def test_port_offsets_endpoint_vs_index():
    lay = FasLayout(4, 0.5, wavelength=1.0, spacing="endpoint")
    np.testing.assert_allclose(lay.port_offsets_m(), [0.0, 0.125, 0.25, 0.375])
    lay = FasLayout(4, 0.5, wavelength=1.0, spacing="index")
    np.testing.assert_allclose(lay.port_offsets_m(), [0.0, 0.5, 1.0, 1.5])
    assert lay.span_m == 1.5


def test_correlation_step_requires_two_ports_for_endpoint():
    with pytest.raises(ValueError):
        FasLayout(1, 0.5, spacing="endpoint").correlation_step()
    assert FasLayout(1, 0.5, spacing="index").correlation_step() == 0.5


# ---------------------------------------------------------------- mu_k / rho
# mu_k (port k against port 0) and rho(k, l) in the correlation model's
# notation are both the lag entries of lag_correlations.

def test_mu_k_reference_port_is_unity():
    assert lag_correlations(FasLayout(12, 0.5))[0] == 1.0


def test_mu_k_two_ports_half_wavelength():
    assert lag_correlations(FasLayout(2, 0.5))[1] == pytest.approx(J0_PI, abs=1e-9)


def test_mu_k_last_port_of_twelve():
    # 2*pi*11*0.5/11 collapses to pi
    assert lag_correlations(FasLayout(12, 0.5))[11] == pytest.approx(J0_PI, abs=1e-9)


def test_mu_k_bounds_checked():
    assert lag_correlations(FasLayout(12, 0.5)).shape == (12,)
    with pytest.raises(ValueError):
        lag_correlations(FasLayout(1, 0.5, spacing="index"))


def test_rho_pair_adjacent_ports():
    assert lag_correlations(FasLayout(12, 0.5))[abs(5 - 4)] == pytest.approx(
        J0_PI_OVER_11, abs=1e-9)


def test_rho_pair_extreme_ports():
    assert lag_correlations(FasLayout(12, 0.5))[abs(0 - 11)] == pytest.approx(J0_PI, abs=1e-6)


def test_rho_pair_symmetric_and_lag_only():
    lay = FasLayout(9, 0.7)
    rng = np.random.default_rng(7)
    step = lay.correlation_step()
    rho = lag_correlations(lay)
    jakes = build_covariance(lay, CorrelationModel.JAKES_EXACT, 1.0).entries
    for _ in range(100):
        k, l = rng.integers(0, 9, size=2)
        if k == l:
            continue
        assert jakes[k, l] == jakes[l, k] == rho[abs(k - l)]
        assert rho[abs(k - l)] == bessel_j0(2 * np.pi * abs(k - l) * step)


# ---------------------------------------------------------------- average mu^2

def test_average_mu_squared_zero_aperture():
    assert average_mu_squared(FasLayout(2, 0.0)) == pytest.approx(1.0, abs=1e-12)


def test_average_mu_squared_two_ports():
    assert average_mu_squared(FasLayout(2, 0.5)) == pytest.approx(abs(J0_PI), abs=1e-6)


def test_average_mu_squared_regression_pins():
    assert average_mu_squared(FasLayout(12, 0.5)) == pytest.approx(
        MU2_12_05_ENDPOINT, abs=1e-9)
    assert average_mu_squared(FasLayout(12, 0.5, spacing="index")) == pytest.approx(
        MU2_12_05_INDEX, abs=1e-9)


def test_average_mu_squared_in_unit_interval():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        w = float(rng.uniform(0.0, 3.0))
        spacing = "index" if rng.random() < 0.5 else "endpoint"
        val = average_mu_squared(FasLayout(n, w, spacing=spacing))
        assert 0.0 <= val <= 1.0


def test_average_mu_squared_needs_two_ports():
    with pytest.raises(ValueError):
        average_mu_squared(FasLayout(1, 0.5, spacing="index"))


# ---------------------------------------------------------------- covariance

def test_independent_covariance_is_scaled_identity():
    cov = build_covariance(FasLayout(3, 0.5), CorrelationModel.INDEPENDENT, 4.0)
    np.testing.assert_array_equal(cov.entries, 4.0 * np.eye(3))
    assert not cov.regularized


def test_equicorrelated_two_port_matrix():
    cov = build_covariance(FasLayout(2, 0.5), CorrelationModel.AVERAGE_MU, 1.0)
    expected = abs(J0_PI)
    assert cov.entries[0, 1] == pytest.approx(expected, abs=1e-6)
    assert cov.entries[0, 1] > 0.0  # absolute value flips the negative raw sum
    np.testing.assert_array_equal(cov.entries, cov.entries.T)


def test_equicorrelated_eigenvalue_identity():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        w = float(rng.uniform(0.0, 2.0))
        lay = FasLayout(n, w)
        a = average_mu_squared(lay)
        cov = build_covariance(lay, CorrelationModel.AVERAGE_MU, 1.0)
        eigs = np.sort(np.linalg.eigvalsh(cov.entries))
        expected = np.sort(np.r_[np.full(n - 1, 1.0 - a), 1.0 + (n - 1) * a])
        np.testing.assert_allclose(eigs, expected, atol=1e-9)


def test_jakes_covariance_structure_and_psd():
    rng = np.random.default_rng(22)
    for _ in range(30):
        n = int(rng.integers(2, 24))
        w = float(rng.uniform(0.05, 2.0))
        spacing = "index" if rng.random() < 0.5 else "endpoint"
        lay = FasLayout(n, w, spacing=spacing)
        cov = build_covariance(lay, CorrelationModel.JAKES_EXACT, 2.0)
        np.testing.assert_array_equal(cov.entries, cov.entries.T)
        np.testing.assert_allclose(np.diag(cov.entries), 2.0 * (1.0 + cov.shift))
        # isotropic scattering correlation on a line is PSD up to rounding
        assert np.linalg.eigvalsh(cov.entries / 2.0 - cov.shift * np.eye(n))[0] >= -1e-12
        if n >= 3:
            assert cov.entries[0, 2] == pytest.approx(2.0 * lag_correlations(lay)[2], rel=1e-12)


def test_covariance_rejects_bad_sigma():
    with pytest.raises(ValueError):
        build_covariance(FasLayout(3, 0.5), CorrelationModel.INDEPENDENT, 0.0)
    with pytest.raises(ValueError):
        build_covariance(FasLayout(3, 0.5), CorrelationModel.INDEPENDENT, -1.0)


def test_psd_repair_overflow_raises(monkeypatch):
    # force an equicorrelated coefficient > 1: eigenvalue 1 - a < -1e-6
    monkeypatch.setattr(channel, "average_mu_squared", lambda layout: 1.2)
    with pytest.raises(ModelValidityError):
        build_covariance(FasLayout(4, 0.5), CorrelationModel.AVERAGE_MU, 1.0)


def test_fully_correlated_matrix_still_samples():
    # W = 0 gives the all-ones matrix; ports move together up to the rounding
    # of its eigenvector factor
    lay = FasLayout(6, 0.0)
    cov = build_covariance(lay, CorrelationModel.AVERAGE_MU, 1.0)
    draws = fading(lay, cov, 5, 4)
    spread = np.ptp(draws, axis=1)
    assert np.all(spread < 1e-4)


def test_a_singular_covariance_factors_through_its_eigenvectors():
    # two ports at W = 0: mu^2 = 1, the all-ones matrix needs no shift, and
    # Cholesky fails on it
    cov = build_covariance(FasLayout(2, 0.0), CorrelationModel.AVERAGE_MU, 1.0)
    assert cov.shift == 0.0 and np.array_equal(cov.entries, np.ones((2, 2)))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov.entries)
    factor = cov.factor()
    assert np.array_equal(factor @ factor.T, cov.entries)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(n_ports=st.integers(2, 64),
       aperture=st.just(0.0) | st.floats(0.0, 1e-6) | st.floats(0.0, 3.0),
       spacing=st.sampled_from(["endpoint", "index"]), sigma2=st.floats(1e-8, 1e4),
       model=st.sampled_from([CorrelationModel.AVERAGE_MU, CorrelationModel.INDEPENDENT]))
def test_the_closed_form_psd_check_keeps_the_dense_bits(n_ports, aperture, spacing, sigma2,
                                                         model):
    # the spectrum of (1 - a)I + a*11^T is 1 - a and 1 + (N - 1)a, of I is 1
    layout = FasLayout(n_ports, aperture, spacing=spacing)
    eig_min, entries, shift, factor = dense_covariance(layout, model, sigma2)
    a = average_mu_squared(layout) if model is CorrelationModel.AVERAGE_MU else 0.0
    assert abs(min(1.0 - a, 1.0 + (n_ports - 1) * a) - eig_min) <= 8 * n_ports * EPS
    cov = build_covariance(layout, model, sigma2)
    assert cov.raw_eigenvalues is None
    if eig_min >= 0.0:
        assert cov.shift == shift == 0.0
        assert same_bits(cov.entries, entries) and same_bits(cov.factor(), factor)
    else:  # a rounding-level negative eigenvalue of R, which the exact spectrum has not
        assert cov.shift == 0.0 and not cov.regularized


@pytest.mark.parametrize("n_ports", [3, 12, 100])
def test_a_fully_correlated_matrix_is_not_repaired(n_ports):
    # W = 0: mu^2 = 1 and the exact smallest eigenvalue is 0, where eigvalsh
    # reads about -1.5e-15; Cholesky fails and the eigenvector factor serves
    cov = build_covariance(FasLayout(n_ports, 0.0), CorrelationModel.AVERAGE_MU, 1.0)
    assert cov.shift == 0.0 and not cov.regularized
    assert np.array_equal(cov.entries, np.ones((n_ports, n_ports)))
    factor = cov.factor()
    np.testing.assert_allclose(factor @ factor.T, cov.entries, rtol=0, atol=8 * n_ports * EPS)


# ---------------------------------------------------------------- sampling

def test_sampling_is_seed_deterministic():
    lay = FasLayout(5, 0.4)
    cov = build_covariance(lay, CorrelationModel.AVERAGE_MU, 0.5)
    a = fading(lay, cov, (3, 1, 4), 7)
    b = fading(lay, cov, (3, 1, 4), 7)
    np.testing.assert_array_equal(a, b)
    c = fading(lay, cov, (3, 1, 5), 7)
    assert not np.array_equal(a, c)


def test_iid_sample_covariance():
    lay = FasLayout(2, 0.5)
    cov = build_covariance(lay, CorrelationModel.INDEPENDENT, 4.0)
    draws = fading(lay, cov, 99, 100_000)
    sample_cov = np.cov(draws.T)
    np.testing.assert_allclose(sample_cov, 4.0 * np.eye(2), atol=0.05 * 4.0)


def test_equicorrelated_sample_correlation_matches_mu2():
    lay = FasLayout(12, 0.5)
    a = average_mu_squared(lay)
    cov = build_covariance(lay, CorrelationModel.AVERAGE_MU, 1.0)
    draws = fading(lay, cov, 1234, 100_000)
    corr = np.corrcoef(draws.T)
    off = corr[~np.eye(12, dtype=bool)]
    assert np.all(np.abs(off - a) <= 0.02)


def test_sample_covariance_frobenius_concentration():
    lay = FasLayout(12, 0.5)
    cov = build_covariance(lay, CorrelationModel.JAKES_EXACT, 1.0)
    n_draws = 100_000
    draws = fading(lay, cov, 4321, n_draws)
    emp = draws.T @ draws / n_draws
    dist = np.linalg.norm(emp - cov.entries)
    assert dist <= 5.0 / np.sqrt(n_draws) * 12


def test_paired_draws_share_underlying_normals():
    lay = FasLayout(8, 0.5)
    cov_corr = build_covariance(lay, CorrelationModel.AVERAGE_MU, 0.25)
    cov_iid = build_covariance(lay, CorrelationModel.INDEPENDENT, 0.25)
    seed = (7, 0, 42)
    x_corr = fading(lay, cov_corr, seed, 3)
    x_iid = fading(lay, cov_iid, seed, 3)
    z = x_iid / 0.5  # identity factor is sqrt(sigma2) * I
    np.testing.assert_allclose(x_corr, z @ cov_corr.factor().T, rtol=0, atol=1e-12)


def test_sampling_accepts_int_and_tuple_seeds():
    lay = FasLayout(3, 0.5)
    cov = build_covariance(lay, CorrelationModel.INDEPENDENT, 1.0)
    a = fading(lay, cov, 5, 1)
    b = fading(lay, cov, 5, 1)
    np.testing.assert_array_equal(a, b)
    c = fading(lay, cov, (5, 0), 1)
    assert not np.array_equal(a, c)
