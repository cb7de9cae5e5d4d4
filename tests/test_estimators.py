"""Weighted-ML root solver, least squares, and the single-antenna inversion."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from fasloc.channel import (CorrelationModel, FasLayout, average_mu_squared,
                            build_covariance)
from fasloc.estimators import (MAX_ITERATIONS, EstimatorConfig, _SCAN_POINTS,
                               kappa_constant, solve_ls, solve_mle, solve_single_antenna)
from fasloc.forward_model import RssiProfile, Scene, simulate_measurements

LN10 = math.log(10.0)


def scene_at(d=10.0, theta=math.pi / 3.0, **kw):
    return Scene(distance=d, bearing=theta, **kw)


def noiseless_rows(layout, scene):
    """The noiseless readings of the scene as a batch of one row."""
    return scene.profile(layout).at(scene.distance)[np.newaxis]


def mle(X, layout, scene, a, cfg):
    return solve_mle(X, scene.profile(layout), a, cfg)


def ls(X, layout, scene, cfg, amp_const=None):
    if amp_const is None:
        amp_const = scene.amp_const(layout.wavelength)
    return solve_ls(X, RssiProfile(layout, scene.bearing, amp_const, scene.path_loss_exp), cfg)


def one_port(amp_const, path_loss_exp=2.0):
    """The link model of a lone antenna, as the single-antenna solver takes it."""
    return RssiProfile(FasLayout(1, 0.0, 0.125), 0.0, amp_const, path_loss_exp)


def weight_derivs(layout, d, theta):
    """The ML weights' dropped-term dM_i/dd over all ports at one distance."""
    return RssiProfile(layout, theta, 1.0, 2.0).dropped_term_derivative(np.array([d]))[0]


def weights(layout, a, d, theta):
    """ML weights b_i = dM_i/dd - kappa * sum_j dM_j/dd, and kappa."""
    k = kappa_constant(a, layout.n_ports)
    derivs = weight_derivs(layout, d, theta)
    return derivs - k * derivs.sum(), k


def mean_at(layout, scene, i):
    return scene.profile(layout).at(scene.distance)[i]


def cfg_for(scene, **kw):
    return EstimatorConfig(search_bracket=(scene.distance / 20.0,
                                           scene.distance * 20.0), **kw)


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(search_bracket=(5.0, 5.0))
    with pytest.raises(ValueError):
        EstimatorConfig(search_bracket=(-1.0, 5.0))
    with pytest.raises(ValueError):
        EstimatorConfig(search_bracket=(0.5, 200.0), tolerance=0.0)
    with pytest.raises(TypeError):
        EstimatorConfig()  # the bracket has no default


# ---------------------------------------------------------------- derivative

def test_reference_port_derivative():
    lay = FasLayout(12, 0.5, 0.125)
    d = 10.0
    assert weight_derivs(lay, d, math.pi / 3.0)[0] == pytest.approx(-20.0 / (d * LN10),
                                                                     rel=1e-12)


def test_broadside_derivative_matches_reference_port():
    lay = FasLayout(12, 0.5, 0.125)
    d = 10.0
    derivs = weight_derivs(lay, d, math.pi / 2.0)
    for i in (1, 5, 11):
        assert derivs[i] == pytest.approx(-20.0 / (d * LN10), rel=1e-12)


def test_derivative_singularity_rejected():
    lay = FasLayout(2, 0.5, wavelength=1.0, spacing="index")  # offset 0.5 m
    with pytest.raises(ValueError):
        weight_derivs(lay, 1.0, 0.0)  # d equals twice the projected offset of port 1


def test_derivative_against_finite_difference():
    # the dropped-term form agrees with a central finite difference of the
    # exact profile up to the analytically known gap
    lay = FasLayout(12, 0.5, wavelength=1.0)
    scene = scene_at(d=10.0, theta=0.0)
    i, h = 5, 1e-5
    fd = (mean_at(lay, scene_at(d=10.0 + h, theta=0.0), i)
          - mean_at(lay, scene_at(d=10.0 - h, theta=0.0), i)) / (2 * h)
    approx = weight_derivs(lay, 10.0, 0.0)[i]
    off = lay.port_offsets_m()[i]
    d_i_sq = off ** 2 + 100.0 - 2 * off * 10.0
    exact = -(20.0 / LN10) * (10.0 - off) / d_i_sq
    gap = abs(approx - exact)
    assert abs(approx - fd) <= gap + 1e-4


def test_derivative_finite_difference_sweep():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        n = int(rng.integers(2, 16))
        w = float(rng.uniform(0.05, 1.0))
        lam = float(rng.uniform(0.05, 0.3))
        lay = FasLayout(n, w, lam, spacing="index" if rng.random() < 0.5 else "endpoint")
        d = float(rng.uniform(max(5.0 * lay.span_m, 1.0), 50.0))
        theta = float(rng.uniform(0.2, math.pi - 0.2))
        i = int(rng.integers(0, n))
        h = 1e-5 * d
        hi = mean_at(lay, scene_at(d=d + h, theta=theta), i)
        lo = mean_at(lay, scene_at(d=d - h, theta=theta), i)
        fd = (hi - lo) / (2 * h)
        approx = weight_derivs(lay, d, theta)[i]
        off = lay.port_offsets_m()[i]
        d_i_sq = off ** 2 + d * d - 2 * off * d * math.cos(theta)
        exact = -(20.0 / LN10) * (d - off * math.cos(theta)) / d_i_sq
        gap = abs(approx - exact)
        assert abs(approx - fd) <= gap + 1e-3 * abs(exact)


# ---------------------------------------------------------------- weights

def test_kappa_values():
    assert kappa_constant(0.0, 12) == 0.0
    assert kappa_constant(0.5, 2) == pytest.approx(0.25 / (0.75 * 1.25), abs=1e-9)
    with pytest.raises(ValueError):
        kappa_constant(1.0, 12)
    with pytest.raises(ValueError):
        kappa_constant(-0.1, 12)


def test_weights_reduce_to_derivatives_without_correlation():
    lay = FasLayout(12, 0.5, 0.125)
    b, kappa = weights(lay, 0.0, 10.0, math.pi / 3.0)
    assert kappa == 0.0
    np.testing.assert_array_equal(b, weight_derivs(lay, 10.0, math.pi / 3.0))


def test_weight_sum_identity():
    lay = FasLayout(12, 0.5, 0.125)
    a = average_mu_squared(lay)
    b, kappa = weights(lay, a, 10.0, math.pi / 3.0)
    derivs = weight_derivs(lay, 10.0, math.pi / 3.0)
    assert b.sum() == pytest.approx((1.0 - 12 * kappa) * derivs.sum(), abs=1e-12)


# ---------------------------------------------------------------- weighted ML

def test_mle_recovers_noiseless_distance():
    lay = FasLayout(12, 0.5, 0.125, spacing="index")
    scene = scene_at()
    a = average_mu_squared(lay)
    est = mle(noiseless_rows(lay, scene), lay, scene, a, cfg_for(scene))
    assert est.converged[0]
    assert est.d_hat[0] == pytest.approx(10.0, abs=1e-5)


def test_mle_rejects_bad_correlation():
    lay = FasLayout(4, 0.5, 0.125)
    scene = scene_at()
    X = noiseless_rows(lay, scene)
    with pytest.raises(ValueError):
        mle(X, lay, scene, 1.0, cfg_for(scene))


def test_mle_degenerates_to_uncorrelated_solver():
    # a = 0 must give bit-identical results to a dedicated independent-noise
    # implementation of the same scan + Brent pipeline
    lay = FasLayout(12, 0.5, 0.125, spacing="index")
    scene = scene_at()
    cov = build_covariance(lay, CorrelationModel.AVERAGE_MU, 0.1)
    cfg = cfg_for(scene)
    offsets = lay.port_offsets_m()
    amp = scene.amp_const(lay.wavelength)
    ct = math.cos(scene.bearing)

    def reference_root(x):
        def g(d):
            di_sq = offsets ** 2 + d * d - 2 * offsets * d * ct
            model = 30.0 + 20.0 * math.log10(amp) - 10.0 * np.log10(di_sq)
            derivs = -(10.0 / LN10) * (2 * d - 2 * offsets * ct) / (d * d - 2 * offsets * d * ct)
            return float(np.sum(derivs * (x - model)))
        # same singularity clipping as the production solver: the derivative
        # blows up at d = 2*offset*cos(theta), which is a pole, not a root
        pole = 2.0 * float(np.max(offsets)) * ct
        lo_eff = max(cfg.search_bracket[0], pole * (1.0 + 1e-9) + 1e-12)
        grid = np.geomspace(lo_eff, cfg.search_bracket[1], _SCAN_POINTS)
        gv = np.array([g(v) for v in grid])
        lo, hi = next((grid[i], grid[i + 1]) for i in range(len(grid) - 1)
                      if gv[i] * gv[i + 1] < 0)
        return brentq(g, lo, hi, xtol=cfg.tolerance, maxiter=MAX_ITERATIONS)

    for t in range(10):
        X = simulate_measurements(lay, scene, cov, (9, 0, t), 1)
        mine = mle(X, lay, scene, 0.0, cfg)
        assert mine.converged[0]
        assert abs(mine.d_hat[0] - reference_root(X[0])) <= 1e-9


def test_mle_root_is_locally_stationary():
    lay = FasLayout(12, 0.5, 0.125, spacing="index")
    scene = scene_at()
    a = average_mu_squared(lay)
    cov = build_covariance(lay, CorrelationModel.AVERAGE_MU, 0.1)
    cfg = cfg_for(scene)
    X = simulate_measurements(lay, scene, cov, (5, 5), 1)
    d_hat = mle(X, lay, scene, a, cfg).d_hat[0]

    def g(d):
        b, _ = weights(lay, a, d, scene.bearing)
        model = scene.profile(lay).at(d)
        return float(b @ (X[0] - model))

    assert abs(g(d_hat)) <= abs(g(d_hat - 10 * cfg.tolerance))
    assert abs(g(d_hat)) <= abs(g(d_hat + 10 * cfg.tolerance))


def test_weighted_sum_identity_on_noiseless_data():
    lay = FasLayout(12, 0.5, 0.125, spacing="index")
    scene = scene_at()
    a = average_mu_squared(lay)
    x = noiseless_rows(lay, scene)[0]
    b, _ = weights(lay, a, scene.distance, scene.bearing)
    model = scene.profile(lay).at(scene.distance)
    assert b @ x == pytest.approx(b @ model, abs=1e-9)


def test_mle_without_root_reports_non_convergence():
    lay = FasLayout(12, 0.5, 0.125, spacing="index")
    scene = scene_at()
    a = average_mu_squared(lay)
    X = noiseless_rows(lay, scene)
    cfg = EstimatorConfig(search_bracket=(50.0, 200.0))  # excludes the truth
    est = mle(X, lay, scene, a, cfg)
    assert not est.converged[0]
    assert 50.0 <= est.d_hat[0] <= 200.0
    # its objective value is g at the estimate
    b, _ = weights(lay, a, est.d_hat[0], scene.bearing)
    g = float(b @ (X[0] - scene.profile(lay).at(est.d_hat[0])))
    assert est.objective_value[0] == pytest.approx(g, rel=1e-12)


def test_mle_frozen_weights_mode():
    lay = FasLayout(12, 0.5, 0.125, spacing="index")
    scene = scene_at()
    a = average_mu_squared(lay)
    cov = build_covariance(lay, CorrelationModel.AVERAGE_MU, 0.1)
    X = simulate_measurements(lay, scene, cov, (8, 1), 1)
    sc_cfg = cfg_for(scene)
    fz_cfg = cfg_for(scene, frozen_weights=True)
    e_sc = mle(X, lay, scene, a, sc_cfg)
    e_fz = mle(X, lay, scene, a, fz_cfg)
    assert e_sc.converged[0] and e_fz.converged[0]
    # the two weight policies agree on clean data to well below the noise scale
    assert abs(e_sc.d_hat[0] - e_fz.d_hat[0]) < 0.05 * scene.distance


# ---------------------------------------------------------------- least squares

def test_ls_recovers_noiseless_distance():
    lay = FasLayout(12, 0.5, 0.125, spacing="index")
    scene = scene_at()
    est = ls(noiseless_rows(lay, scene), lay, scene, cfg_for(scene))
    assert est.converged[0]
    assert est.d_hat[0] == pytest.approx(10.0, abs=1e-5)


def test_single_port_ls_matches_closed_form():
    lay = FasLayout(1, 0.0, 0.125, spacing="index")
    scene = scene_at()
    cov = build_covariance(lay, CorrelationModel.INDEPENDENT, 0.1)
    X = simulate_measurements(lay, scene, cov, (2, 2), 1)
    cfg = cfg_for(scene)
    amp = scene.amp_const(lay.wavelength)
    closed = amp * 10.0 ** ((30.0 - X[0, 0]) / 20.0)
    assert ls(X, lay, scene, cfg).d_hat[0] == pytest.approx(
        closed, abs=10 * cfg.tolerance)


def test_ls_shift_matches_amplitude_rescale():
    # adding c dB to every reading moves the minimizer exactly as scaling
    # the amplitude constant by 10^(c/20)
    lay = FasLayout(12, 0.5, 0.125, spacing="index")
    scene = scene_at()
    cov = build_covariance(lay, CorrelationModel.AVERAGE_MU, 0.1)
    X = simulate_measurements(lay, scene, cov, (3, 9), 1)
    cfg = cfg_for(scene)
    c = 6.0
    amp = scene.amp_const(lay.wavelength)
    e_shift = ls(X + c, lay, scene, cfg, amp_const=amp)
    e_scale = ls(X, lay, scene, cfg, amp_const=amp * 10.0 ** (-c / 20.0))
    assert e_shift.d_hat[0] == pytest.approx(e_scale.d_hat[0], abs=10 * cfg.tolerance)


def test_ls_flags_bracket_that_excludes_minimum():
    lay = FasLayout(12, 0.5, 0.125, spacing="index")
    scene = scene_at()
    X = noiseless_rows(lay, scene)
    est = ls(X, lay, scene, EstimatorConfig(search_bracket=(50.0, 200.0)))
    assert not est.converged[0]


@pytest.mark.parametrize("n_ports", [8, 20, 50, 100])
@pytest.mark.parametrize("end", [0, -1])
def test_ls_converges_on_noiseless_readings_at_a_bracket_end(n_ports, end):
    # the objective is exactly 0 at the end; its scan table value, from
    # expanded sums, can round below 0 by more than the 1e-12 endpoint slack.
    # Two rows, so the batch takes the expanded sums and not the one-row scan.
    lay = FasLayout(n_ports, 0.5, 0.125, spacing="index")
    amp = 3.14557575653044e-4
    ends = (2.0, 80.0)
    profile = RssiProfile(lay, 1.0, amp, 2.0)
    X = np.array([profile.at(ends[end]), profile.at(ends[end - 1])])
    est = solve_ls(X, profile, EstimatorConfig(search_bracket=ends))
    for k, d_end in enumerate((ends[end], ends[end - 1])):
        assert (est.d_hat[k], est.converged[k], est.objective_value[k]) == (d_end, True, 0.0)


def test_link_model_rejects_bad_link_constants_and_bearing():
    lay = FasLayout(3, 0.5, 0.125)
    bad = [(1.0, amp, n_exp, field) for amp, n_exp, field in (
        (0.0, 2.0, "amp_const"), (-3e-4, 2.0, "amp_const"), (math.inf, 2.0, "amp_const"),
        (3e-4, 0.0, "path_loss_exp"), (3e-4, math.nan, "path_loss_exp"))]
    bad += [(theta, 3e-4, 2.0, "theta") for theta in (math.nan, math.inf, -math.inf)]
    for theta, amp, n_exp, field in bad:
        with pytest.raises(ValueError, match=field):
            RssiProfile(lay, theta, amp, n_exp)
    X = np.array([[-60.0, -60.1, -59.9]])
    cfg = EstimatorConfig(search_bracket=(0.1, 1000.0))
    est = solve_ls(X, RssiProfile(lay, 1.0, 3.14557575653044e-4, 2.0), cfg)
    assert est.d_hat[0] > 0.0


def test_solvers_take_array_scalar_bracket_ends():
    lay = FasLayout(3, 0.5, 0.125)
    X = np.array([[-60.0, -60.1, -59.9], [-55.0, -55.2, -54.9]])
    profile = RssiProfile(lay, 1.0, 3.14557575653044e-4, 2.0)
    plain = EstimatorConfig(search_bracket=(0.1, 1000.0))
    arrays = EstimatorConfig(search_bracket=(np.array(0.1), np.array(1000.0)))
    for solve in (lambda cfg: solve_ls(X, profile, cfg),
                  lambda cfg: solve_mle(X, profile, 0.3, cfg)):
        want, got = solve(plain), solve(arrays)
        for field in ("d_hat", "converged", "iterations", "objective_value"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def test_solvers_reject_a_model_beyond_the_reading_limit():
    # on the bracket (0.1, 1000) the model is 30 + 20 log10(A) - 5 n log10(d_i^2),
    # with log10(d_i^2) up to 6: n = 3e98 keeps it inside 1e100 dBm
    lay = FasLayout(3, 0.5, 0.125)
    X = np.array([[-60.0, -60.1, -59.9]])
    cfg = EstimatorConfig(search_bracket=(0.1, 1000.0))
    frozen = EstimatorConfig(search_bracket=(0.1, 1000.0), frozen_weights=True)
    solvers = (lambda n: solve_ls(X, RssiProfile(lay, 1.0, 3e-4, n), cfg),
               lambda n: solve_mle(X, RssiProfile(lay, 1.0, 3e-4, n), 0.0, cfg),
               lambda n: solve_mle(X, RssiProfile(lay, 1.0, 3e-4, n), 0.3, frozen))
    for solve in solvers:
        for n_exp in (1e99, 1e300, 1.7e308):
            with pytest.raises(ValueError, match="path_loss_exp and amp_const"):
                solve(n_exp)
        assert solve(3e98).converged[0]


def test_solvers_reject_a_width_other_than_the_layout():
    lay = FasLayout(3, 0.5, 0.125)
    X = np.full((2, 4), -60.0)
    cfg = EstimatorConfig(search_bracket=(0.1, 1000.0))
    profile = RssiProfile(lay, 1.0, 3e-4, 2.0)
    with pytest.raises(ValueError, match="4 ports, layout has 3"):
        solve_ls(X, profile, cfg)
    with pytest.raises(ValueError, match="4 ports, layout has 3"):
        solve_mle(X, profile, 0.0, cfg)


# ---------------------------------------------------------------- single antenna

def test_single_antenna_inversion_anchor():
    amp = 3.14557575653044e-4
    est = solve_single_antenna(np.full((1, 12), 30.0), one_port(amp))
    assert est.d_hat[0] == pytest.approx(amp, rel=1e-12)
    assert est.converged[0]


def test_single_antenna_noiseless_recovery():
    lay = FasLayout(1, 0.0, 0.125, spacing="index")
    scene = scene_at()
    X = np.repeat(noiseless_rows(lay, scene), 12, axis=1)
    est = solve_single_antenna(X, scene.profile(lay))
    assert est.d_hat[0] == pytest.approx(10.0, abs=1e-9)


def test_single_antenna_input_validation():
    for shape in ((0, 12), (1, 0), (12,)):
        with pytest.raises(ValueError):
            solve_single_antenna(np.zeros(shape), one_port(3e-4))


# ---------------------------------------------------------------- consistency

def test_error_shrinks_with_noise_power():
    lay = FasLayout(12, 0.5, 0.125, spacing="index")
    scene = scene_at()
    a = average_mu_squared(lay)
    cfg = cfg_for(scene)
    mse = []
    for sigma2 in (1.0, 0.1, 0.01):
        cov = build_covariance(lay, CorrelationModel.AVERAGE_MU, sigma2)
        errs = []
        for t in range(400):
            X = simulate_measurements(lay, scene, cov, (77, t), 1)
            errs.append((mle(X, lay, scene, a, cfg).d_hat[0] - 10.0) ** 2)
        mse.append(np.mean(errs))
    assert mse[0] > mse[1] > mse[2]
