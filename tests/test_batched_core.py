"""The trial-batched solver core against the scalar per-trial pipeline it
replaced.

The reference below is the earlier implementation, kept as an oracle: one
trial at a time, three ``simulate_measurements`` calls per trial, scipy's
``brentq`` for the weighted-ML root, and scipy's bounded ``minimize_scalar``
for least squares.
"""

import hashlib
import math
import os
import subprocess
import sys
import warnings

import numpy as np
from scipy.optimize import brentq, minimize_scalar

import fasloc
from fasloc import estimators, experiments
from fasloc.channel import CorrelationModel, FasLayout, build_covariance
from fasloc.estimators import (_SCAN_POINTS, MAX_ITERATIONS, EstimatorConfig,
                               kappa_constant, solve_ls, solve_mle)
from fasloc.experiments import fig2_spec, fig3_spec
from fasloc.forward_model import RssiProfile, predicted_rssi, simulate_measurements

LS_TOL = 1e-6
MLE_TOL = 1e-9


# ---------------------------------------------------------------- reference

def ref_ls(x, layout, theta, cfg, amp, n_exp):
    lo, hi = cfg.search_bracket

    def objective(d):
        r = x - predicted_rssi(layout, d, theta, amp, n_exp)
        return float(r @ r)

    res = minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                          options={"xatol": cfg.tolerance, "maxiter": MAX_ITERATIONS})
    interior_ok = res.fun <= min(objective(lo), objective(hi)) + 1e-12
    return float(res.x), bool(res.success) and interior_ok, int(res.nfev)


def ref_mle(x, layout, theta, a, cfg, amp, n_exp):
    offsets = layout.port_offsets_m()
    kap = kappa_constant(a, layout.n_ports)
    lo, hi = cfg.search_bracket
    pole = 2.0 * float(np.max(offsets)) * math.cos(theta)
    lo_eff = max(lo, pole * (1.0 + 1e-9) + 1e-12) if pole >= lo else lo
    deriv = RssiProfile(layout, theta, amp, n_exp).dropped_term_derivative
    frozen_b = None
    if cfg.frozen_weights:
        derivs = deriv(np.array([0.5 * (lo + hi)]))[0]
        frozen_b = derivs - kap * derivs.sum()

    def g_batch(d_values):
        model = predicted_rssi(layout, d_values, theta, amp, n_exp)
        if frozen_b is not None:
            b = frozen_b[np.newaxis, :]
        else:
            derivs = deriv(d_values)
            b = derivs - kap * derivs.sum(axis=1, keepdims=True)
        return np.sum(b * (x[np.newaxis, :] - model), axis=1)

    def g(d):
        return float(g_batch(np.array([d]))[0])

    grid = np.geomspace(lo_eff, hi, _SCAN_POINTS)
    gv = g_batch(grid)
    finite = np.isfinite(gv)
    roots = [(float(grid[i]), True) for i in range(len(grid)) if finite[i] and gv[i] == 0.0]
    changes = [(grid[i], grid[i + 1]) for i in range(len(grid) - 1)
               if finite[i] and finite[i + 1] and gv[i] * gv[i + 1] < 0.0]
    iterations = 0
    if changes or roots:
        g_scale = float(np.max(np.abs(gv[finite]))) + 1e-30
        for rlo, rhi in changes:
            root, info = brentq(g, rlo, rhi, xtol=cfg.tolerance,
                                maxiter=MAX_ITERATIONS, full_output=True)
            iterations += info.iterations
            if abs(g(root)) <= 1e-3 * g_scale:
                roots.append((float(root), bool(info.converged)))
    if not roots:
        j = int(np.argmin(np.where(finite, np.abs(gv), np.inf)))
        res = minimize_scalar(lambda d: abs(g(d)), method="bounded",
                              bounds=(float(grid[max(j - 1, 0)]),
                                      float(grid[min(j + 1, len(grid) - 1)])),
                              options={"xatol": cfg.tolerance,
                                       "maxiter": MAX_ITERATIONS})
        return float(res.x), False, iterations + int(res.nfev)
    if len(roots) == 1:
        return roots[0][0], roots[0][1], iterations
    anchor = ref_ls(x, layout, theta, cfg, amp, n_exp)[0]
    d_hat, conv = min(roots, key=lambda rc: abs(rc[0] - anchor))
    return d_hat, conv, iterations


def ref_point(spec, axis_index):
    """Per-trial (d_hat, converged, iterations) per estimator and draw
    digests of one axis point, one trial at a time."""
    axis_value = float(list(spec.axis_values)[axis_index])
    layout, sigma2 = experiments._resolve_point(spec, axis_value)
    ctx = experiments._make_point_context(spec, axis_index)
    scene = spec.scene
    amp = scene.amp_const(layout.wavelength)
    cov_fas = build_covariance(layout, spec.correlation_model, sigma2)
    cov_mp = build_covariance(layout, CorrelationModel.INDEPENDENT, sigma2)
    layout_one = FasLayout(1, 0.0, spec.wavelength, "endpoint")
    cov_one = build_covariance(layout_one, CorrelationModel.INDEPENDENT, sigma2)
    ests = list(spec.estimators)
    need_fas = "fas_mle" in ests or "fas_ls" in ests
    out = {est: [] for est in ests}
    digests = []
    for t in range(spec.trials):
        seed = (spec.base_seed, axis_index, t)
        parts = []
        vec = {}
        for name, lay, cov, wanted in (("fas", layout, cov_fas, need_fas),
                                       ("mp", layout, cov_mp, "multipoint_ls" in ests),
                                       ("one", layout_one, cov_one, "single_antenna" in ests)):
            if wanted:
                vec[name] = simulate_measurements(lay, scene, cov, seed, 1)[0]
                parts.append(vec[name].tobytes())
        digests.append(hashlib.sha256(b"".join(parts)).hexdigest()[:16])
        for est in ests:
            if est == "fas_mle":
                out[est].append(ref_mle(vec["fas"], layout, scene.bearing, ctx.a_coeff,
                                        ctx.cfg, amp, scene.path_loss_exp))
            elif est in ("fas_ls", "multipoint_ls"):
                x = vec["fas" if est == "fas_ls" else "mp"]
                out[est].append(ref_ls(x, layout, scene.bearing, ctx.cfg, amp,
                                       scene.path_loss_exp))
            else:
                readings = np.repeat(vec["one"], layout.n_ports)
                x_bar = float(readings.mean())
                d = amp ** (2.0 / scene.path_loss_exp) \
                    * 10.0 ** ((30.0 - x_bar) / (10.0 * scene.path_loss_exp))
                out[est].append((d, True, 0))
    return {est: np.array(v) for est, v in out.items()}, digests


# ---------------------------------------------------------------- root solver

def test_brentq_port_reproduces_scipy_row_by_row():
    # assorted smooth functions, so that bisection, secant and inverse
    # quadratic steps all occur; some brackets hold no sign change
    rng = np.random.default_rng(3)
    k = 300
    root = rng.uniform(-2.0, 2.0, k)
    slope = 10.0 ** rng.uniform(-2.0, 2.0, k)
    cubic = rng.uniform(0.0, 5.0, k)
    wiggle = rng.uniform(0.0, 0.9, k)

    def f(x, rows=slice(None)):
        u = x - root[rows]
        return np.tanh(slope[rows] * u) + cubic[rows] * u ** 3 + wiggle[rows] * np.sin(3.0 * u) * u

    xa = root - rng.uniform(0.01, 3.0, k)
    xb = root + rng.uniform(0.01, 3.0, k)
    fa, fb = f(xa), f(xb)
    got, g_got, its, conv, bracketed = estimators._brentq(f, xa, xb, fa, fb, 1e-9, 200)
    np.testing.assert_array_equal(bracketed, fa * fb < 0.0)
    assert bracketed.sum() > 0.9 * k
    np.testing.assert_array_equal(conv, bracketed)
    for i in np.flatnonzero(bracketed):
        want, info = brentq(lambda x: float(f(np.array([x]), slice(i, i + 1))[0]),
                            xa[i], xb[i], xtol=1e-9, maxiter=200, full_output=True)
        assert got[i] == want
        assert its[i] == info.iterations
    np.testing.assert_array_equal(g_got[bracketed], f(got)[bracketed])


# ---------------------------------------------------------------- regression

def _compare(spec):
    worst = {}
    for axis_index in range(len(spec.axis_values)):
        ref, ref_digests = ref_point(spec, axis_index)
        ctx = experiments._make_point_context(spec, axis_index)
        got, digests = experiments._run_trials(ctx, 0, spec.trials)
        assert digests == ref_digests
        for est in spec.estimators:
            d_ref, conv_ref, it_ref = ref[est].T
            batch = got[est]
            np.testing.assert_array_equal(batch.converged, conv_ref.astype(bool))
            ok = batch.converged
            delta = np.abs(batch.d_hat[ok] - d_ref[ok])
            worst[est] = max(worst.get(est, 0.0), float(delta.max(initial=0.0)))
            if est == "fas_mle":
                np.testing.assert_array_equal(batch.iterations[ok], it_ref[ok].astype(int))
    return worst


def test_fig2_batched_core_matches_scalar_reference():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        worst = _compare(fig2_spec(base_seed=5, trials=100))
    assert worst["fas_mle"] <= MLE_TOL
    assert worst["fas_ls"] <= LS_TOL
    assert worst["multipoint_ls"] <= LS_TOL
    assert worst["single_antenna"] <= 1e-12


def test_fig3_batched_core_matches_scalar_reference():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        worst = _compare(fig3_spec(spacing_h=0.05, base_seed=5, trials=100))
    assert worst["fas_ls"] <= LS_TOL


def test_batch_results_do_not_depend_on_the_split():
    spec = fig2_spec(base_seed=9, trials=100)
    ctx = experiments._make_point_context(spec, 0)
    whole, _ = experiments._run_trials(ctx, 0, 100)
    head, _ = experiments._run_trials(ctx, 0, 37)
    tail, _ = experiments._run_trials(ctx, 37, 100)
    for est in spec.estimators:
        for field in ("d_hat", "converged", "iterations", "objective_value"):
            joined = np.concatenate([getattr(head[est], field), getattr(tail[est], field)])
            np.testing.assert_array_equal(getattr(whole[est], field), joined)


def test_multi_root_tie_break_matches_reference(monkeypatch):
    # readings far from any model profile give g several roots in the
    # bracket; the least-squares anchor is solved for those rows only
    rng = np.random.default_rng(1)
    lay = FasLayout(3, 7.6, 0.125, spacing="index")
    theta, amp = 0.43, 3.14557575653044e-4
    X = rng.uniform(-90.0, -30.0, size=(200, 3))
    cfg = EstimatorConfig(search_bracket=(0.5, 200.0))
    anchored = []

    def spy(rows, *args):
        anchored.append(rows.shape[0])
        return solve_ls(rows, *args)

    monkeypatch.setattr(estimators, "solve_ls", spy)
    own = solve_mle(X, lay, theta, 0.0, cfg, amp, 2.0)
    assert anchored and 0 < anchored[0] < X.shape[0]
    ref = np.array([ref_mle(x, lay, theta, 0.0, cfg, amp, 2.0) for x in X])
    np.testing.assert_array_equal(own.converged, ref[:, 1].astype(bool))
    ok = own.converged
    assert np.max(np.abs(own.d_hat[ok] - ref[ok, 0])) <= MLE_TOL
    np.testing.assert_array_equal(own.iterations[ok], ref[ok, 2].astype(int))


# ---------------------------------------------------------------- run time

def test_cli_import_does_not_load_scipy():
    code = "import sys, fasloc.cli; print('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(fasloc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env=env)
    assert out.stdout.strip() == "False"
