"""The trial-batched solver core against the scalar per-trial pipeline it
replaced.

The reference below is the earlier implementation, kept as an oracle: one
trial at a time, three ``simulate_measurements`` calls per trial, scipy's
``brentq`` for the weighted-ML root, and scipy's bounded ``minimize_scalar``
for least squares.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

import fasloc
from fasloc import estimators, experiments
from fasloc.channel import CorrelationModel, FasLayout, build_covariance, philox_keys
from fasloc.estimators import (_SCAN_POINTS, MAX_ITERATIONS, EstimatorConfig,
                               kappa_constant, solve_ls, solve_mle)
from fasloc.experiments import fig2_spec, fig3_spec
from fasloc.forward_model import RssiProfile, simulate_measurements

LS_TOL = 1e-6
MLE_TOL = 1e-9


# ---------------------------------------------------------------- reference

def ref_ls(x, layout, theta, cfg, amp, n_exp):
    lo, hi = cfg.search_bracket
    profile = RssiProfile(layout, theta, amp, n_exp)

    def objective(d):
        r = x - profile.at(d)
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
    profile = RssiProfile(layout, theta, amp, n_exp)
    deriv = profile.dropped_term_derivative
    frozen_b = None
    if cfg.frozen_weights:
        derivs = deriv(np.array([0.5 * (lo + hi)]))[0]
        frozen_b = derivs - kap * derivs.sum()

    def g_batch(d_values):
        model = profile.at(d_values)
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


def _group(spec, axis_index):
    """The solve-group context holding one axis point, and the point's
    place in the group."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the far-field warning
        ctxs = experiments._group_contexts(spec)
    return next((ctx, j) for ctx in ctxs for j, (i, _) in enumerate(ctx.points)
                if i == axis_index)


def _fas_rows(spec, ctx, j):
    """The correlated-port readings of every trial of the group's j-th point."""
    axis_index, factors = ctx.points[j]
    keys = philox_keys((spec.base_seed, axis_index), np.arange(spec.trials))
    return experiments._simulate(ctx, factors, keys, None)[0]["fas"]


def ref_point(spec, axis_index):
    """Per-trial (d_hat, converged, iterations) per estimator and draw
    digests of one axis point, one trial at a time."""
    axis_value = float(list(spec.axis_values)[axis_index])
    layout, sigma2 = experiments._resolve_point(spec, axis_value)
    ctx, _ = _group(spec, axis_index)
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

def assert_lone_brackets_equal_the_batch(f, xa, xb, fa, fb, batch):
    """Each bracket solved alone, which runs on Python floats, gives the five
    arrays of its batch row, dtypes and bytes included, and no warning;
    f(x, rows) takes the rows' slice."""
    for i in range(xa.size):
        one = slice(i, i + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = estimators._brentq(lambda x: f(x, one), xa[one], xb[one], fa[one],
                                       fb[one], 1e-9, 200)
        for a, b in zip(alone, batch):
            assert a.dtype == b.dtype and a.shape == (1,) and a.tobytes() == b[one].tobytes()


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e300])
def test_brentq_port_reproduces_scipy_row_by_row(scale):
    # assorted smooth functions, so that bisection, secant and inverse
    # quadratic steps all occur; some brackets hold no sign change. At tiny
    # scales the interpolation divides by zero, which must bisect.
    rng = np.random.default_rng(3)
    k = 300
    root = rng.uniform(-2.0, 2.0, k)
    slope = 10.0 ** rng.uniform(-2.0, 2.0, k)
    cubic = rng.uniform(0.0, 5.0, k)
    wiggle = rng.uniform(0.0, 0.9, k)

    def f(x, rows=slice(None)):
        u = x - root[rows]
        return scale * (np.tanh(slope[rows] * u) + cubic[rows] * u ** 3
                        + wiggle[rows] * np.sin(3.0 * u) * u)

    xa = root - rng.uniform(0.01, 3.0, k)
    xb = root + rng.uniform(0.01, 3.0, k)
    fa, fb = f(xa), f(xb)
    batch = estimators._brentq(f, xa, xb, fa, fb, 1e-9, 200)
    got, g_got, its, conv, bracketed = batch
    np.testing.assert_array_equal(bracketed, np.sign(fa) * np.sign(fb) < 0.0)
    assert bracketed.sum() > 0.9 * k
    np.testing.assert_array_equal(conv, bracketed)
    assert_lone_brackets_equal_the_batch(f, xa, xb, fa, fb, batch)
    for i in np.flatnonzero(bracketed):
        want, info = brentq(lambda x: float(f(np.array([x]), slice(i, i + 1))[0]),
                            xa[i], xb[i], xtol=1e-9, maxiter=200, full_output=True)
        assert got[i] == want
        assert its[i] == info.iterations
    np.testing.assert_array_equal(g_got[bracketed], f(got)[bracketed])


def test_brentq_stops_with_its_last_bracket():
    # no f evaluation after the step in which the last running row stops:
    # iteration k evaluates f only when some row goes on to iteration k + 1
    rng = np.random.default_rng(4)
    root = rng.uniform(-1.0, 1.0, 300)
    xa, xb = root - rng.uniform(0.01, 2.0, 300), root + rng.uniform(0.01, 2.0, 300)
    calls = []

    def f(x):
        calls.append(x.size)
        return np.tanh(x - root) + 0.3 * (x - root) ** 3

    fa, fb = f(xa), f(xb)
    calls.clear()
    _, _, its, conv, _ = estimators._brentq(f, xa, xb, fa, fb, 1e-9, 200)
    assert conv.all() and its.max() > 2
    assert len(calls) == its.max() - 1
    # a batch with no running row evaluates nothing
    calls.clear()
    estimators._brentq(f, xa, xb, fa, fa, 1e-9, 200)
    assert not calls


def test_a_lone_bracket_keeps_the_bits_of_its_row_on_signed_zeros_and_nans():
    # the array port compares sign bits, so a negative nan counts as negative
    # and a function value of -0.0 as zero; end values and function values
    # take every such kind, and nan from f lands inside running brackets
    ends = [-1.0, 1.0, -0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf]
    fa, fb = (np.array(v) for v in zip(*[(a, b) for a in ends for b in ends]))
    k = fa.size
    xa, xb = np.full(k, -1.0), np.full(k, 2.0)
    hole = np.linspace(-0.9, 1.9, k)
    sign = np.where(np.arange(k) % 2, 1.0, -1.0)

    def f(x, rows=slice(None)):
        value = x - 0.3
        return np.where(np.abs(x - hole[rows]) < 0.05, np.copysign(math.nan, sign[rows]),
                        np.where(np.abs(value) < 1e-3, -0.0, value))

    batch = estimators._brentq(f, xa, xb, fa, fb, 1e-9, 200)
    assert batch[4].sum() > k // 2
    assert_lone_brackets_equal_the_batch(f, xa, xb, fa, fb, batch)


# ---------------------------------------------------------------- regression

def _compare(spec):
    worst = {}
    for ctx in experiments._group_contexts(spec):
        results = experiments._run_trials([ctx], 0, spec.trials)
        for (axis_index, _), (got, digests) in zip(ctx.points, results):
            ref, ref_digests = ref_point(spec, axis_index)
            assert digests == "".join(ref_digests)
            for est in spec.estimators:
                d_ref, conv_ref, it_ref = ref[est].T
                batch = got[est]
                np.testing.assert_array_equal(batch.converged, conv_ref.astype(bool))
                ok = batch.converged
                delta = np.abs(batch.d_hat[ok] - d_ref[ok])
                worst[est] = max(worst.get(est, 0.0), float(delta.max(initial=0.0)))
                if est == "fas_mle":
                    np.testing.assert_array_equal(batch.iterations[ok],
                                                  it_ref[ok].astype(int))
    return worst


def test_fig2_batched_core_matches_scalar_reference():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the far-field warning
        worst = _compare(fig2_spec(base_seed=5, trials=100))
    assert worst["fas_mle"] <= MLE_TOL
    assert worst["fas_ls"] <= LS_TOL
    assert worst["multipoint_ls"] <= LS_TOL
    assert worst["single_antenna"] <= 1e-12


def test_fig3_batched_core_matches_scalar_reference():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the far-field warning
        worst = _compare(fig3_spec(spacing_h=0.05, base_seed=5, trials=100))
    assert worst["fas_ls"] <= LS_TOL


def test_batch_results_do_not_depend_on_the_split():
    # the whole fig2 sweep is one solve group of 7 points
    spec = fig2_spec(base_seed=9, trials=100)
    ctx, _ = _group(spec, 0)
    assert [i for i, _ in ctx.points] == list(range(7))
    whole = experiments._run_trials([ctx], 0, 100)
    head = experiments._run_trials([ctx], 0, 37)
    tail = experiments._run_trials([ctx], 37, 100)
    for (w, _), (h, _), (t, _) in zip(whole, head, tail):
        for est in spec.estimators:
            for field in ("d_hat", "converged", "iterations", "objective_value"):
                joined = np.concatenate([getattr(h[est], field), getattr(t[est], field)])
                np.testing.assert_array_equal(getattr(w[est], field), joined)


# One axis point of each preset: fig3 at h = 0.01, W = 1.0 (N = 100, the
# longest port vector) and fig2 at SNR 10 dB (N = 12).
POINTS = {"fig3_n100": (fig3_spec(spacing_h=0.01, base_seed=3, trials=100), 18, 100),
          "fig2_n12": (fig2_spec(base_seed=3, trials=100), 2, 12)}
SOLVERS = {
    "ls": lambda X, c: solve_ls(X, c.profile, c.cfg),
    "mle": lambda X, c: solve_mle(X, c.profile, c.a_coeff, c.cfg),
    "mle_frozen": lambda X, c: solve_mle(
        X, c.profile, c.a_coeff,
        EstimatorConfig(search_bracket=c.cfg.search_bracket, frozen_weights=True)),
}
FIELDS = ("d_hat", "converged", "iterations", "objective_value")


def _point(name):
    """The point's spec, its solve-group context and its place in the group."""
    spec, axis_index, n_ports = POINTS[name]
    ctx, j = _group(spec, axis_index)
    assert ctx.profile.n_ports == n_ports
    return spec, ctx, j


def _mixed_batch():
    """Readings and a solver context for one batch that holds every kind of
    weighted-ML row: grid zeros of g (noiseless rows at grid points), rows
    at the rounding edge, and readings far from any model profile, which
    give g several roots or none. The bracket starts above the weights'
    pole, so both solvers scan one grid."""
    lay = FasLayout(3, 7.6, 0.125, spacing="index")
    profile = RssiProfile(lay, 0.43, 3.14557575653044e-4, 2.0)
    cfg = EstimatorConfig(search_bracket=(4.0, 200.0))
    assert profile.pole < cfg.search_bracket[0]
    grid = np.geomspace(*cfg.search_bracket, _SCAN_POINTS)
    X = np.vstack([_edge_rows(profile, grid), profile.at(grid),
                   np.random.default_rng(1).uniform(-90.0, -30.0, size=(200, 3))])
    return X, SimpleNamespace(profile=profile, a_coeff=0.0, cfg=cfg)


def _parts(bracket):
    """(readings, context) parts of one multi-part solve, all under one
    search bracket: fig3 rows at N = 10, 55 and 100, a one-row part, fig2
    rows at N = 12 and the mixed batch, whose rows have no sign change
    (golden-section search), several weighted-ML roots (the least-squares
    anchor), or stop at once beside rows that run long."""
    X_mixed, mixed = _mixed_batch()
    spec = fig3_spec(spacing_h=0.01, base_seed=3, trials=100)
    parts = [(spec, _group(spec, axis_index)) for axis_index in (0, 9, 18)]
    spec, axis_index, _ = POINTS["fig2_n12"]
    parts.append((spec, _group(spec, axis_index)))
    parts = [(_fas_rows(spec, ctx, j), ctx) for spec, (ctx, j) in parts]
    parts.insert(2, (parts[1][0][:1].copy(), parts[1][1]))
    parts.append((X_mixed, mixed))
    assert [X.shape[1] for X, _ in parts] == [10, 55, 55, 100, 12, 3]
    cfg = EstimatorConfig(search_bracket={"sweep": parts[0][1].cfg,
                                          "mixed": mixed.cfg}[bracket].search_bracket)
    return [(X, SimpleNamespace(profile=c.profile, a_coeff=c.a_coeff, cfg=cfg)) for X, c in parts]


def _solve_parts(solver, parts):
    """SOLVERS[solver] on every (readings, context) part in one call."""
    cfg = parts[0][1].cfg
    if solver == "ls":
        return estimators._solve_ls([(X, c.profile) for X, c in parts], cfg)
    cfg = EstimatorConfig(search_bracket=cfg.search_bracket,
                          frozen_weights=solver == "mle_frozen")
    return estimators._solve_mle([(X, c.profile, c.a_coeff) for X, c in parts], cfg)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("point", sorted(POINTS) + ["mixed_n3"])
def test_every_row_solved_alone_equals_its_row_in_the_batch(point, solver):
    # every part of one multi-part call, under the point's bracket, equals
    # that part solved alone; every row of the point's part equals the row
    # solved alone (which refines on floats)
    parts = _parts("mixed" if point == "mixed_n3" else "sweep")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        merged = _solve_parts(solver, parts)
        assert len(merged) == len(parts)
        for (X, ctx), got in zip(parts, merged):
            whole = SOLVERS[solver](X, ctx)
            for field in FIELDS:
                want = getattr(whole, field)
                assert getattr(got, field).dtype == want.dtype, field
                assert getattr(got, field).tobytes() == want.tobytes(), (X.shape, field)
        X, ctx = parts[{"fig2_n12": 4, "fig3_n100": 3, "mixed_n3": 5}[point]]
        whole = SOLVERS[solver](X, ctx)
        for k in range(X.shape[0]):
            alone = SOLVERS[solver](X[k].copy()[np.newaxis], ctx)
            for field in FIELDS:
                assert getattr(alone, field).tobytes() == \
                    getattr(whole, field)[k:k + 1].tobytes(), (k, field)


@pytest.mark.parametrize("point", sorted(POINTS))
def test_scan_rows_do_not_depend_on_the_other_rows(point):
    # the results above hold even for a scan whose table bits depend on the
    # batch (a 2-D product goes to gemm for many rows, to gemv for few), as
    # the table only picks cells; this checks the table itself, on pairs of
    # rows (a row alone is scanned directly)
    spec, ctx, j = _point(point)
    X = _fas_rows(spec, ctx, j)
    profile = ctx.profile
    res = estimators._Residual(profile, profile.derivative,
                               np.geomspace(*ctx.cfg.search_bracket, _SCAN_POINTS))
    for squared in (False, True):
        whole = res.scan(X, squared)
        for k in range(0, X.shape[0], 2):
            pair = res.scan(X[k:k + 2].copy(), squared)
            for part, table in zip(pair, whole):
                assert part.tobytes() == table[k:k + 2].tobytes(), (k, squared)


@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("weights", ["ls", "mle", "mle_frozen"])
def test_a_bracket_end_value_is_g_at_its_grid_point(point, weights):
    # _brentq takes fa and fb as they are: each end's value, gathered from
    # the grid tables one end at a time, must have the bits of g there
    spec, ctx, j = _point(point)
    X = _fas_rows(spec, ctx, j)
    profile, cfg = ctx.profile, ctx.cfg
    if weights == "ls":
        res = estimators._Residual(profile, profile.derivative,
                                   estimators._scan_grid(*cfg.search_bracket))
    else:
        cfg = EstimatorConfig(search_bracket=cfg.search_bracket,
                              frozen_weights=weights == "mle_frozen")
        res = estimators._mle_candidates(X, profile, ctx.a_coeff, cfg)[0]
    rng = np.random.default_rng(5)
    for rows in (X[:1], X):
        for end in (rng.integers(0, _SCAN_POINTS, len(rows)), np.zeros(len(rows), int),
                    np.full(len(rows), _SCAN_POINTS - 1)):
            got = res.g_grid(end, rows)
            assert got.shape == (len(rows),)
            assert got.tobytes() == res.g(res.grid[end], rows).tobytes(), (len(rows), end)


@pytest.mark.parametrize("point", sorted(POINTS))
def test_a_one_trial_chunk_equals_its_trial_in_the_point(point):
    # the fig2 point shares its group with the other six SNRs
    spec, ctx, j = _point(point)
    sweep = experiments._run_trials([ctx], 0, spec.trials)
    whole, whole_digests = sweep[j]
    for t in (0, 1, 50, spec.trials - 1):
        one, digests = experiments._run_trials([ctx], t, t + 1)[j]
        assert digests == whole_digests[16 * t:16 * (t + 1)]
        for est in spec.estimators:
            for field in FIELDS:
                assert getattr(one[est], field).tobytes() == \
                    getattr(whole[est], field)[t:t + 1].tobytes(), (t, est, field)
    # run_experiment reduces the whole sweep from one chunk of trials per
    # worker (the group's points: the fig2 group holds all seven)
    points = [(ctx, axis_index) for axis_index, _ in ctx.points]
    bounds = (0, 1, 2, 51, 52, spec.trials)
    chunks = [experiments._run_trials([ctx], lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    assert experiments._reduce(spec, points, chunks) == \
        experiments._reduce(spec, points, [sweep])


def test_ls_scan_holds_no_rows_by_grid_by_ports_temporary():
    spec, ctx, j = _point("fig3_n100")
    X = _fas_rows(spec, ctx, j)
    block = X.shape[0] * _SCAN_POINTS * X.shape[1] * X.itemsize  # 2.52 MiB
    tracemalloc.start()
    try:
        SOLVERS["ls"](X, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block


def _direct_scan(self, X, squared=False):
    """The scan as a (rows, grid, ports) table of g or sq themselves, with
    zero slack: the cells every solver must pick."""
    r = X[:, np.newaxis, :] - self.model
    table = (r * r if squared else self.w * r).sum(axis=2)
    return table, np.zeros_like(table)


def _edge_rows(profile, grid):
    """Readings whose scan tables sit at the rounding edge: noiseless rows at
    each grid point with one reading nudged by one ulp (g there is about
    1e-14 and the expanded sums often give it the wrong sign, or 0), and
    noiseless rows at the geometric midpoint of each cell (the objective
    ties at the cell ends)."""
    rows = []
    for j in range(1, _SCAN_POINTS - 1):
        x = profile.at(grid[j])
        for k in range(profile.n_ports):
            for toward in (-math.inf, math.inf):
                y = x.copy()
                y[k] = np.nextafter(y[k], toward)
                rows.append(y)
        rows.append(profile.at(math.sqrt(grid[j] * grid[j + 1])))
    return np.array(rows)


@pytest.mark.parametrize("n_ports", [1, 3, 12])
def test_solvers_pick_the_cells_of_the_direct_table(monkeypatch, n_ports):
    lay = FasLayout(n_ports, 0.5, 0.125, spacing="index")
    profile = RssiProfile(lay, 0.3, 3.14557575653044e-4, 2.0)
    cfg = EstimatorConfig(search_bracket=(1.0, 400.0))
    frozen = EstimatorConfig(search_bracket=(1.0, 400.0), frozen_weights=True)
    X = _edge_rows(profile, np.geomspace(*cfg.search_bracket, _SCAN_POINTS))
    solves = (lambda: solve_ls(X, profile, cfg),
              lambda: solve_mle(X, profile, 0.0, cfg),
              lambda: solve_mle(X, profile, 0.3, frozen))
    own = [solve() for solve in solves]
    monkeypatch.setattr(estimators._Residual, "scan", _direct_scan)
    for got, solve in zip(own, solves):
        want = solve()
        for field in FIELDS:
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


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
    own = solve_mle(X, RssiProfile(lay, theta, amp, 2.0), 0.0, cfg)
    assert anchored and 0 < anchored[0] < X.shape[0]
    ref = np.array([ref_mle(x, lay, theta, 0.0, cfg, amp, 2.0) for x in X])
    np.testing.assert_array_equal(own.converged, ref[:, 1].astype(bool))
    ok = own.converged
    assert np.max(np.abs(own.d_hat[ok] - ref[ok, 0])) <= MLE_TOL
    np.testing.assert_array_equal(own.iterations[ok], ref[ok, 2].astype(int))


# ---------------------------------------------------------------- run time

def test_sweep_tables_do_not_depend_on_the_blas_thread_count(tmp_path):
    common = {"trials": 200, "base_seed": 11, "correlation_model": "average-mu",
              "scene": {"distance": 10.0, "bearing": math.pi / 3.0}}
    configs = {
        "fig2": {**common, "sweep_axis": "snr_db", "axis_values": [10.0, 30.0],
                 "estimators": ["fas_mle", "fas_ls", "multipoint_ls", "single_antenna"],
                 "layout": {"n_ports": 12, "aperture": 0.5, "spacing": "index"}},
        "fig3": {**common, "sweep_axis": "aperture_w", "axis_values": [0.5, 1.0],
                 "estimators": ["fas_ls"], "snr_db": 10.0, "spacing_h": 0.01,
                 "layout": {"spacing": "index"}},
    }
    src = os.path.dirname(os.path.dirname(fasloc.__file__))
    for name, config in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}_{threads}.csv"
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "fasloc", "reproduce", "--config", str(path),
                            "--out", str(out)], capture_output=True, check=True, timeout=120,
                           env=env)
            tables.append(out.read_bytes())
        assert tables[0] == tables[1], name


def test_cli_import_does_not_load_scipy():
    code = "import sys, fasloc.cli; print('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(fasloc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env=env)
    assert out.stdout.strip() == "False"
