"""Properties of the batched solvers on random geometries, readings and
brackets: every estimate lies inside its bracket, every row solved alone
equals its batch row, a weighted-ML row whose g changes sign on the scan
grid comes back with a root, noiseless readings of a far-field scene give
back its distance, and the scan grid is ``np.geomspace``'s."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fasloc.channel import FasLayout, average_mu_squared
from fasloc.estimators import (_SCAN_POINTS, EstimatorConfig, _best_cells, _refine, _Residual,
                               _scan_grid, kappa_constant, solve_ls, solve_mle)
from fasloc.forward_model import RssiProfile

EPS = np.finfo(float).eps
# readings near a plausible link budget, or spread over hundreds of dB
READINGS = st.floats(-90.0, -30.0) | st.floats(-1000.0, 1000.0)


@st.composite
def solves(draw):
    """Keyword arguments of one batched solve, without the weight policy."""
    n_ports = draw(st.integers(1, 16))
    layout = FasLayout(n_ports, draw(st.floats(0.0, 2.0)),
                       draw(st.just(0.125) | st.floats(0.01, 1.0)),
                       draw(st.sampled_from(["endpoint", "index"])))
    spread = draw(st.booleans())
    rows = draw(st.lists(st.lists(READINGS if spread else st.floats(-90.0, -30.0),
                                  min_size=n_ports, max_size=n_ports),
                         min_size=1, max_size=4))
    bracket = (draw(st.floats(1e-9, 1e-3) | st.floats(1e-3, 50.0)),
               draw(st.floats(50.0, 1e4, exclude_min=True)))
    return {"X": np.array(rows), "layout": layout, "theta": draw(st.floats(-math.pi, math.pi)),
            "a": draw(st.floats(0.0, 0.99)), "bracket": bracket,
            "tolerance": draw(st.just(1e-6) | st.floats(1e-9, 1e-2)),
            "amp_const": draw(st.floats(1e-6, 1e-2)),
            "path_loss_exp": draw(st.floats(1.5, 6.0))}


def g_on(d, X, profile, kap, frozen_b):
    """g(d) for every row of X at every distance of d: (rows, len(d))."""
    di_sq = profile.dist_sq(d)
    if frozen_b is None:
        derivs = profile.dropped_term_derivative(d)
        w = derivs - kap * derivs.sum(axis=1, keepdims=True)
    else:
        w = frozen_b
    return (w * (X[:, np.newaxis, :] - profile.rssi(di_sq))).sum(axis=2)


def assert_each_row_alone_equals_the_batch(solve, X, batch):
    """Every row of X solved alone, as a single-shot estimate is, gives the
    bytes of its batch row in all four fields."""
    for k in range(X.shape[0]):
        alone = solve(X[k:k + 1])
        for field in ("d_hat", "converged", "iterations", "objective_value"):
            got, want = getattr(alone, field), getattr(batch, field)[k:k + 1]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# a 12-port capture spread over hundreds of dB, whose sign change near 0.056 m
# is a root of g that Brent places within the tolerance
SPREAD_LAYOUT = FasLayout(12, 0.5, 0.125, "index")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=solves(), frozen=st.booleans())
@example(case={"X": np.array([[-5, 836, 665, -8, -140, 642, 588, -732, -979, -320, -256,
                               -913]], dtype=float),
               "layout": SPREAD_LAYOUT, "theta": 2.6849974881243632,
               "a": average_mu_squared(SPREAD_LAYOUT), "bracket": (0.01, 10000.0),
               "tolerance": 0.01, "amp_const": 0.00070523, "path_loss_exp": 2.0},
         frozen=False)
def test_estimates_lie_in_the_bracket_and_sign_changes_converge(case, frozen):
    X, layout, theta, a = case["X"], case["layout"], case["theta"], case["a"]
    lo, hi = case["bracket"]
    cfg = EstimatorConfig(search_bracket=(lo, hi), tolerance=case["tolerance"],
                          frozen_weights=frozen)
    profile = RssiProfile(layout, theta, case["amp_const"], case["path_loss_exp"])
    try:
        ls = solve_ls(X, profile, cfg)
    except ValueError:  # the model leaves the reading limit, or meets a port
        pass
    else:
        assert ((lo <= ls.d_hat) & (ls.d_hat <= hi)).all()
        assert_each_row_alone_equals_the_batch(lambda x: solve_ls(x, profile, cfg), X, ls)

    pole = float(np.max(2.0 * layout.port_offsets_m() * np.cos(theta)))
    lo_eff = pole * (1.0 + 1e-9) + 1e-12 if pole >= lo else lo
    try:
        batch = solve_mle(X, profile, a, cfg)
    except ValueError:  # also a bracket inside the pole radius
        return
    assert ((lo_eff <= batch.d_hat) & (batch.d_hat <= hi)).all()
    assert_each_row_alone_equals_the_batch(lambda x: solve_mle(x, profile, a, cfg), X, batch)

    kap = kappa_constant(a, layout.n_ports)
    frozen_b = None
    if frozen:
        derivs = profile.dropped_term_derivative(np.array([0.5 * (lo + hi)]))[0]
        frozen_b = derivs - kap * derivs.sum()
    gv = g_on(np.geomspace(lo_eff, hi, _SCAN_POINTS), X, profile, kap, frozen_b)
    change = np.sign(gv[:, :-1]) * np.sign(gv[:, 1:]) < 0.0
    has_root = (gv == 0.0).any(axis=1) | change.any(axis=1)
    for k in np.flatnonzero(has_root):
        d = batch.d_hat[k]
        assert batch.converged[k]
        step = cfg.tolerance + 4.0 * EPS * d
        near = np.clip(d + step * np.array([0.0, -1.0, -0.5, 0.5, 1.0]), lo_eff, hi)
        g_near = g_on(near, X[k:k + 1], profile, kap, frozen_b)[0]
        assert g_near[0] == 0.0 or (np.sign(g_near[1:]) * np.sign(g_near[0]) < 0).any()


@pytest.mark.parametrize("lo", [1e-160, 1e-112, 1e-50])
@pytest.mark.parametrize("n_ports", [2, 12, 200])
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("theta", [-3.0, 0.4])
def test_mle_on_extreme_inputs_raises_or_returns_finite_values(lo, n_ports, frozen, theta):
    layout = FasLayout(n_ports, 1.0, 0.125, "endpoint")
    cfg = EstimatorConfig(search_bracket=(lo, 80.0), frozen_weights=frozen)
    alternating = np.where(np.arange(n_ports) % 2, -1e100, 1e100)
    X = np.stack([np.full(n_ports, 1e100), np.full(n_ports, -1e100), alternating,
                  np.full(n_ports, -60.0)])
    a = average_mu_squared(layout)
    # the batch runs the expanded-sum scan, each row alone the direct one
    for rows in (X, *X[:, np.newaxis, :]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                batch = solve_mle(rows, RssiProfile(layout, theta, 0.01, 2.0), a, cfg)
            except ValueError:
                continue
        assert np.isfinite(batch.d_hat).all()
        assert np.isfinite(batch.objective_value).all()


@st.composite
def far_field_scenes(draw):
    """A layout, a link model and a distance 10 to 500 port spans away."""
    layout = FasLayout(draw(st.integers(2, 40)), draw(st.floats(0.05, 2.0)),
                       draw(st.floats(0.01, 1.0)), draw(st.sampled_from(["endpoint", "index"])))
    profile = RssiProfile(layout, draw(st.floats(-math.pi, math.pi)),
                          draw(st.floats(1e-6, 1e-2)), draw(st.floats(2.0, 6.0)))
    return layout, profile, draw(st.floats(10.0, 500.0)) * layout.span_m


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(scene=far_field_scenes())
def test_noiseless_far_field_readings_give_back_the_distance(scene):
    layout, profile, d = scene
    cfg = EstimatorConfig(search_bracket=(d / 20.0, 20.0 * d))
    X = profile.at(d)[np.newaxis]
    a = average_mu_squared(layout)
    for solve in (solve_ls, lambda X, profile, cfg: solve_mle(X, profile, a, cfg)):
        batch = solve(X, profile, cfg)
        assert batch.converged[0]
        assert abs(batch.d_hat[0] - d) <= cfg.tolerance


def test_a_far_field_capture_along_the_track_gives_back_the_distance():
    # three ports on a 2/3 m track, a transmitter 10 spans away along it: the
    # bracket's scan grid starts on the middle port, so the least-squares scan
    # starts above the pole instead
    layout = FasLayout(3, 1.0, 1.0, "endpoint")
    profile, d = RssiProfile(layout, 0.0, 1e-4, 2.0), 10.0 * layout.span_m
    cfg = EstimatorConfig(search_bracket=(d / 20.0, 20.0 * d))
    batch = solve_ls(profile.at(d)[np.newaxis], profile, cfg)
    assert batch.converged[0]
    assert abs(batch.d_hat[0] - d) <= cfg.tolerance


def converged_by_the_exact_ends(X, profile, cfg):
    """solve_ls's converged flags with its interior check read from the exact
    objective at both bracket ends on every row: the reference rule."""
    res = _Residual(profile, profile.derivative, _scan_grid(*cfg.search_bracket))
    fv, slack = res.scan(X, squared=True)
    lo, hi = _best_cells(fv, slack, lambda r, c: res.sq_grid(c, X[r]))
    ((d_hat, _, _, converged, _),) = _refine([(res, X, lo, hi)], _Residual.sq, cfg)
    return converged & (res.sq(d_hat, X) <= res.sq_grid([[0], [-1]], X).min(axis=0) + 1e-12)


@st.composite
def end_cases(draw):
    """A link model, a bracket, and rows of readings: random ones, the model at
    a distance inside the bracket, and the model at a bracket end moved by
    1e-14 to 1e-2 dB, whose interior minimum sits within the scan table's
    slack of that end."""
    layout = FasLayout(draw(st.integers(1, 16)), draw(st.floats(0.0, 2.0)), 0.125, "index")
    profile = RssiProfile(layout, draw(st.floats(0.1, 3.0)), draw(st.floats(1e-6, 1e-2)),
                          draw(st.floats(2.0, 6.0)))
    lo = draw(st.floats(0.5, 5.0))
    cfg = EstimatorConfig(search_bracket=(lo, lo * draw(st.floats(10.0, 1e3))),
                          tolerance=draw(st.just(1e-6) | st.floats(1e-12, 1e-3)))
    grid = _scan_grid(*cfg.search_bracket)
    rows = []
    for kind in draw(st.lists(st.sampled_from(["random", "inside", "end"]), min_size=1,
                              max_size=6)):
        if kind == "random":
            rows.append(draw(st.lists(READINGS, min_size=layout.n_ports,
                                      max_size=layout.n_ports)))
        else:
            d = (draw(st.floats(grid[0], grid[-1])) if kind == "inside"
                 else grid[draw(st.sampled_from([0, -1]))])
            shift = draw(st.floats(-14.0, -2.0)) if kind == "end" else -30.0
            rows.append(profile.at(d) + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** shift)
    return np.array(rows, dtype=float), profile, cfg


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=end_cases())
def test_the_table_decides_the_interior_check_as_the_exact_ends_do(case):
    X, profile, cfg = case
    want = converged_by_the_exact_ends(X, profile, cfg)
    assert solve_ls(X, profile, cfg).converged.tobytes() == want.tobytes()
    for k in range(X.shape[0]):  # a lone row's table is exact
        assert solve_ls(X[k:k + 1], profile, cfg).converged[0] == \
            converged_by_the_exact_ends(X[k:k + 1], profile, cfg)[0]


def test_rows_at_a_bracket_end_sit_within_the_table_slack():
    # readings equal to the model at a bracket end: the objective there is 0,
    # and the expanded-sum table can only place it within its slack
    layout = FasLayout(12, 0.5, 0.125, "index")
    profile = RssiProfile(layout, 1.0, 1e-3, 2.0)
    cfg = EstimatorConfig(search_bracket=(0.5, 200.0))
    grid = _scan_grid(*cfg.search_bracket)
    X = np.stack([profile.at(grid[0]), profile.at(grid[-1]), profile.at(20.0)])
    res = _Residual(profile, profile.derivative, grid)
    fv, slack = res.scan(X, squared=True)
    assert (np.abs(np.minimum(fv[:, 0], fv[:, -1]))[:2] <= slack[:2, 0]).all()
    assert solve_ls(X, profile, cfg).converged.tolist() == \
        converged_by_the_exact_ends(X, profile, cfg).tolist()


def test_a_scan_point_on_a_port_of_a_bracket_inside_the_pole_still_raises():
    # the bracket starts on the middle port and ends below the pole (4/3 m),
    # so no scan can start above the pole and the port stops it, as before
    layout = FasLayout(3, 1.0, 1.0, "endpoint")
    profile = RssiProfile(layout, 0.0, 1e-4, 2.0)
    cfg = EstimatorConfig(search_bracket=(1.0 / 3.0, 0.5))
    with pytest.raises(ValueError, match="coincides with a port"):
        solve_ls(profile.at(6.0)[np.newaxis], profile, cfg)


# a bracket end as a Python float over the whole positive range, an int, a
# float32, or any of these as a 0-d array
BRACKET_ENDS = st.one_of(st.floats(0.0, exclude_min=True, allow_infinity=False),
                         st.integers(1, 2 ** 63 - 1),
                         st.floats(0.0, exclude_min=True, allow_infinity=False,
                                   width=32).map(np.float32))
BRACKET_ENDS = BRACKET_ENDS | BRACKET_ENDS.map(np.array)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(lo=BRACKET_ENDS, hi=BRACKET_ENDS)
@example(lo=5e-324, hi=1.7e308)
@example(lo=1.0, hi=math.nextafter(1.0, 2.0))
def test_the_scan_grid_is_the_bits_of_geomspace(lo, hi):
    with np.errstate(over="ignore"):  # 10**log10(hi) near the float limit; hi replaces it
        grid, want = _scan_grid(lo, hi), np.geomspace(lo, hi, _SCAN_POINTS)
    assert grid.dtype == want.dtype and grid.tobytes() == want.tobytes()
