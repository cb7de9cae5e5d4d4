"""Distance estimators for port-swept RSSI vectors.

Every estimator works on a batch: a (rows, ports) array of readings, one row
per trial or capture, solved at once. Each row's result depends on that row
alone, so a batch can be split anywhere without changing a bit.

Three families:

* ``solve_mle``: correlated-noise weighted estimator. For an
  equicorrelated port covariance with off-diagonal ``a`` the stationarity
  condition of the Gaussian log-likelihood collapses to a scalar root
  problem

      g(d) = sum_i b_i(d) * (x_i - M_i(d)) = 0,
      b_i = dM_i/dd - kappa * sum_j dM_j/dd,
      kappa = a^2 / ((1 - a^2) * (1 + a^2 (N - 1))),

  solved by a bracketed scan plus Brent root refinement. ``a = 0`` gives
  kappa = 0 and reduces exactly to the uncorrelated weighted-ML estimator.
  By default the weights are re-evaluated at the current d inside the
  solver (the exact self-consistent stationarity); ``frozen_weights``
  evaluates them once at the bracket midpoint instead, mirroring the
  closed-form reading in which the weight array is treated as constant.

* ``solve_ls``: nonlinear least squares over d on the dBm residuals. The
  scan finds the grid point with the smallest objective; the root of the
  objective's exact derivative inside the two grid cells around it is the
  estimate.

* ``solve_single_antenna``: averages the readings of a one-port stream and
  inverts the log-distance model in closed form.

Both root problems go through ``_brentq``, an operation-for-operation port
of scipy's ``brentq`` in which every row carries its own bracket and stops
on its own. The solvers are the one place that checks their input: the
readings, the bearing and the link constants.
"""

import math
from dataclasses import dataclass

import numpy as np

from .forward_model import RssiProfile

# Grid used to bracket the stationarity root before Brent refinement.
_SCAN_POINTS = 33
# Relative tolerance of the root solver: scipy brentq's default, 4 * eps.
_RTOL = 4.0 * np.finfo(float).eps
# Golden-section ratio (sqrt(5) - 1) / 2.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Elements of one (rows, grid, ports) block of the scan; bounds its memory.
_SCAN_BLOCK = 1 << 18
# Iteration cap of the Brent and golden-section refinements.
MAX_ITERATIONS = 200
# Largest reading magnitude accepted, in dBm. Squared residuals stay near
# 1e200, so no scan sum over any realistic port count can overflow.
READING_LIMIT_DBM = 1e100


@dataclass
class EstimatorConfig:
    search_bracket: tuple = (0.5, 200.0)
    tolerance: float = 1e-6
    frozen_weights: bool = False

    def __post_init__(self):
        lo, hi = self.search_bracket
        if not (0.0 < lo < hi < math.inf):
            raise ValueError(f"search bracket must satisfy 0 < d_min < d_max < inf, "
                             f"got {self.search_bracket}")
        if not (0.0 < self.tolerance < math.inf):
            raise ValueError("tolerance must be positive and finite")


@dataclass
class EstimateBatch:
    """Per-row results of one batched solve."""

    d_hat: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    objective_value: np.ndarray

    def split(self, parts):
        """The batch cut into ``parts`` equal blocks of consecutive rows."""
        columns = (self.d_hat, self.converged, self.iterations, self.objective_value)
        return [EstimateBatch(*block)
                for block in zip(*(np.split(c, parts) for c in columns))]


def kappa_constant(a, n_ports):
    """Weight-coupling constant for equicorrelated noise with coefficient a."""
    if not (0.0 <= a < 1.0):
        raise ValueError(f"correlation coefficient a must be in [0, 1), got {a}")
    return a * a / ((1.0 - a * a) * (1.0 + a * a * (n_ports - 1)))


class _Residual:
    """Weighted residual sums of one batch of readings.

    ``weights(d, di_sq)`` maps distances (M,) and their squared port
    distances to per-port weights, (M, N) or (N,); ``g(d, X)`` is
    sum_i w_i(d) * (x_i - M_i(d)) for rows X aligned with d.
    """

    def __init__(self, profile, weights):
        self.profile = profile
        self.weights = weights

    def g(self, d, X):
        di_sq = self.profile.dist_sq(d)
        return (self.weights(d, di_sq) * (X - self.profile.rssi(di_sq))).sum(axis=1)

    def sq(self, d, X):
        r = X - self.profile.rssi(self.profile.dist_sq(d))
        return (r * r).sum(axis=1)

    def scan(self, grid, X, squared=False):
        """(rows, grid) table of g on ``grid``, and with ``squared`` also the
        table of squared residual sums."""
        di_sq = self.profile.dist_sq(grid)
        model = self.profile.rssi(di_sq)
        w = self.weights(grid, di_sq)
        gv = np.empty((X.shape[0], grid.size))
        sq = np.empty_like(gv) if squared else None
        step = max(1, _SCAN_BLOCK // model.size)
        for s in range(0, X.shape[0], step):
            r = X[s:s + step, np.newaxis, :] - model[np.newaxis]
            gv[s:s + step] = (w * r).sum(axis=2)
            if squared:
                sq[s:s + step] = (r * r).sum(axis=2)
        return gv, sq


def _brentq(f, xa, xb, fa, fb, xtol, maxiter):
    """Masked port of scipy.optimize.brentq over arrays of brackets.

    Row k solves f(x)[k] = 0 on [xa[k], xb[k]] with scipy's steps and tests,
    in the same order, so each row reproduces scipy's iterate sequence. f
    maps an array of abscissae to the array of values, row by row; fa and
    fb are its values at the bracket ends, which the grid scan has already
    computed with the same arithmetic. A row whose endpoint values share a
    sign is not solved (``bracketed`` False).
    Returns (root, f(root), iterations, converged, bracketed).
    """
    xpre, xcur = np.array(xa, dtype=float), np.array(xb, dtype=float)
    fpre, fcur = np.array(fa, dtype=float), np.array(fb, dtype=float)
    at_a = fpre == 0.0
    root = np.where(at_a, xpre, xcur)
    froot = np.where(at_a, fpre, fcur)
    bracketed = at_a | (fcur == 0.0) | (np.signbit(fpre) != np.signbit(fcur))
    active = bracketed & (fpre != 0.0) & (fcur != 0.0)
    iterations = np.zeros(xcur.shape, dtype=np.int64)
    xblk, fblk = xpre.copy(), fpre.copy()
    spre, scur = np.zeros_like(xcur), np.zeros_like(xcur)
    # All rows step in lockstep. A row that has stopped, or has no sign
    # change, keeps stepping inside its own bracket, where f is defined, and
    # nothing it computes is read again. For a running row the sign test
    # below needs no zero checks: its fpre is never 0, and when fcur is 0
    # the row stops in this iteration with the same root either way. Each
    # masked update is skipped when no row takes it.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(1, maxiter + 1):
            if not np.count_nonzero(active):
                break
            flip = np.signbit(fpre) != np.signbit(fcur)
            if np.count_nonzero(flip):
                np.putmask(xblk, flip, xpre)
                np.putmask(fblk, flip, fpre)
                span = xcur - xpre
                np.putmask(spre, flip, span)
                np.putmask(scur, flip, span)
            swap = np.abs(fblk) < np.abs(fcur)
            if np.count_nonzero(swap):
                xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                                    np.where(swap, xcur, xblk))
                fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                                    np.where(swap, fcur, fblk))

            delta = (xtol + _RTOL * np.abs(xcur)) / 2.0
            sbis = (xblk - xcur) / 2.0
            abs_sbis = np.abs(sbis)
            done = active & ((fcur == 0.0) | (abs_sbis < delta))
            if np.count_nonzero(done):
                np.putmask(root, done, xcur)
                np.putmask(froot, done, fcur)
                np.putmask(iterations, done, it)
                active ^= done

            # take the interpolation step where it is short enough, bisect
            # elsewhere
            abs_spre = np.abs(spre)
            short = (abs_spre > delta) & (np.abs(fcur) < np.abs(fpre))
            if np.count_nonzero(short):
                stry = _interpolation_step(xpre, xcur, xblk, fpre, fcur, fblk)
                short &= 2.0 * np.abs(stry) < np.minimum(abs_spre, 3.0 * abs_sbis - delta)
                spre = np.where(short, scur, sbis)
                scur = np.where(short, stry, sbis)
            else:
                spre, scur = sbis, sbis.copy()

            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.copysign(delta, sbis))
            fcur = f(xcur)
    np.putmask(root, active, xcur)
    np.putmask(froot, active, fcur)
    np.putmask(iterations, active, maxiter)
    return root, froot, iterations, bracketed & ~active, bracketed


def _interpolation_step(xpre, xcur, xblk, fpre, fcur, fblk):
    """brentq's trial step: secant where pre and blk coincide, inverse
    quadratic extrapolation elsewhere."""
    secant = xpre == xblk
    n_secant = np.count_nonzero(secant)
    if n_secant == secant.size:
        return -fcur * (xcur - xpre) / (fcur - fpre)
    dpre = (fpre - fcur) / (xpre - xcur)
    dblk = (fblk - fcur) / (xblk - xcur)
    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
    if n_secant:
        stry = np.where(secant, -fcur * (xcur - xpre) / (fcur - fpre), stry)
    return stry


def _golden(phi, a, b, xtol, maxiter):
    """Masked golden-section search for the minimum of phi on [a, b] per row.

    Each row stops once its interval is no wider than ``xtol``. Returns the
    better of the two interior points, phi there, and evaluations per row.
    """
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = phi(c), phi(d)
    evaluations = np.full(a.shape, 2, dtype=np.int64)
    active = (b - a) > xtol
    for _ in range(maxiter):
        if not active.any():
            break
        left = active & (fc < fd)
        right = active & ~(fc < fd)
        b = np.where(left, d, b)
        a = np.where(right, c, a)
        new_c = np.where(left, b - _INV_PHI * (b - a), np.where(right, d, c))
        new_d = np.where(right, a + _INV_PHI * (b - a), np.where(left, c, d))
        f_new = phi(np.where(left, new_c, new_d))
        fc, fd = np.where(left, f_new, np.where(right, fd, fc)), \
            np.where(right, f_new, np.where(left, fc, fd))
        c, d = new_c, new_d
        evaluations += active
        active &= (b - a) > xtol
    best_c = fc <= fd
    return np.where(best_c, c, d), np.where(best_c, fc, fd), evaluations


def _cells(j, size):
    """Grid indices bounding the two cells around index j, clipped at the ends."""
    return np.maximum(j - 1, 0), np.minimum(j + 1, size - 1)


def _check_rows(X, n_ports=None):
    """X as a non-empty (rows, ports) float array of width n_ports whose
    readings are finite and at most READING_LIMIT_DBM in magnitude."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise ValueError(f"readings must be a non-empty (rows, ports) array, "
                         f"got shape {X.shape}")
    if n_ports is not None and X.shape[1] != n_ports:
        raise ValueError(f"readings have {X.shape[1]} ports, layout has {n_ports}")
    if not (np.abs(X) <= READING_LIMIT_DBM).all():  # also false for nan
        raise ValueError(f"readings must be finite and within +-{READING_LIMIT_DBM:g} dBm")
    return X


def _check_scalars(amp_const, path_loss_exp, theta=0.0):
    """Raise unless the bearing is finite and the link constants positive
    and finite."""
    if not math.isfinite(theta):
        raise ValueError(f"bearing theta must be finite, got {theta}")
    for name, value in (("amp_const", amp_const), ("path_loss_exp", path_loss_exp)):
        if not (0.0 < value < math.inf):
            raise ValueError(f"{name} must be positive and finite, got {value}")


def solve_ls(X, layout, theta, cfg, amp_const, path_loss_exp):
    """Least-squares distance estimates for the rows of X.

    The objective sum_i (x_i - M_i(d))^2 is scanned on the geometric grid
    over the bracket; the root of its exact derivative in the two cells
    around the best grid point is the estimate (golden-section search on
    the objective when the derivative keeps its sign there). If a bracket
    endpoint beats that minimum the objective was not unimodal on the
    bracket: the interior point is still returned, flagged converged=False.
    """
    X = _check_rows(X, layout.n_ports)
    _check_scalars(amp_const, path_loss_exp, theta)
    lo, hi = cfg.search_bracket
    profile = RssiProfile(layout, theta, amp_const, path_loss_exp)
    res = _Residual(profile, profile.derivative)
    grid = np.geomspace(lo, hi, _SCAN_POINTS)
    gv, fv = res.scan(grid, X, squared=True)
    j_lo, j_hi = _cells(np.argmin(fv, axis=1), grid.size)
    a, b = grid[j_lo], grid[j_hi]
    rows = np.arange(X.shape[0])

    d_hat, _, iterations, converged, bracketed = _brentq(
        lambda d: res.g(d, X), a, b, gv[rows, j_lo], gv[rows, j_hi],
        cfg.tolerance, MAX_ITERATIONS)
    flat = np.flatnonzero(~bracketed)
    if flat.size:
        Xf = X[flat]
        d_f, _, evals = _golden(lambda d: res.sq(d, Xf), a[flat], b[flat],
                                cfg.tolerance, MAX_ITERATIONS)
        d_hat[flat] = d_f
        iterations[flat] = evals
        converged[flat] = True
    f_hat = res.sq(d_hat, X)
    interior_ok = f_hat <= np.minimum(fv[:, 0], fv[:, -1]) + 1e-12
    return EstimateBatch(d_hat=d_hat, converged=converged & interior_ok,
                         iterations=iterations, objective_value=f_hat)


def solve_mle(X, layout, theta, a, cfg, amp_const, path_loss_exp):
    """Correlated-noise weighted estimates for the rows of X: roots of g(d).

    The bracket is scanned on a geometric grid; each sign-change interval is
    refined with Brent's method and kept when |g| there is below 1e-3 of the
    largest scanned |g| (a sign change across a pole is not a root). With
    several roots the one closest to the least-squares estimate of the same
    row wins (deterministic tie-break). With none, the minimizer of |g| in
    the two cells around the best scan point is returned with
    converged=False.
    """
    kap = kappa_constant(a, layout.n_ports)
    X = _check_rows(X, layout.n_ports)
    _check_scalars(amp_const, path_loss_exp, theta)
    rows = X.shape[0]
    lo, hi = cfg.search_bracket

    # The dropped-term derivative is singular at d = 2*off*cos(theta); keep
    # the working bracket above the largest singularity.
    pole = 2.0 * float(np.max(layout.port_offsets_m())) * math.cos(theta)
    lo_eff = max(lo, pole * (1.0 + 1e-9) + 1e-12) if pole >= lo else lo
    if lo_eff >= hi:
        raise ValueError(
            f"bracket {cfg.search_bracket} lies inside the weight-singularity "
            f"radius {pole:.3g} m"
        )

    profile = RssiProfile(layout, theta, amp_const, path_loss_exp)
    if cfg.frozen_weights:
        derivs = profile.dropped_term_derivative(np.array([0.5 * (lo + hi)]))[0]
        frozen_b = derivs - kap * derivs.sum()

        def weights(d, di_sq):
            return frozen_b
    else:
        def weights(d, di_sq):
            derivs = profile.dropped_term_derivative(d)
            return derivs - kap * derivs.sum(axis=1, keepdims=True)

    res = _Residual(profile, weights)
    grid = np.geomspace(lo_eff, hi, _SCAN_POINTS)
    gv, _ = res.scan(grid, X)
    finite = np.isfinite(gv)
    g_scale = np.max(np.where(finite, np.abs(gv), 0.0), axis=1) + 1e-30

    # a grid point can land exactly on the root (noiseless data with a
    # symmetric bracket does this); the product test would miss it
    zero_row, zero_cell = np.nonzero(finite & (gv == 0.0))
    change = finite[:, :-1] & finite[:, 1:] & (gv[:, :-1] * gv[:, 1:] < 0.0)
    br_row, br_cell = np.nonzero(change)
    Xb = X[br_row]
    root, g_root, its, br_conv, _ = _brentq(
        lambda d: res.g(d, Xb), grid[br_cell], grid[br_cell + 1],
        gv[br_row, br_cell], gv[br_row, br_cell + 1], cfg.tolerance, MAX_ITERATIONS)
    iterations = np.bincount(br_row, weights=its, minlength=rows).astype(np.int64)
    keep = np.abs(g_root) <= 1e-3 * g_scale[br_row]

    # candidate roots per row, grid zeros first, in scan order
    cand_row = np.concatenate([zero_row, br_row[keep]])
    cand_d = np.concatenate([grid[zero_cell], root[keep]])
    cand_g = np.concatenate([np.zeros(zero_row.size), g_root[keep]])
    cand_conv = np.concatenate([np.ones(zero_row.size, dtype=bool), br_conv[keep]])
    n_roots = np.bincount(cand_row, minlength=rows)
    if n_roots.max(initial=0) > 1:
        multi = np.flatnonzero(n_roots > 1)
        near = np.zeros(rows)
        near[multi] = solve_ls(X[multi], layout, theta, cfg, amp_const, path_loss_exp).d_hat
        # per row, the candidate nearest the anchor; the earliest on a tie
        order = np.lexsort((np.arange(cand_row.size), np.abs(cand_d - near[cand_row]),
                            cand_row))
        order = order[np.concatenate(([True], cand_row[order][1:] != cand_row[order][:-1]))]
        cand_row, cand_d, cand_g, cand_conv = (cand_row[order], cand_d[order],
                                               cand_g[order], cand_conv[order])

    d_hat = np.empty(rows)
    objective = np.empty(rows)
    converged = np.zeros(rows, dtype=bool)
    d_hat[cand_row] = cand_d
    objective[cand_row] = cand_g
    converged[cand_row] = cand_conv

    # no bracketable root: polish |g| near the best scan point only; |g| can
    # have shallow distant valleys a global search would wander into
    lost = np.flatnonzero(n_roots == 0)
    if lost.size:
        Xl = X[lost]
        j_lo, j_hi = _cells(np.argmin(np.where(finite[lost], np.abs(gv[lost]), np.inf), axis=1),
                            grid.size)
        d_l, _, evals = _golden(lambda d: np.abs(res.g(d, Xl)), grid[j_lo], grid[j_hi],
                                cfg.tolerance, MAX_ITERATIONS)
        d_hat[lost] = d_l
        objective[lost] = res.g(d_l, Xl)
        iterations[lost] += evals
    return EstimateBatch(d_hat=d_hat, converged=converged, iterations=iterations,
                         objective_value=objective)


def solve_single_antenna(X, amp_const, path_loss_exp):
    """Closed-form inversion of the averaged readings of each row of X.

    d_hat = A^(2/n) * 10^((30 - mean_rssi) / (10 n)); at n = 2 this is the
    familiar A * 10^((30 - mean_rssi)/20). The objective value is the
    readings' squared deviation about their mean. A d_hat beyond the float
    range raises.
    """
    X = _check_rows(X)
    _check_scalars(amp_const, path_loss_exp)
    x_bar = X.mean(axis=1)
    with np.errstate(over="ignore"):
        d_hat = (np.float64(amp_const) ** (2.0 / path_loss_exp)
                 * 10.0 ** ((30.0 - x_bar) / (10.0 * path_loss_exp)))
    if not np.isfinite(d_hat).all():
        raise ValueError("readings and link constants put d_hat beyond the float range")
    residual = np.sum((X - x_bar[:, np.newaxis]) ** 2, axis=1)
    return EstimateBatch(d_hat=d_hat, converged=np.ones(X.shape[0], dtype=bool),
                         iterations=np.zeros(X.shape[0], dtype=np.int64),
                         objective_value=residual)
