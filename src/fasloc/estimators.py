"""Distance estimators for port-swept RSSI vectors.

Every estimator works on a batch: a (rows, ports) array of readings, one row
per trial or capture, solved at once. The two iterative solvers also take
several parts, batches with their own link models, in one call. Each row's
result depends on that row and its part's model alone, so a batch can be
split anywhere, or solved beside other parts, without changing a bit.

Three families:

* ``solve_mle``: correlated-noise weighted estimator. For an
  equicorrelated port covariance with off-diagonal ``a`` the stationarity
  condition of the Gaussian log-likelihood collapses to a scalar root
  problem

      g(d) = sum_i b_i(d) * (x_i - M_i(d)) = 0,
      b_i = dM_i/dd - kappa * sum_j dM_j/dd,
      kappa = a^2 / ((1 - a^2) * (1 + a^2 (N - 1))),

  solved by a bracketed scan plus Brent root refinement. The working
  bracket starts above every pole of the weights, so g is continuous on it
  and each sign change on the scan grid holds a root. ``a = 0`` gives
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

Both solvers scan the bracket on a geometric grid, ``_scan_grid``, which has
the bits of ``np.geomspace``'s at a fraction of its cost, and refine the
brackets of grid cells it gives, over every part of a call, in one step,
``_refine``: Brent's root step on g where g changes sign over a bracket,
golden-section search on the solver's objective where it does not. ``_brentq``
is an operation-for-operation port of scipy's ``brentq`` in which every
bracket stops on its own; a single bracket steps on Python floats with the
same bits. The scan is one vector-matrix product per row on expanded inner
products (a lone row is scanned directly), whose table only picks the cells:
where its rounding could change a sign or a minimum, the entries are
recomputed, so the cells are those a table of the function itself gives. Every
value that reaches a refinement or a result is computed row by row from the
residuals themselves, so it does not depend on how the table rounds or on
which rows share a batch.
Every solver takes the link model it inverts as one ``RssiProfile``, which
checks the bearing and the link constants when it is built; the solvers
check the readings and, through the scan, the model on the bracket.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import _check_real
from .forward_model import OnPortError

# Grid used to bracket the stationarity root before Brent refinement.
_SCAN_POINTS = 33
# Relative tolerance of the root solver: scipy brentq's default, 4 * eps.
_RTOL = 4.0 * float(np.finfo(float).eps)
# Golden-section ratio (sqrt(5) - 1) / 2.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Iteration cap of the Brent and golden-section refinements.
MAX_ITERATIONS = 200
# Largest reading magnitude accepted, in dBm; the model on the scan grid must
# stay within it too. Squared residuals and the scan's expanded sums stay
# near 1e200, so no sum over any realistic port count can overflow.
READING_LIMIT_DBM = 1e100
# Largest bracket end: the model squares the distance, and beyond this d**2 overflows.
D_LIMIT = math.sqrt(np.finfo(float).max)


@dataclass
class EstimatorConfig:
    search_bracket: tuple
    tolerance: float = 1e-6
    frozen_weights: bool = False

    def __post_init__(self):
        lo, hi = (np.asarray(end).item() for end in self.search_bracket)  # or 0-d arrays
        if not _check_real("d_min", lo, positive=True) < _check_real("d_max", hi):
            raise ValueError(f"search bracket must satisfy 0 < d_min < d_max, "
                             f"got {self.search_bracket}")
        if hi > D_LIMIT:
            raise ValueError(f"search bracket end d_max must be at most {D_LIMIT:.6g}, where "
                             f"its square overflows, got {hi!r}")
        _check_real("tolerance", self.tolerance, positive=True)


@dataclass
class EstimateBatch:
    """Per-row results of one batched solve."""

    d_hat: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    objective_value: np.ndarray


def kappa_constant(a, n_ports):
    """Weight-coupling constant for equicorrelated noise with coefficient a."""
    if not (0.0 <= a < 1.0):
        raise ValueError(f"correlation coefficient a must be in [0, 1), got {a}")
    return a * a / ((1.0 - a * a) * (1.0 + a * a * (n_ports - 1)))


class _Residual:
    """Weighted residual sums of one batch of readings on one scan grid.

    ``weights(d, di_sq)`` maps distances (M,) and their squared port
    distances to per-port weights, (M, N) or (N,); ``g(d, X)`` is
    sum_i w_i(d) * (x_i - M_i(d)) for rows X aligned with d, and ``sq(d, X)``
    is sum_i (x_i - M_i(d))^2. The model and the weights on ``grid`` are
    computed once; ``g_grid`` and ``sq_grid`` evaluate g and sq at grid
    points from them, with the bits of ``g`` and ``sq``. Raises when the
    model leaves +-READING_LIMIT_DBM on the grid, which also keeps the
    scan's expanded sums far from overflow.
    """

    def __init__(self, profile, weights, grid):
        self.profile = profile
        self.weights = weights
        self.grid = grid
        di_sq = profile.dist_sq(grid)
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite slope
            self.model = profile.rssi(di_sq)
        self.model_max = np.abs(self.model).max()
        if not self.model_max <= READING_LIMIT_DBM:  # also true for nan
            raise ValueError(
                f"path_loss_exp and amp_const put the model RSSI beyond "
                f"+-{READING_LIMIT_DBM:g} dBm inside the search bracket")
        self.w = np.broadcast_to(weights(grid, di_sq), self.model.shape)

    def g(self, d, X):
        di_sq = self.profile.dist_sq(d)
        return (self.weights(d, di_sq) * (X - self.profile.rssi(di_sq))).sum(axis=1)

    def sq(self, d, X):
        r = X - self.profile.rssi(self.profile.dist_sq(d))
        return (r * r).sum(axis=1)

    def g_grid(self, j, X):
        """g at grid points j for the rows of X; an index array of shape
        (..., rows) or (..., 1) gives a result of that shape."""
        return (np.take(self.w, j, axis=0) * (X - np.take(self.model, j, axis=0))).sum(axis=-1)

    def sq_grid(self, j, X):
        """sq at grid points j for the rows of X, shaped as in ``g_grid``."""
        r = X - self.model[j]
        return (r * r).sum(axis=-1)

    def scan(self, X, squared=False):
        """(rows, grid) table of g on the grid, or with ``squared`` of sq,
        from the expanded inner products

            g = X W^T - rowsum(W o M),  sq = sum x^2 - 2 X M^T + rowsum(M o M)

        with W the weights and M the model on the grid, and per row a slack
        that bounds the table's distance from ``g`` or ``sq`` themselves at
        every grid point. In any summation order, each form errs by at most
        (N + 2) eps times sum |x||w| + |w M| <= N max|w| (max|x| + max|M|)
        for g, and times sum x^2 + 2|x M| + M^2 <= 2 (|x|^2 + N max|M|^2)
        for sq, to first order; the slack is 4 (N + 1) eps times the right
        sides, which covers both forms. Each row is its own vector-matrix
        product, (rows, 1, N) @ (N, grid), so no (rows, grid, ports)
        temporary exists and a row's bits do not depend on the other rows.
        A batch of one row, a single-shot estimate, is scanned directly
        instead, (x - M) on the whole grid with zero slack: that costs fewer
        operations than the expanded sums, and both pick the same cells.
        """
        if X.shape[0] == 1:
            r = X[:, np.newaxis, :] - self.model
            return (r * r if squared else self.w * r).sum(axis=2), np.zeros((1, 1))
        n = X.shape[1]
        tol = 4.0 * (n + 1) * np.finfo(float).eps
        if squared:
            x_sq = (X * X).sum(axis=1, keepdims=True)
            table = (x_sq - 2.0 * (X[:, np.newaxis, :] @ self.model.T)[:, 0, :]
                     + (self.model * self.model).sum(axis=1))
            return table, (2.0 * tol) * x_sq + 2.0 * tol * n * self.model_max ** 2
        table = (X[:, np.newaxis, :] @ self.w.T)[:, 0, :] - (self.w * self.model).sum(axis=1)
        return table, tol * n * np.abs(self.w).max() * (np.abs(X).max(axis=1, keepdims=True)
                                                        + self.model_max)


def _brentq(f, xa, xb, fa, fb, xtol, maxiter):
    """Masked port of scipy.optimize.brentq over arrays of brackets.

    Row k solves f(x)[k] = 0 on [xa[k], xb[k]] with scipy's steps and tests,
    in the same order, so each row reproduces scipy's iterate sequence. f
    maps an array of abscissae to the array of values, row by row; fa and
    fb are its values at the bracket ends, which the solvers take from the
    model and weights on the grid with the same arithmetic. A row whose
    endpoint values share a sign is not solved (``bracketed`` False). All
    rows step in lockstep: one that has stopped, or has no sign change,
    steps on inside its own bracket, where f is defined, until the last row
    stops (in a call of several parts, maybe one of another part). Nothing
    it computes is read again and no step mixes rows, so this moves no bit.
    Returns (root, f(root), iterations, converged, bracketed). A single
    bracket, a one-row estimate, is stepped on Python floats instead by
    ``_brentq_one``: the same operations in the same order, so the same bits.
    """
    xpre, xcur = np.array(xa, dtype=float), np.array(xb, dtype=float)
    fpre, fcur = np.array(fa, dtype=float), np.array(fb, dtype=float)
    if xcur.size == 1:
        return _brentq_one(f, xpre.item(), xcur.item(), fpre.item(), fcur.item(),
                           float(xtol), maxiter)
    at_a = fpre == 0.0
    root = np.where(at_a, xpre, xcur)
    froot = np.where(at_a, fpre, fcur)
    bracketed = at_a | (fcur == 0.0) | (np.signbit(fpre) != np.signbit(fcur))
    active = bracketed & (fpre != 0.0) & (fcur != 0.0)
    iterations = np.zeros(xcur.shape, dtype=np.int64)
    xblk, fblk = xpre.copy(), fpre.copy()
    spre, scur = np.zeros_like(xcur), np.zeros_like(xcur)
    # For a running row the sign test below needs no zero checks: its fpre
    # is never 0, and when fcur is 0 the row stops in this iteration with
    # the same root either way. Each masked update is skipped when no row
    # takes it.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(1, maxiter + 1):
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
            if not np.count_nonzero(active):
                break

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


def _brentq_one(f, xpre, xcur, fpre, fcur, xtol, maxiter):
    """``_brentq`` on one bracket of Python floats; returns its shape-(1,)
    arrays, and f still maps a shape-(1,) array. Signs are compared by their
    sign bit, as ``np.signbit`` does. A zero divisor bisects: numpy makes an
    inf or nan trial step of it, which the step test rejects."""
    def result(root, froot, iterations, converged, bracketed):
        return (np.array([root]), np.array([froot]), np.array([iterations], dtype=np.int64),
                np.array([converged]), np.array([bracketed]))

    at_a = fpre == 0.0
    bracketed = at_a or fcur == 0.0 or math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
    if not bracketed or at_a or fcur == 0.0:
        return result(xpre if at_a else xcur, fpre if at_a else fcur, 0, bracketed, bracketed)
    xblk, fblk, spre, scur = xpre, fpre, 0.0, 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # numpy inside f
        for it in range(1, maxiter + 1):
            if math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
                xblk, fblk = xpre, fpre
                spre = scur = xcur - xpre
            if abs(fblk) < abs(fcur):
                xpre, xcur, xblk = xcur, xblk, xcur
                fpre, fcur, fblk = fcur, fblk, fcur
            delta = (xtol + _RTOL * abs(xcur)) / 2.0
            sbis = (xblk - xcur) / 2.0
            if fcur == 0.0 or abs(sbis) < delta:
                return result(xcur, fcur, it, True, True)
            short = abs(spre) > delta and abs(fcur) < abs(fpre)
            if short:
                try:
                    stry = _interpolation_step(xpre, xcur, xblk, fpre, fcur, fblk)
                except ZeroDivisionError:
                    stry = math.nan
                twice = 2.0 * abs(stry)
                # twice < np.minimum(a, b), which is False when a or b is nan
                short = twice < abs(spre) and twice < 3.0 * abs(sbis) - delta
            spre, scur = (scur, stry) if short else (sbis, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + (scur if abs(scur) > delta else math.copysign(delta, sbis))
            fcur = f(np.array([xcur])).item()
    return result(xcur, fcur, maxiter, False, True)


def _interpolation_step(xpre, xcur, xblk, fpre, fcur, fblk):
    """brentq's trial step: secant where pre and blk coincide, inverse
    quadratic extrapolation elsewhere; on arrays or on Python floats, whose
    bool comparison is counted without numpy."""
    secant = xpre == xblk
    n_secant, size = ((int(secant), 1) if isinstance(secant, bool)
                      else (np.count_nonzero(secant), secant.size))
    if n_secant == size:
        return -fcur * (xcur - xpre) / (fcur - fpre)
    dpre = (fpre - fcur) / (xpre - xcur)
    dblk = (fblk - fcur) / (xblk - xcur)
    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
    if n_secant:
        stry = np.where(secant, -fcur * (xcur - xpre) / (fcur - fpre), stry)
    return stry


def _scan_grid(lo, hi):
    """``np.geomspace(lo, hi, _SCAN_POINTS)`` for positive real ends of at most
    double precision, with its bits: the same numpy steps without its handling
    of signs, complex values and other shapes, which costs several times the
    arithmetic (and without setting the last exponent to log10(hi), whose
    power the end point replaces)."""
    lo, hi = np.float64(lo), np.float64(hi)
    log_lo, log_hi = np.log10(lo), np.log10(hi)
    y = np.arange(_SCAN_POINTS, dtype=float) * ((log_hi - log_lo) / (_SCAN_POINTS - 1)) + log_lo
    grid = 10.0 ** y
    grid[0], grid[-1] = lo, hi
    return grid


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


def _best_cells(table, slack, exact):
    """Per row, the grid indices bounding the two cells around the smallest
    entry of the exact table, which ``table`` approximates to within the
    row's ``slack``: when some row has several entries that may be its
    minimum, every such entry is replaced in place by exact(rows, cells). A
    zero slack marks an exact table. Ties go to the first index (np.argmin)."""
    if slack.any():
        near = table <= np.min(table, axis=1, keepdims=True) + 2.0 * slack
        if np.count_nonzero(near) > table.shape[0]:
            rows, cells = np.nonzero(near)
            table[rows, cells] = exact(rows, cells)
    j = np.argmin(table, axis=1)
    return np.maximum(j - 1, 0), np.minimum(j + 1, table.shape[1] - 1)


def _join(arrays, axis=0):
    """The arrays concatenated; a lone array is returned as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=axis)


def _refine(parts, objective, cfg):
    """One bracket per row of X for each part (res, X, lo, hi), grid point
    lo to hi of the part's ``res``, refined by Brent's method on g where g
    changes sign on it (a grid zero, lo == hi, is its own root after 0
    iterations), else by golden-section search on objective(res, d, X),
    counted as converged. The brackets of all parts step together in one
    ``_brentq`` and one ``_golden``, which evaluate g and the objective part
    by part. A row that has stopped steps on, unread, until the last row of
    the call stops (see ``_brentq``), so each part gets the bits it gets
    alone. Returns, per part, d, g(d), iterations, converged and bracketed."""
    cuts = [0, *itertools.accumulate(len(X) for _, X, _, _ in parts)]
    spans = list(zip(parts, cuts, cuts[1:]))
    a = _join([res.grid[lo] for res, _, lo, _ in parts])
    b = _join([res.grid[hi] for res, _, _, hi in parts])
    fa = _join([res.g_grid(lo, X) for res, X, lo, _ in parts])  # one end at a time
    fb = _join([res.g_grid(hi, X) for res, X, _, hi in parts])
    (res, X, _, _), *rest = parts
    d, g, iterations, converged, bracketed = out = _brentq(
        (lambda d: _join([r.g(d[i:j], Y) for (r, Y, _, _), i, j in spans])) if rest
        else (lambda d: res.g(d, X)), a, b, fa, fb, cfg.tolerance, MAX_ITERATIONS)
    if np.count_nonzero(bracketed) < bracketed.size:
        for (res, X, _, _), i, j in spans:
            k = i + np.flatnonzero(~bracketed[i:j])
            d[k], _, iterations[k] = _golden(lambda d: objective(res, d, X[k - i]), a[k], b[k],
                                             cfg.tolerance, MAX_ITERATIONS)
            g[k], converged[k] = res.g(d[k], X[k - i]), True
    return [out] if not rest else [[v[i:j] for v in out] for _, i, j in spans]


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


def solve_ls(X, profile, cfg):
    """Least-squares distance estimates for the rows of X under ``profile``.

    The objective sum_i (x_i - M_i(d))^2 is scanned on the geometric grid
    over the bracket; the root of its exact derivative in the two cells
    around the best grid point is the estimate (golden-section search on
    the objective when the derivative keeps its sign there). If a bracket
    endpoint beats that minimum the objective was not unimodal on the
    bracket: the interior point is still returned, flagged converged=False.
    A grid point on a port moves the scan above the pole, as in ``solve_mle``.
    """
    return _solve_ls([(X, profile)], cfg)[0]


def _solve_ls(parts, cfg):
    """``solve_ls`` on each part (X, profile): one EstimateBatch per part."""
    grid = _scan_grid(*cfg.search_bracket)
    jobs, bounds = [], []
    for X, profile in parts:
        X = _check_rows(X, profile.n_ports)
        try:
            res = _Residual(profile, profile.derivative, grid)
        except OnPortError:
            if profile.pole >= grid[-1]:  # no scan above the pole: the port stops it
                raise
            res = _Residual(profile, profile.derivative, _grid_above_pole(profile, cfg))
        fv, slack = res.scan(X, squared=True)
        bounds.append((np.minimum(fv[:, 0], fv[:, -1]) + 1e-12, slack[:, 0]))  # table ends
        jobs.append((res, X, *_best_cells(fv, slack, lambda r, c: res.sq_grid(c, X[r]))))
    out = []
    for (res, X, _, _), (bound, slack), (d_hat, _, iterations, converged, _) in zip(
            jobs, bounds, _refine(jobs, _Residual.sq, cfg)):
        f_hat = res.sq(d_hat, X)
        near = np.flatnonzero(np.abs(f_hat - bound) <= 2.0 * slack)
        if near.size:  # where the table's slack could decide it, the exact ends do
            bound[near] = res.sq_grid([[0], [-1]], X[near]).min(axis=0) + 1e-12
        out.append(EstimateBatch(d_hat=d_hat, converged=converged & (f_hat <= bound),
                                 iterations=iterations, objective_value=f_hat))
    return out


def solve_mle(X, profile, a, cfg):
    """Correlated-noise weighted estimates for the rows of X under
    ``profile``: roots of g(d).

    The working bracket starts just above ``RssiProfile.pole``, the largest
    pole of the weights, so g is continuous on it and each sign change on
    the geometric scan grid holds a root, refined with Brent's method. With
    several roots the one closest to the least-squares estimate of the same
    row wins (deterministic tie-break). With none, the minimizer of |g| in
    the two cells around the best scan point is returned with
    converged=False.
    """
    return _solve_mle([(X, profile, a)], cfg)[0]


def _solve_mle(parts, cfg):
    """``solve_mle`` on each part (X, profile, a): one EstimateBatch per part."""
    scans = [_mle_candidates(X, profile, a, cfg) for X, profile, a in parts]
    out = []
    for (res, X, cand_row, n_roots, _), (cand_d, cand_g, its, cand_conv, bracketed) in zip(
            scans, _refine([scan[-1] for scan in scans], lambda res, d, X: np.abs(res.g(d, X)),
                           cfg)):
        rows = X.shape[0]
        cand_conv &= bracketed  # a row without a root is not converged
        iterations = np.bincount(cand_row, weights=its, minlength=rows).astype(np.int64)
        if n_roots.max(initial=0) > 1:
            multi = np.flatnonzero(n_roots > 1)
            near = np.zeros(rows)
            near[multi] = solve_ls(X[multi], res.profile, cfg).d_hat
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
        out.append(EstimateBatch(d_hat=d_hat, converged=converged, iterations=iterations,
                                 objective_value=objective))
    return out


def _grid_above_pole(profile, cfg):
    """The scan grid of the bracket from just above ``RssiProfile.pole``, if that
    is higher: there no port distance is below its port's offset, and the
    weights have no pole. A bracket inside the pole raises."""
    (lo, hi), pole = cfg.search_bracket, profile.pole
    lo_eff = pole * (1.0 + 1e-9) + 1e-12 if pole >= lo else lo
    if lo_eff >= hi:
        raise ValueError(f"bracket {cfg.search_bracket} lies inside the weight-singularity "
                         f"radius {pole:.3g} m")
    return _scan_grid(lo_eff, hi)


def _mle_candidates(X, profile, a, cfg):
    """The scan and the candidate brackets of ``solve_mle`` on one part."""
    kap = kappa_constant(a, profile.n_ports)
    X = _check_rows(X, profile.n_ports)
    rows = X.shape[0]
    lo, hi = cfg.search_bracket
    grid = _grid_above_pole(profile, cfg)

    if cfg.frozen_weights:
        derivs = profile.dropped_term_derivative(np.array([0.5 * (lo + hi)]))[0]
        frozen_b = derivs - kap * derivs.sum()

        def weights(d, di_sq):
            return frozen_b
    else:
        def weights(d, di_sq):
            derivs = profile.dropped_term_derivative(d)
            return derivs - kap * derivs.sum(axis=1, keepdims=True)

    res = _Residual(profile, weights, grid)
    gv, slack = res.scan(X)
    # where the table may give g the wrong sign, g itself decides
    exact_row, exact_cell = np.nonzero(np.abs(gv) <= slack)
    if exact_row.size:
        gv[exact_row, exact_cell] = res.g_grid(exact_cell, X[exact_row])

    # one bracket per candidate in scan order: each grid zero of g, each sign
    # change, then for a row with neither the cells around its smallest |g|
    # (|g| can have shallow distant valleys a global search would wander into)
    nonzero = gv != 0.0
    zero_row, zero_cell = np.nonzero(~nonzero)
    sign = np.signbit(gv)
    br_row, br_cell = np.nonzero(nonzero[:, :-1] & nonzero[:, 1:] & (sign[:, :-1] != sign[:, 1:]))
    cand_row = np.concatenate([zero_row, br_row])
    j_lo = np.concatenate([zero_cell, br_cell])
    j_hi = np.concatenate([zero_cell, br_cell + 1])
    n_roots = np.bincount(cand_row, minlength=rows)
    if np.count_nonzero(n_roots) < rows:
        lost = np.flatnonzero(n_roots == 0)
        best_lo, best_hi = _best_cells(np.abs(gv[lost]), slack[lost],
                                       lambda r, c: np.abs(res.g_grid(c, X[lost[r]])))
        cand_row, j_lo, j_hi = (np.concatenate(p) for p in
                                ((cand_row, lost), (j_lo, best_lo), (j_hi, best_hi)))
    return res, X, cand_row, n_roots, (res, X[cand_row], j_lo, j_hi)


def solve_single_antenna(X, profile):
    """Closed-form inversion of the averaged readings of each row of X.

    d_hat = A^(2/n) * 10^((30 - mean_rssi) / (10 n)); at n = 2 this is the
    familiar A * 10^((30 - mean_rssi)/20). The objective value is the
    readings' squared deviation about their mean. A d_hat beyond the float
    range raises.
    """
    X = _check_rows(X)
    x_bar = X.mean(axis=1)
    amp, n = profile.amp_const, profile.path_loss_exp
    with np.errstate(over="ignore"):
        d_hat = np.float64(amp) ** (2.0 / n) * 10.0 ** ((30.0 - x_bar) / (10.0 * n))
    if not np.isfinite(d_hat).all():
        raise ValueError("readings and link constants put d_hat beyond the float range")
    residual = np.sum((X - x_bar[:, np.newaxis]) ** 2, axis=1)
    return EstimateBatch(d_hat=d_hat, converged=np.ones(X.shape[0], dtype=bool),
                         iterations=np.zeros(X.shape[0], dtype=np.int64),
                         objective_value=residual)
