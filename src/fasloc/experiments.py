"""Declarative Monte Carlo experiment runner.

A sweep is described by an ExperimentSpec (axis, fixed parameters, trial
count, seed) and produces a ResultTable of NMSE-in-dB rows per estimator,
with a leave-one-out jackknife standard error. Every trial has its own
counter-based Philox stream, ``Philox(SeedSequence((3, base_seed,
axis_index, trial)))``, so results are byte-identical regardless of worker
count or scheduling. The keys of a chunk's trials, at every axis point of
the sweep, are derived in one vectorised pass (channel.philox_keys) and one
generator is re-keyed per trial, which draws what a fresh one would.

Paired-draw discipline: at a given (axis value, trial) all estimators consume
measurement vectors built from the same block of underlying standard normals.
Each trial draws that block once; the correlated-port, independent-port and
one-port vectors are built from it with their own covariance factors, as
simulate_measurements pairs its draws, and both fluid-antenna estimators
receive literally the same row. A digest of the trial's simulated vectors
is recorded so reproducibility is checkable from the output alone.

Axis points with equal layouts form one solve group: an SNR sweep is one,
each point of an aperture or port-count sweep its own. Consecutive groups
whose readings fit in _BLOCK_READINGS together are drawn and solved as one
set: each solver runs once over the stacked rows of all their points and
estimators, one part per group (see estimators: every row is solved on its
own, so sets, blocks and worker chunks change no bit). A larger group is a
set of its own, solved in blocks of at most _BLOCK_READINGS readings.

A sweep is reduced in one pass: rows with equal included counts share one
row-batched jackknife (``_nmse_rows``; ``nmse_db`` is its one-row case).

Baselines in a trial:

* ``fas_mle`` / ``fas_ls``   one N-port sweep with correlated fading,
* ``multipoint_ls``          the same draw pushed through an identity
                             covariance (conventional multipoint array),
* ``single_antenna``         one antenna at the origin given an N-reading
                             budget. The readings of one measurement group
                             share a single fading realization: the channel
                             is quasi-static over the group, which is the
                             same assumption that lets the port sweep be
                             treated as simultaneous. Repeating a reading at
                             one position therefore does not average fading
                             down, and that is precisely the handicap the
                             port sweep escapes.
"""

import hashlib
import json
import math
import os
import warnings
from contextlib import nullcontext
from dataclasses import MISSING, asdict, dataclass, fields, replace
from itertools import repeat
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .channel import (SPACING_NOTE, CorrelationModel, FasLayout, _check_real,
                      average_mu_squared, build_covariance, philox_keys, standard_normal_rows)
from .estimators import (EstimateBatch, EstimatorConfig, _join, _solve_ls, _solve_mle,
                         solve_single_antenna)
from .forward_model import (FAR_FIELD_RATIO, SNR_CONVENTION, RssiProfile, Scene, in_near_field,
                            snr_to_sigma2)

NMSE_CONVENTION = ("nmse_db = 10*log10(mean(((d_hat - d_true)/d_true)^2)); "
                   "stderr: leave-one-out jackknife in dB")
NMSE_FLOOR_DB = -200.0

# Sweep axis -> (the spec field its values set, the spec fields it reads
# fixed). Of the point fields, a spec sets exactly those its axis reads.
AXES = {
    "snr_db": ("snr_db", ("n_ports", "aperture")),
    "aperture_w": ("aperture", ("spacing_h", "snr_db")),
    "port_count_n": ("n_ports", ("aperture", "snr_db")),
}
POINT_FIELDS = ("n_ports", "aperture", "snr_db", "spacing_h")

# Estimator -> (the measurement vector it reads, the solver it runs).
METHODS = {
    "fas_mle": ("fas", "mle"),
    "fas_ls": ("fas", "ls"),
    "multipoint_ls": ("mp", "ls"),
    "single_antenna": ("one", "single"),
}

# Sweep values of the two reproduction presets.
FIG2_SNR_VALUES = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
FIG3_W_VALUES = tuple(round(0.10 + 0.05 * i, 2) for i in range(19))


def default_scene():
    """Declared default scene of the reproduction presets."""
    return Scene(distance=10.0, bearing=math.pi / 3.0, tx_power_dbm=0.0,
                 gain_tx=1.0, gain_rx=1.0, path_loss_exp=2.0)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative sweep description.

    ``sweep_axis`` picks what ``axis_values`` mean: SNR in dB, normalized
    aperture W (with ``spacing_h`` fixing the per-port pitch, so the realized
    port count is max(2, round(W / spacing_h))), or the port count N. Of the
    ``POINT_FIELDS`` a spec sets exactly those ``AXES`` says its axis reads.
    A spec is frozen and checks itself (``validate``) when it is built.
    """

    sweep_axis: str
    axis_values: Sequence[float]
    trials: int
    base_seed: int
    estimators: Sequence[str]
    scene: Scene
    wavelength: float = FasLayout.wavelength
    spacing: str = "index"  # the presets' convention
    correlation_model: CorrelationModel = CorrelationModel.AVERAGE_MU
    n_ports: Optional[int] = None
    aperture: Optional[float] = None
    snr_db: Optional[float] = None
    spacing_h: Optional[float] = None
    mle_frozen_weights: bool = False

    def __post_init__(self):
        self.validate()

    @classmethod
    def from_dict(cls, cfg):
        """Validated spec from a config-file mapping (a dict).

        The schema is the spec's own fields, with the FasLayout fields
        (``n_ports``, ``aperture``, ``wavelength``, ``spacing``) nested under
        ``layout`` and the Scene fields under ``scene``. ``base_seed``
        defaults to 42, and the scene to ``default_scene()``, field by field.
        ``axis_values`` and ``estimators`` must be JSON arrays. Unknown keys
        are rejected at every level.
        """
        layout_keys = {f.name for f in fields(FasLayout)}
        layout_cfg, scene_cfg = cfg.get("layout", {}), cfg.get("scene", {})
        for where, mapping, allowed in (
                ("config", cfg, {f.name for f in fields(cls)} - layout_keys | {"layout"}),
                ("config.layout", layout_cfg, layout_keys),
                ("config.scene", scene_cfg, {f.name for f in fields(Scene)})):
            if not isinstance(mapping, dict):
                raise ValueError(f"{where} must be a JSON object")
            unknown = set(mapping) - allowed
            if unknown:
                raise ValueError(f"unknown key(s) in {where}: {sorted(unknown)}")
        kwargs = {"base_seed": 42, **cfg, **layout_cfg,
                  "scene": replace(default_scene(), **scene_cfg)}
        kwargs.pop("layout", None)
        missing = [f.name for f in fields(cls) if f.name not in kwargs
                   and f.default is MISSING]
        if missing:
            raise ValueError(f"missing key(s) in config: {missing}")
        for key in ("axis_values", "estimators"):
            if not isinstance(kwargs[key], list):
                raise ValueError(f"config {key} must be a JSON array, got {kwargs[key]!r}")
        if "wavelength" in kwargs:  # hashed as given: 1 and 1.0 would differ
            kwargs["wavelength"] = float(_check_real("wavelength", kwargs["wavelength"]))
        if "correlation_model" in kwargs:
            kwargs["correlation_model"] = CorrelationModel(kwargs["correlation_model"])
        return cls(**kwargs)

    def validate(self):
        if self.sweep_axis not in AXES:
            raise ValueError(f"sweep_axis must be one of {tuple(AXES)}, got {self.sweep_axis!r}")
        reads = AXES[self.sweep_axis][1]
        vals = [_check_real("axis_values", v) for v in self.axis_values]
        for name in POINT_FIELDS:
            if (getattr(self, name) is None) == (name in reads):
                verb = "needs" if name in reads else "does not read"
                raise ValueError(f"sweep_axis {self.sweep_axis!r} {verb} {name}")
            if name in reads:
                _check_real(name, getattr(self, name), positive=name == "spacing_h")
        if not vals or any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("axis_values must be non-empty and strictly increasing")
        if not _is_integer(self.trials) or self.trials < 100:
            raise ValueError(f"trials must be an integer >= 100, got {self.trials!r}")
        if not _is_integer(self.base_seed) or self.base_seed < 0:
            raise ValueError(f"base_seed must be a non-negative integer, got {self.base_seed!r}")
        if not isinstance(self.mle_frozen_weights, bool):
            raise ValueError(f"mle_frozen_weights must be true or false, "
                             f"got {self.mle_frozen_weights!r}")
        if not self.estimators:
            raise ValueError("estimator list is empty")
        for est in self.estimators:
            if est not in METHODS:
                raise ValueError(f"unknown estimator {est!r}; expected one of {tuple(METHODS)}")
        if len(set(self.estimators)) != len(list(self.estimators)):
            raise ValueError("estimator list contains duplicates")
        for name, kind in (("correlation_model", CorrelationModel), ("scene", Scene)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        checked = set()  # the noiseless RSSI depends on the layout and the scene alone
        for v in vals:  # every point's FasLayout checks its port count and wavelength
            layout = _resolve_point(self, float(v))[0]
            if layout not in checked:
                checked.add(layout)
                with np.errstate(all="ignore"):  # an overflow shows as a non-finite RSSI
                    rssi = self.scene.profile(layout).at(self.scene.distance)
                if not np.isfinite(rssi).all():
                    raise ValueError(f"the scene puts the noiseless RSSI beyond the float "
                                     f"range at {self.sweep_axis} = {float(v)}")

    def to_dict(self):
        """Every field as plain JSON values (the scene as a nested dict)."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "axis_values": [float(v) for v in self.axis_values],
                "trials": int(self.trials), "base_seed": int(self.base_seed),
                "estimators": list(self.estimators), "scene": asdict(self.scene),
                "correlation_model": self.correlation_model.value}

    def sha256(self):
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class ResultRow:
    axis_value: float
    estimator: str
    nmse_db: float
    stderr_db: float
    trials: int
    excluded: int
    realized_n: int
    flagged: bool
    draw_digest: str


@dataclass
class ResultTable:
    sweep_axis: str
    rows: List[ResultRow]
    meta: dict

    def row(self, axis_value, estimator):
        for r in self.rows:
            if r.estimator == estimator and math.isclose(r.axis_value, axis_value,
                                                         rel_tol=0.0, abs_tol=1e-12):
                return r
        raise KeyError(f"no row for ({axis_value}, {estimator})")

    def header_lines(self):
        return ["# fasloc result table"] + [f"# {key}: {value}"
                                            for key, value in self.meta.items()]

    def to_csv_string(self):
        """Header lines, then one column per ResultRow field: floats to 9
        significant digits, flags as 1/0."""
        columns = fields(ResultRow)
        out = self.header_lines()
        out.append(",".join(c.name for c in columns))
        for r in self.rows:
            out.append(",".join(_csv_cell(c.type, getattr(r, c.name)) for c in columns))
        return "\n".join(out) + "\n"

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv_string())

    def to_json_string(self):
        """Strict JSON: a row that excluded every trial has nmse_db null."""
        rows = [{**vars(r), "nmse_db": None if math.isnan(r.nmse_db) else r.nmse_db}
                for r in self.rows]
        payload = {"meta": self.meta, "rows": rows}
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"

    def to_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json_string())


def _is_integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _csv_cell(kind, value):
    if kind is float:
        return f"{value:.9g}"
    if kind is bool:
        return "1" if value else "0"
    return str(value)


def nmse_db(estimates, d_true):
    """Normalized MSE of distance estimates (an array or a sequence), in dB,
    with jackknife stderr: the one-row case of ``_nmse_rows``."""
    _check_real("d_true", d_true, positive=True)
    d_hats = np.asarray(estimates, dtype=float)
    if d_hats.size == 0:
        raise ValueError("empty estimate list")
    (value,), (se,) = _nmse_rows(d_hats.reshape(1, -1), d_true)
    return value, se


def _nmse_rows(d_hats, d_true):
    """``nmse_db`` of each row of a (rows, n) array of estimates, as lists of
    values and stderrs; a zero error sum is floored at NMSE_FLOOR_DB. A sum
    over the count has the bits of numpy's ``mean``. numpy sums each row of
    the contiguous table pairwise, as it sums the row alone, so the rows
    stacked with it move no bit; the value keeps ``math.log10``, whose last
    bit ``np.log10`` does not always give."""
    errs = ((d_hats - d_true) / d_true) ** 2
    n, total = errs.shape[1], errs.sum(axis=1)
    floor_lin = 10.0 ** (NMSE_FLOOR_DB / 10.0)
    values = [10.0 * math.log10(max(mse, floor_lin)) for mse in (total / n).tolist()]
    if n < 2:
        return values, [0.0] * len(values)
    loo = (total[:, np.newaxis] - errs) / (n - 1)
    theta = 10.0 * np.log10(np.maximum(loo, floor_lin))
    dev = theta - (theta.sum(axis=1) / n)[:, np.newaxis]
    return values, np.sqrt((n - 1) / n * np.sum(dev ** 2, axis=1)).tolist()


@dataclass
class _GroupContext:
    """A solve group's per-layout data; picklable for workers. Its axis
    points have equal layouts, so one ``profile`` (the link model of the
    group's part in each solver call of its set) and one ``means`` (the
    noiseless profile of each vector the estimators read, see ``METHODS``)
    serve all of them. ``points``: axis index and vector covariance factors.
    What the whole sweep shares stays in the spec and the solvers' config."""

    profile: RssiProfile
    means: dict
    a_coeff: float
    points: list


def _resolve_point(spec, axis_value):
    """Port layout and noise variance of one axis point: the swept field
    takes the axis value, the others keep the spec's."""
    point = {name: getattr(spec, name) for name in POINT_FIELDS}
    point[AXES[spec.sweep_axis][0]] = axis_value
    if point["spacing_h"] is not None:  # a fixed pitch sets the port count
        ratio = point["aperture"] / point["spacing_h"]
        point["n_ports"] = max(2, int(round(_check_real("aperture / spacing_h", ratio))))
    layout = FasLayout(point["n_ports"], point["aperture"], spec.wavelength, spec.spacing)
    return layout, snr_to_sigma2(point["snr_db"])


def _group_contexts(spec):
    """The solvers' one config and one context per solve group, in axis
    order; at most one far-field warning lists every axis value that
    simulates a port sweep too close. A group's one profile gives both
    port-sweep vectors' mean, the same bits."""
    groups = {}
    for axis_index, axis_value in enumerate(spec.axis_values):
        layout, sigma2 = _resolve_point(spec, float(axis_value))
        groups.setdefault(layout, []).append((axis_index, sigma2))
    scene = spec.scene
    read = {METHODS[est][0] for est in spec.estimators}
    lay = FasLayout(1, 0.0, spec.wavelength, "endpoint") if "one" in read else None
    one = lay and (lay, CorrelationModel.INDEPENDENT, scene.profile(lay).at(scene.distance))
    cfg = EstimatorConfig(search_bracket=(scene.distance / 20.0, scene.distance * 20.0),
                          frozen_weights=spec.mle_frozen_weights)
    independent = spec.correlation_model is CorrelationModel.INDEPENDENT
    near, ctxs = [], []
    for layout, members in groups.items():
        profile = scene.profile(layout)
        mean = profile.at(scene.distance)
        # layout, correlation model and noiseless mean of every vector a trial can
        # simulate, in the order the draw digest hashes them; those the estimators read
        vectors = {"fas": (layout, spec.correlation_model, mean),
                   "mp": (layout, CorrelationModel.INDEPENDENT, mean), "one": one}
        vectors = {name: v for name, v in vectors.items() if name in read}
        if read - {"one"} and in_near_field(layout, scene.distance):
            near += [float(spec.axis_values[i]) for i, _ in members]
        points = [(axis_index, {name: build_covariance(lay, model, sigma2).factor()
                                for name, (lay, model, _) in vectors.items()})
                  for axis_index, sigma2 in members]
        ctxs.append(_GroupContext(
            profile=profile, means={name: m for name, (_, _, m) in vectors.items()},
            a_coeff=0.0 if independent else average_mu_squared(layout), points=points))
    if near:
        warnings.warn(f"transmitter distance {scene.distance:.3g} m is less than "
                      f"{FAR_FIELD_RATIO:.0f}x the port span at {spec.sweep_axis} = {near}; "
                      "the equal-mean-power approximation degrades", stacklevel=3)
    return cfg, ctxs


def _simulate(ctx, factors, keys, gen):
    """Measurement rows of one point's trials and their digests, joined.

    ``keys`` holds the trials' Philox keys, one row each: the key of trial t
    at axis index j is that of ``Philox(SeedSequence((3, base_seed, j, t)))``,
    and one re-keyed generator (``gen``, or a new one for None) draws each
    trial's row of an (n_trials, N) block of normals (standard_normal_rows).
    Every vector of a trial is its noiseless profile plus the row times its
    covariance factor (the one-port reading uses the row's first normal).
    The product is stacked per row, (T, 1, k) @ (k, k), which gives the same
    bits as one snapshot of simulate_measurements, a (1, k) @ (k, k) per
    trial. A trial's digest hashes its vectors in order, one row of their
    concatenation; the trials' 16-character digests come back as one
    string, in trial order.
    """
    z = standard_normal_rows(keys, ctx.profile.n_ports, gen)
    rows = {}
    for name, factor in factors.items():
        k = factor.shape[0]
        rows[name] = ctx.means[name] + (z[:, np.newaxis, :k] @ factor.T)[:, 0, :]
    joined = _join(list(rows.values()), axis=1)
    return rows, "".join([hashlib.sha256(row.tobytes()).hexdigest()[:16] for row in joined])


# Solver name -> solve(parts, cfg): one EstimateBatch per part (rows, group
# context). The single antenna reads the one reading of the group's draw.
_SOLVERS = {
    "mle": lambda parts, cfg: _solve_mle([(X, c.profile, c.a_coeff) for X, c in parts], cfg),
    "ls": lambda parts, cfg: _solve_ls([(X, c.profile) for X, c in parts], cfg),
    "single": lambda parts, cfg: [solve_single_antenna(X, c.profile) for X, c in parts],
}

# Most readings (rows x ports) per solver call: small calls pay per-call
# overhead, and whole groups ran slower in three times the memory.
_BLOCK_READINGS = 2 ** 16


def _run_trials(spec, cfg, ctxs, t_lo, t_hi):
    """Per axis point of the groups ``ctxs`` of the sweep ``spec``, in order,
    {estimator: EstimateBatch} and the joined digests of trials [t_lo,
    t_hi), solved under ``cfg``. The keys of every (axis index, trial) pair
    come from one philox_keys pass; each set of groups (see the module
    docstring) is drawn by one generator, then solved."""
    axis = [axis_index for ctx in ctxs for axis_index, _ in ctx.points]
    tails = np.stack(np.meshgrid(axis, np.arange(t_lo, t_hi), indexing="ij"), axis=-1)
    keys = iter(np.split(philox_keys(spec.base_seed, tails.reshape(-1, 2)), len(axis)))
    n_trials = t_hi - t_lo
    by_solver = {}
    for est in spec.estimators:
        by_solver.setdefault(METHODS[est][1], []).append(est)
    sets, room = [], 0
    for ctx in ctxs:  # the readings of every estimator's vector of every trial
        size = n_trials * len(ctx.points) * sum(
            ctx.means[METHODS[est][0]].size for est in spec.estimators)
        if size > room:
            sets, room = sets + [[]], _BLOCK_READINGS
        sets[-1].append(ctx)
        room -= size
    out, gen = [], np.random.Generator(np.random.Philox(key=0))
    for groups in sets:
        sims = [[_simulate(c, f, next(keys), gen) for _, f in c.points] for c in groups]
        results = [{} for group in sims for _ in group]
        for solver, ests in by_solver.items():
            parts = [(_join([rows[METHODS[est][0]] for rows, _ in group for est in ests]), ctx)
                     for ctx, group in zip(groups, sims)]
            (X, ctx), *rest = parts
            step = max(1, _BLOCK_READINGS // X.shape[1])
            calls = [parts] if rest else [[(X[i:i + step], ctx)] for i in range(0, len(X), step)]
            blocks = [batch for call in calls for batch in _SOLVERS[solver](call, cfg)]
            # one block of n_trials rows per point and estimator, in order
            columns = [_join(c) for c in zip(*(vars(b).values() for b in blocks))]
            split = (EstimateBatch(*(c[i:i + n_trials] for c in columns))
                     for i in range(0, len(columns[0]), n_trials))
            for point_out in results:
                point_out.update(zip(ests, split))
        out += zip(results, [digests for group in sims for _, digests in group])
        del sims, parts, X, rest, calls  # this set's rows, before the next set is drawn
    return out


def _reduce(spec, points, chunks):
    """Result rows of the axis points (ctx, axis index) from the chunks of
    ``_run_trials``. A (point, estimator) row joins its converged d_hat over
    the chunks, in trial order; rows with equal included counts share one
    ``_nmse_rows`` call, and a row that included no trial has nmse_db nan."""
    trials = int(spec.trials)
    rows, by_count = [], {}
    for (ctx, axis_index), *parts in zip(points, *chunks):
        digests = "".join(part_digests for _, part_digests in parts)
        point_digest = hashlib.sha256(digests.encode("ascii")).hexdigest()[:16]
        for est in spec.estimators:
            d_hats = _join([part[est].d_hat for part, _ in parts])
            included = d_hats[_join([part[est].converged for part, _ in parts])]
            excluded = trials - included.size
            rows.append(ResultRow(
                axis_value=float(spec.axis_values[axis_index]), estimator=est,
                nmse_db=math.nan, stderr_db=0.0, trials=trials, excluded=excluded,
                realized_n=ctx.profile.n_ports, flagged=excluded > 0.05 * trials,
                draw_digest=point_digest))
            by_count.setdefault(included.size, []).append((rows[-1], included))
    by_count.pop(0, None)
    for group in by_count.values():
        values, ses = _nmse_rows(np.stack([d for _, d in group]), spec.scene.distance)
        for (row, _), value, se in zip(group, values, ses):
            row.nmse_db, row.stderr_db = value, se
    return rows


def run_experiment(spec, workers=1):
    """Execute the sweep and return its ResultTable.

    Trials are independent work items, run in ``workers`` chunks by trial
    index, each over every solve group (an SNR sweep is one group, each point
    of an aperture or port-count sweep its own): through ``map``, or with
    ``workers > 1`` a process pool's ``map`` of at most ``os.cpu_count()``
    processes; chunks reduce in order. Every estimator result depends on its
    own trial alone, so the table bytes do not depend on the worker count.
    """
    if not _is_integer(workers) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    bounds = np.linspace(0, spec.trials, min(workers, spec.trials) + 1).astype(int).tolist()
    cfg, ctxs = _group_contexts(spec)
    pool, run = nullcontext(), map
    if workers > 1:  # imported only here: the pool's modules are slow to load
        from concurrent.futures import ProcessPoolExecutor
        # a pool forks all its processes at the first submit
        pool = ProcessPoolExecutor(max_workers=min(len(bounds) - 1, os.cpu_count() or 1))
        run = pool.map
    with pool:
        chunks = list(run(_run_trials, repeat(spec), repeat(cfg), repeat(ctxs), bounds[:-1],
                          bounds[1:]))
    points = [(ctx, axis_index) for ctx in ctxs for axis_index, _ in ctx.points]
    rows = _reduce(spec, points, chunks)  # groups are runs of consecutive axis points

    meta = {
        "version": __version__,
        "spec_sha256": spec.sha256(),
        "base_seed": int(spec.base_seed),
        "sweep_axis": spec.sweep_axis,
        "snr_convention": SNR_CONVENTION,
        "nmse_convention": NMSE_CONVENTION,
        "spacing_convention": SPACING_NOTE[spec.spacing],
        "correlation_model": spec.correlation_model.value,
        "mle_frozen_weights": spec.mle_frozen_weights,
    }
    return ResultTable(sweep_axis=spec.sweep_axis, rows=rows, meta=meta)


def doubling_gain(table, estimator):
    """NMSE improvement per port-count doubling, in dB.

    For every axis value N whose double 2N is also on the axis, returns
    nmse(N) - nmse(2N); positive means doubling the port count helped.
    """
    if table.sweep_axis != "port_count_n":
        raise ValueError("doubling_gain requires a port-count sweep")
    values = sorted({r.axis_value for r in table.rows})
    gains = [table.row(v, estimator).nmse_db - table.row(2 * v, estimator).nmse_db
             for v in values if 2 * v in values]
    if not gains:
        raise ValueError("axis contains no doubling pairs")
    return gains


def find_extrema(table, estimator, window):
    """Interior local extrema of the NMSE-vs-axis curve inside a window.

    A grid point is an extremum when the discrete slopes on its two sides
    change sign and each exceeds twice its propagated stderr. Returns a list
    of dicts with the location, kind, and the two slopes.
    """
    rows = sorted((r for r in table.rows if r.estimator == estimator),
                  key=lambda r: r.axis_value)
    if len(rows) < 3:
        raise ValueError("need at least three axis points to detect an extremum")
    lo, hi = window
    found = []
    for j in range(1, len(rows) - 1):
        w = rows[j].axis_value
        if not lo <= w <= hi:
            continue
        s_in = rows[j].nmse_db - rows[j - 1].nmse_db
        s_out = rows[j + 1].nmse_db - rows[j].nmse_db
        se_in = 2.0 * math.hypot(rows[j].stderr_db, rows[j - 1].stderr_db)
        se_out = 2.0 * math.hypot(rows[j + 1].stderr_db, rows[j].stderr_db)
        if s_in * s_out < 0.0 and abs(s_in) > se_in and abs(s_out) > se_out:
            found.append({
                "axis_value": w,
                "kind": "min" if s_in < 0.0 else "max",
                "slope_in_db": s_in,
                "slope_out_db": s_out,
            })
    return found


def fig2_spec(base_seed=42, trials=10000):
    """SNR sweep preset: N = 12, W = 0.5, the paper's four estimators."""
    return ExperimentSpec(
        sweep_axis="snr_db", axis_values=FIG2_SNR_VALUES, trials=trials,
        base_seed=base_seed,
        estimators=["fas_mle", "fas_ls", "multipoint_ls", "single_antenna"],
        scene=default_scene(), n_ports=12, aperture=0.5,
    )


def fig3_spec(spacing_h=0.01, base_seed=42, trials=10000):
    """Aperture sweep preset at SNR 10 dB and fixed per-port pitch.

    The realized port count round(W / spacing_h) varies along the axis and
    is recorded per row.
    """
    return ExperimentSpec(
        sweep_axis="aperture_w", axis_values=FIG3_W_VALUES, trials=trials,
        base_seed=base_seed, estimators=["fas_ls"], scene=default_scene(),
        snr_db=10.0, spacing_h=spacing_h,
    )
