"""Sweep runner: NMSE aggregation, determinism, pairing, and table format."""

import hashlib
import json
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fasloc.experiments as experiments
from fasloc.channel import CorrelationModel
from fasloc.estimators import EstimateBatch
from fasloc.experiments import (AXES, FIG2_SNR_VALUES, METHODS, NMSE_FLOOR_DB, POINT_FIELDS,
                                ExperimentSpec,
                                ResultRow, ResultTable, default_scene,
                                doubling_gain, fig2_spec, fig3_spec,
                                find_extrema, nmse_db, run_experiment)
from fasloc.forward_model import FAR_FIELD_RATIO

# Byte pins of the spec hash and the serialised tables, computed before the
# spec schema and the row serialiser were derived from the dataclass fields.
SPEC_SHA256 = {
    "fig2": "318abdef9f2ff9c49ed691281f6f4b2cf376da26292ea6bf1dd7abe33eb3a0d8",
    "fig3_h0.05": "a6cf52185b11e0cabbfc5895159ab044b228a4924c7d4428a93910130b56eb96",
    "fig3_h0.01": "18292831137834103accbeee5262c7f5d2a4f1474d0882b69ef73c34e13a1759",
    "small": "b8849a1e2bbe66660829c7c78e9ddfb0178cb45436655058627751a7cdf5e482",
}
SMALL_CSV_SHA256 = "278d59c3782fd5df41e4e053bb66f9c4292fd61f8b36e2a179d837aebbd8bf37"
SMALL_JSON_SHA256 = "ed880a5dcd772a60f74943273844b8143bc0e6917d3587b0f7b12ba220709d80"


def small_spec(**overrides):
    base = dict(
        sweep_axis="snr_db", axis_values=(0.0, 10.0), trials=100, base_seed=7,
        estimators=["fas_mle", "fas_ls"], scene=default_scene(),
        n_ports=12, aperture=0.5,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------- nmse

def test_nmse_floor_on_perfect_estimates():
    ests = [10.0] * 50
    value, se = nmse_db(ests, 10.0)
    assert value == -200.0
    assert se == 0.0


def test_nmse_unit_normalized_error():
    value, se = nmse_db([20.0, 20.0, 20.0], 10.0)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-9)


def test_nmse_matches_analytic_gaussian_case():
    rng = np.random.default_rng(55)
    d = 10.0
    d_hats = d + rng.normal(0.0, 0.1 * d, size=100_000)
    value, se = nmse_db(d_hats, d)
    assert value == pytest.approx(-20.0, abs=0.2)
    assert 0.0 < se < 0.05


def test_nmse_input_validation():
    with pytest.raises(ValueError):
        nmse_db([], 10.0)
    with pytest.raises(ValueError):
        nmse_db([10.0], 0.0)


def nmse_db_by_means(estimates, d_true):
    """nmse_db as it was written with numpy's ``mean``: the reference bits."""
    errs = ((np.asarray(estimates, dtype=float) - d_true) / d_true) ** 2
    floor_lin = 10.0 ** (NMSE_FLOOR_DB / 10.0)
    value = 10.0 * math.log10(max(float(errs.mean()), floor_lin))
    n = errs.size
    if n < 2:
        return value, 0.0
    theta = 10.0 * np.log10(np.maximum((errs.sum() - errs) / (n - 1), floor_lin))
    return value, math.sqrt((n - 1) / n * float(np.sum((theta - theta.mean()) ** 2)))


@st.composite
def estimate_sets(draw):
    """1 to 10,000 estimates whose squared relative errors span 1e-30 to 1e30
    in log scale, with a share of exact ones (errors at the NMSE floor)."""
    n = draw(st.integers(1, 3) | st.integers(4, 10_000))
    d_true = draw(st.floats(1e-3, 1e3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo, hi = sorted((draw(st.floats(-15.0, 15.0)), draw(st.floats(-15.0, 15.0))))
    rel = 10.0 ** rng.uniform(lo, hi, n) * rng.choice([-1.0, 1.0], n)
    d_hats = d_true * (1.0 + rel)
    d_hats[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = d_true
    return d_hats, d_true


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=estimate_sets())
def test_nmse_sums_the_errors_once_with_the_bits_of_the_means(case):
    d_hats, d_true = case
    got, want = nmse_db(d_hats, d_true), nmse_db_by_means(d_hats, d_true)
    assert [x.hex() for x in got] == [x.hex() for x in want]


@st.composite
def chunked_sweeps(draw):
    """A sweep of 1 to 3 points and 1 to 4 estimators over 100 to 10,000
    trials, split into 1 to 4 chunks, whose rows include counts drawn from a
    small pool (so several rows share a count and others do not), from 0 and
    1 to every trial. The included estimates are as in ``estimate_sets``; the
    excluded ones are nan."""
    trials = draw(st.integers(100, 10_000))
    spec = small_spec(trials=trials, axis_values=FIG2_SNR_VALUES[:draw(st.integers(1, 3))],
                      estimators=draw(st.permutations(list(METHODS)))[:draw(st.integers(1, 4))])
    d_true = spec.scene.distance
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = draw(st.lists(st.sampled_from([0, 1, 2, trials]) | st.integers(0, trials),
                         min_size=1, max_size=3))
    exact = draw(st.sampled_from([0.0, 0.3, 1.0]))
    batches = []
    for _ in range(len(spec.axis_values) * len(spec.estimators)):
        converged = np.zeros(trials, dtype=bool)
        converged[rng.permutation(trials)[:pool[rng.integers(len(pool))]]] = True
        lo, hi = sorted(rng.uniform(-15.0, 15.0, 2))
        d_hats = d_true * (1.0 + 10.0 ** rng.uniform(lo, hi, trials)
                           * rng.choice([-1.0, 1.0], trials))
        d_hats[rng.random(trials) < exact] = d_true
        d_hats[~converged] = np.nan
        batches.append(EstimateBatch(d_hats, converged, np.zeros(trials, dtype=np.int64),
                                     np.zeros(trials)))
    cuts = sorted(draw(st.sets(st.integers(1, trials - 1), max_size=3)))
    return spec, batches, [0, *cuts, trials]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=chunked_sweeps())
def test_the_sweep_reduction_gives_each_row_the_bits_of_its_nmse_db(case):
    spec, batches, bounds = case
    ests = list(spec.estimators)
    points = [(SimpleNamespace(profile=SimpleNamespace(n_ports=12)), i)
              for i in range(len(spec.axis_values))]
    chunks = [[({est: EstimateBatch(*(f[lo:hi] for f in vars(batches[k * len(ests) + e])
                                                .values()))
                 for e, est in enumerate(ests)}, "0123456789abcdef" * (hi - lo))
               for k in range(len(points))] for lo, hi in zip(bounds[:-1], bounds[1:])]
    rows = experiments._reduce(spec, points, chunks)
    assert [(r.axis_value, r.estimator) for r in rows] == \
        [(float(v), est) for v in spec.axis_values for est in ests]
    for row, batch in zip(rows, batches):
        included = batch.d_hat[batch.converged]
        assert row.excluded == spec.trials - included.size
        want = nmse_db(included, spec.scene.distance) if included.size else (math.nan, 0.0)
        assert [row.nmse_db.hex(), row.stderr_db.hex()] == [x.hex() for x in want]


def test_a_row_value_takes_math_log10():
    # here 10 * np.log10 of the error is one bit off 10 * math.log10 of it
    err = ((9.4024184599484 - 10.0) / 10.0) ** 2
    assert 10.0 * np.log10(err) != 10.0 * math.log10(err)
    values, _ = experiments._nmse_rows(np.array([[9.4024184599484], [10.5]]), 10.0)
    assert values[0].hex() == (10.0 * math.log10(err)).hex()
    assert nmse_db([9.4024184599484], 10.0)[0].hex() == values[0].hex()


@pytest.mark.parametrize("n", [2, 3, 7])
def test_the_batched_jackknife_is_a_brute_force_leave_one_out(n):
    rng = np.random.default_rng(n)
    d_true = 10.0
    d_hats = d_true * (1.0 + rng.normal(0.0, 0.1, (6, n)))
    d_hats[1] = d_true  # every estimate exact: the floor
    d_hats[2, 1:] = d_true  # one error: its leave-one-out mean is at the floor
    floor_lin = 10.0 ** (NMSE_FLOOR_DB / 10.0)
    values, ses = experiments._nmse_rows(d_hats, d_true)
    for row, value, se in zip(d_hats, values, ses):
        errs = [((d - d_true) / d_true) ** 2 for d in row]
        theta = [10.0 * math.log10(max(sum(errs[:i] + errs[i + 1:]) / (n - 1), floor_lin))
                 for i in range(n)]
        mean = sum(theta) / n
        assert value == pytest.approx(10.0 * math.log10(max(sum(errs) / n, floor_lin)),
                                      rel=1e-12, abs=1e-12)
        assert se == pytest.approx(math.sqrt((n - 1) / n * sum((t - mean) ** 2 for t in theta)),
                                   rel=1e-9, abs=1e-12)
    assert values[1] == NMSE_FLOOR_DB and ses[1] == 0.0


# ---------------------------------------------------------------- spec checks

def test_spec_validation_catches_conflicts():
    with pytest.raises(ValueError):
        small_spec(trials=50).validate()
    with pytest.raises(ValueError):
        small_spec(axis_values=(10.0, 0.0)).validate()
    with pytest.raises(ValueError):
        small_spec(estimators=["fas_mle", "fas_mle"]).validate()
    with pytest.raises(ValueError):
        small_spec(estimators=["nearest_neighbor"]).validate()
    with pytest.raises(ValueError):
        small_spec(snr_db=10.0).validate()  # SNR both fixed and swept
    with pytest.raises(ValueError):
        ExperimentSpec(sweep_axis="port_count_n", axis_values=(3.0, 6.0),
                       trials=100, base_seed=1, estimators=["fas_ls"],
                       scene=default_scene(), n_ports=12, aperture=0.5,
                       snr_db=10.0).validate()
    with pytest.raises(ValueError):
        ExperimentSpec(sweep_axis="aperture_w", axis_values=(0.1, 0.2),
                       trials=100, base_seed=1, estimators=["fas_ls"],
                       scene=default_scene(), snr_db=10.0).validate()


@pytest.mark.parametrize("axis", list(AXES))
def test_spec_sets_exactly_the_point_fields_its_axis_reads(axis):
    values = {"n_ports": 8, "aperture": 0.5, "snr_db": 10.0, "spacing_h": 0.05}
    reads = {name: values[name] for name in AXES[axis][1]}

    def spec(**point):
        return ExperimentSpec(sweep_axis=axis, axis_values=(4.0, 8.0), trials=100,
                              base_seed=1, estimators=["fas_ls"], scene=default_scene(),
                              **point)

    spec(**reads).validate()
    for name in POINT_FIELDS:
        if name in reads:
            point = {k: v for k, v in reads.items() if k != name}
            message = f"needs {name}"
        else:
            point = {**reads, name: values[name]}
            message = f"does not read {name}"
        with pytest.raises(ValueError, match=message):
            spec(**point).validate()


@pytest.mark.parametrize("seed", [-1, True, 1.5, "7", None])
def test_spec_rejects_a_base_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="base_seed"):
        small_spec(base_seed=seed).validate()
    small_spec(base_seed=np.int64(3)).validate()
    small_spec(base_seed=2 ** 64 + 5).validate()


@pytest.mark.parametrize("field, value", [
    ("trials", 150.9), ("trials", 150.0), ("trials", True), ("trials", "150"),
    ("mle_frozen_weights", "no"), ("mle_frozen_weights", 1), ("mle_frozen_weights", None),
])
def test_spec_rejects_non_integer_trials_and_non_bool_flag(field, value):
    with pytest.raises(ValueError, match=field):
        small_spec(**{field: value}).validate()
    small_spec(trials=np.int64(150), mle_frozen_weights=True).validate()


def test_spec_hash_pins():
    assert fig2_spec().sha256() == SPEC_SHA256["fig2"]
    assert fig3_spec(0.05).sha256() == SPEC_SHA256["fig3_h0.05"]
    assert fig3_spec(0.01).sha256() == SPEC_SHA256["fig3_h0.01"]
    assert small_spec().sha256() == SPEC_SHA256["small"]


def fig2_config(**overrides):
    cfg = {"sweep_axis": "snr_db", "axis_values": list(FIG2_SNR_VALUES), "trials": 10000,
           "estimators": list(METHODS), "layout": {"n_ports": 12, "aperture": 0.5}}
    cfg.update(overrides)
    return cfg


def test_from_dict_defaults_reproduce_the_fig2_preset():
    assert ExperimentSpec.from_dict(fig2_config()).to_dict() == fig2_spec().to_dict()
    spec = ExperimentSpec.from_dict(fig2_config(scene={"tx_power_dbm": -3},
                                                correlation_model="jakes"))
    assert spec.scene == replace(default_scene(), tx_power_dbm=-3)
    assert spec.correlation_model is CorrelationModel.JAKES_EXACT


@pytest.mark.parametrize("cfg, message", [
    (fig2_config(turbo=True), "turbo"),
    (fig2_config(n_ports=12), "n_ports"),  # a layout field, only under "layout"
    (fig2_config(layout={"n_ports": 12, "aperture": 0.5, "pitch": 1}), "pitch"),
    (fig2_config(scene={"range": 5.0}), "range"),
    (fig2_config(scene=[1, 2]), "config.scene"),
    ({k: v for k, v in fig2_config().items() if k != "trials"}, "trials"),
    (fig2_config(trials=150.9), "trials"),
    (fig2_config(mle_frozen_weights="no"), "mle_frozen_weights"),
    (fig2_config(sweep_axis="port_count_n", axis_values=[4, 10 ** 12], snr_db=10.0,
                 layout={"aperture": 0.5}), "n_ports must be at most"),
    ({"sweep_axis": "aperture_w", "axis_values": [0.1, 1000.0], "trials": 100,
      "estimators": ["fas_ls"], "snr_db": 10.0, "spacing_h": 0.001},  # W / spacing_h = 10**6
     "n_ports must be at most"),
])
def test_from_dict_rejects_bad_configs(cfg, message):
    with pytest.raises(ValueError, match=message):
        ExperimentSpec.from_dict(cfg)


@pytest.mark.parametrize("field, value", [
    ("correlation_model", "jakes"), ("correlation_model", None), ("scene", None),
    ("scene", {"distance": 10.0, "bearing": 1.0}),
])
def test_a_spec_built_in_python_checks_the_types_of_its_model_and_scene(field, value):
    # a string model would otherwise fail later, in sha256() and build_covariance
    with pytest.raises(ValueError, match=field):
        small_spec(**{field: value})
    spec = ExperimentSpec.from_dict(fig2_config(correlation_model="jakes"))
    assert spec.correlation_model is CorrelationModel.JAKES_EXACT
    assert len(spec.sha256()) == 64


def test_a_spec_checks_itself_when_built():
    with pytest.raises(ValueError, match="trials"):
        small_spec(trials=50)
    spec = small_spec()
    with pytest.raises(AttributeError):
        spec.trials = 50  # frozen: a built spec stays checked


def test_spec_hash_tracks_content():
    assert small_spec().sha256() == small_spec().sha256()
    assert small_spec().sha256() != small_spec(base_seed=8).sha256()


# ---------------------------------------------------------------- runner

@pytest.fixture(scope="module")
def small_table():
    return run_experiment(small_spec())


def test_every_axis_estimator_pair_appears_once(small_table):
    seen = {(r.axis_value, r.estimator) for r in small_table.rows}
    assert len(seen) == len(small_table.rows) == 4


def test_run_is_deterministic(small_table):
    again = run_experiment(small_spec())
    assert again.to_csv_string() == small_table.to_csv_string()


def aperture_spec():
    """An aperture sweep of three solve groups (N = 4, 6, 8) and all four
    estimators, whose 100 trials fit one solver call per solver."""
    return ExperimentSpec(sweep_axis="aperture_w", axis_values=(0.2, 0.3, 0.4), trials=100,
                          base_seed=7, estimators=list(METHODS), scene=default_scene(),
                          snr_db=10.0, spacing_h=0.05)


@pytest.mark.parametrize("spec, workers", [(small_spec(), 2), (aperture_spec(), 2),
                                           (aperture_spec(), 3)],
                         ids=["snr_db-2", "aperture_w-2", "aperture_w-3"])
def test_workers_do_not_change_bytes(spec, workers):
    # an snr_db sweep is one solve group, chunked by trial; every chunk of
    # the aperture sweep spans its three groups, solved together
    serial = run_experiment(spec)
    par = run_experiment(spec, workers=workers)
    assert par.to_csv_string() == serial.to_csv_string()
    assert par.to_json_string() == serial.to_json_string()


class InProcessPool:
    """A stand-in for ProcessPoolExecutor that records its size and maps in
    this process, so no worker process is ever started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def in_process_pool(monkeypatch):
    import concurrent.futures
    monkeypatch.setattr(InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return InProcessPool


@pytest.mark.parametrize("workers, cpus, size", [
    (100000, 4, 4), (3, 16, 3), (100000, None, 1), (2, 1, 1), (500, 512, 100),
])
def test_the_pool_never_outgrows_the_chunks_or_the_cpus(small_table, in_process_pool,
                                                        monkeypatch, workers, cpus, size):
    # min(workers, chunk count, os.cpu_count() or 1); chunks stay one per worker
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    chunks = []
    real = experiments._run_trials
    monkeypatch.setattr(experiments, "_run_trials", lambda *a: chunks.append(a) or real(*a))
    table = run_experiment(small_spec(), workers=workers)
    assert in_process_pool.sizes == [size]
    assert len(chunks) == min(workers, 100)
    assert table.to_csv_string() == small_table.to_csv_string()


@pytest.mark.parametrize("workers", [1, 3])
def test_a_sweep_derives_its_trial_keys_once_per_chunk(in_process_pool, monkeypatch, workers):
    # 19 aperture points, one solve group each, and one key pass per chunk
    import fasloc.channel as channel
    calls = []
    real = channel._hash_keys
    monkeypatch.setattr(channel, "_hash_keys", lambda words: calls.append(words) or real(words))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the far-field warning
        run_experiment(fig3_spec(spacing_h=0.05, trials=100), workers=workers)
    assert len(calls) == workers
    assert sum(len(words) for words in calls) == 19 * 100


@pytest.mark.parametrize("spec, decompositions", [
    (fig3_spec(spacing_h=0.01, trials=100), 0), (fig2_spec(trials=100), 0),
    (replace(fig2_spec(trials=100), correlation_model=CorrelationModel.JAKES_EXACT),
     len(FIG2_SNR_VALUES))], ids=["fig3_fine", "fig2", "fig2_jakes"])
def test_only_a_jakes_sweep_decomposes_its_covariances(monkeypatch, spec, decompositions):
    # the equicorrelated and independent PSD checks read the closed-form
    # spectrum; a Jakes point decomposes its own matrix once
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda r: calls.append(r.shape) or eigvalsh(r))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # fig3's far-field warning
        run_experiment(spec)
    assert calls == [(12, 12)] * decompositions


@pytest.mark.parametrize("make_spec, layouts, run_profiles", [
    (lambda: fig2_spec(trials=100), 1, 2),
    (lambda: fig3_spec(spacing_h=0.01, trials=100), 19, 19)], ids=["fig2", "fig3_fine"])
@pytest.mark.parametrize("workers", [1, 3])
def test_a_sweep_builds_one_link_model_per_layout_and_one_generator_per_call(
        monkeypatch, in_process_pool, make_spec, layouts, run_profiles, workers):
    import fasloc.forward_model as forward_model
    built, philox, per_call = [], [], []
    init, real_philox = forward_model.RssiProfile.__init__, np.random.Philox
    monkeypatch.setattr(forward_model.RssiProfile, "__init__",
                        lambda self, *args: built.append(args[0]) or init(self, *args))
    spec = make_spec()
    # validation checks the noiseless RSSI once per distinct layout
    assert len(built) == len(set(built)) == layouts
    built.clear()
    monkeypatch.setattr(np.random, "Philox",
                        lambda *a, **k: philox.append(1) or real_philox(*a, **k))
    run_trials = experiments._run_trials

    def counted(*args):
        before = len(philox)
        out = run_trials(*args)
        per_call.append(len(philox) - before)
        return out
    monkeypatch.setattr(experiments, "_run_trials", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # fig3's far-field warning
        table = run_experiment(spec, workers=workers)
    # one profile per layout, plus the one-port layout that single_antenna reads
    assert len(built) == run_profiles
    assert per_call == [1] * workers and len(philox) == workers
    assert len(table.rows) == len(spec.axis_values) * len(spec.estimators)


def test_two_threads_sweep_at_once_with_the_bits_of_one():
    # each run_experiment call draws with a generator of its own; wide draws
    # and cheap solves, and a tiny switch interval, make the threads
    # interleave inside the draw loop
    import sys
    from concurrent.futures import ThreadPoolExecutor
    spec = small_spec(estimators=["single_antenna"], n_ports=400)
    serial = run_experiment(spec).to_csv_string()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            tables = list(pool.map(lambda _: run_experiment(spec), range(8)))
    finally:
        sys.setswitchinterval(interval)
    assert {t.to_csv_string() for t in tables} == {serial}


def test_estimator_rows_do_not_depend_on_companions(small_table):
    # paired-draw discipline: adding estimators must not perturb the draws
    # the others consume
    solo = run_experiment(small_spec(estimators=["fas_ls"]))
    for av in (0.0, 10.0):
        assert solo.row(av, "fas_ls").nmse_db == small_table.row(av, "fas_ls").nmse_db


def test_stderr_finite_and_positive(small_table):
    for r in small_table.rows:
        assert math.isfinite(r.stderr_db)
        assert r.stderr_db > 0.0


def test_nmse_improves_with_snr(small_table):
    for est in ("fas_mle", "fas_ls"):
        assert small_table.row(10.0, est).nmse_db < small_table.row(0.0, est).nmse_db


def test_draw_digest_shared_within_axis_point(small_table):
    for av in (0.0, 10.0):
        digests = {r.draw_digest for r in small_table.rows if r.axis_value == av}
        assert len(digests) == 1


def test_non_convergence_excluded_and_flagged(monkeypatch):
    real = experiments._solve_ls

    def flaky(parts, cfg):
        batches = real(parts, cfg)
        for batch in batches:
            batch.converged[9::10] = False  # fail every tenth trial
        return batches

    monkeypatch.setattr(experiments, "_solve_ls", flaky)
    table = run_experiment(small_spec(estimators=["fas_ls"], axis_values=(10.0,)))
    row = table.row(10.0, "fas_ls")
    assert row.excluded == 10
    assert row.flagged


# ---------------------------------------------------------------- solve groups

def _count_solves(monkeypatch):
    """Record (solver, [(rows, ports) of each part]) of every solver call of
    the sweeps."""
    calls = []
    for name, solve in list(experiments._SOLVERS.items()):
        monkeypatch.setitem(experiments._SOLVERS, name,
                            lambda parts, name=name, solve=solve:
                            calls.append((name, [X.shape for X, _ in parts])) or solve(parts))
    return calls


def test_an_snr_sweep_is_one_solve_group(monkeypatch):
    calls = _count_solves(monkeypatch)
    run_experiment(fig2_spec(trials=100))
    # 7 points x 100 trials, stacked over both least-squares estimators
    assert sorted(calls) == [("ls", [(1400, 12)]), ("mle", [(700, 12)]),
                             ("single", [(700, 1)])]


def test_small_solve_groups_are_solved_together(monkeypatch):
    # 19 groups of N = 10..100 ports: 104,500 readings, two sets under the cap
    calls = _count_solves(monkeypatch)
    with pytest.warns(UserWarning, match="equal-mean-power"):
        run_experiment(fig3_spec(spacing_h=0.01, trials=100))
    assert [name for name, _ in calls] == ["ls", "ls"]
    assert [ports for _, parts in calls for _, ports in parts] == list(range(10, 101, 5))
    for _, parts in calls:
        assert sum(rows * ports for rows, ports in parts) <= experiments._BLOCK_READINGS


@pytest.mark.parametrize("spec", [fig2_spec(base_seed=3, trials=100),
                                  fig3_spec(spacing_h=0.05, base_seed=3, trials=100),
                                  replace(aperture_spec(), trials=200)],
                         ids=["fig2", "fig3_h0.05", "aperture_w"])
def test_solve_blocks_do_not_change_bytes(monkeypatch, spec):
    calls = _count_solves(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # far field
        default = run_experiment(spec)
        # every group of an aperture sweep has its own part in one call
        groups = len(spec.axis_values) if spec.sweep_axis == "aperture_w" else 1
        assert [len(parts) for _, parts in calls] == [groups] * len(calls)
        calls.clear()
        monkeypatch.setattr(experiments, "_BLOCK_READINGS", 100)
        blocked = run_experiment(spec)
    assert max(sum(rows * ports for rows, ports in parts) for _, parts in calls) <= 100
    assert len(calls) > 100
    assert blocked.to_csv_string() == default.to_csv_string()
    assert blocked.to_json_string() == default.to_json_string()


def test_a_sweep_warns_of_the_near_field_once():
    spec = fig3_spec(spacing_h=0.01, trials=100)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_experiment(spec)
    assert len(caught) == 1 and caught[0].category is UserWarning
    near = [v for v in spec.axis_values if spec.scene.distance
            < FAR_FIELD_RATIO * experiments._resolve_point(spec, v)[0].span_m]
    assert 0 < len(near) < len(spec.axis_values)
    assert f"aperture_w = {near};" in str(caught[0].message)


# ---------------------------------------------------------------- fig presets

def test_fig2_preset_shape():
    spec = fig2_spec(trials=100)
    spec.validate()
    assert len(spec.axis_values) == 7
    assert len(spec.estimators) == 4


def test_fig3_realized_port_counts():
    spec = fig3_spec(spacing_h=0.05, trials=100)
    spec.validate()
    table = run_experiment(ExperimentSpec(**{**spec.__dict__,
                                             "axis_values": (0.10, 0.25, 0.50)}))
    assert table.row(0.10, "fas_ls").realized_n == 2
    assert table.row(0.25, "fas_ls").realized_n == 5
    assert table.row(0.50, "fas_ls").realized_n == 10


# ---------------------------------------------------------------- aggregation

def _toy_table(values, stderr=0.01):
    rows = [ResultRow(axis_value=v, estimator="fas_ls", nmse_db=y,
                      stderr_db=stderr, trials=1000, excluded=0,
                      realized_n=int(v), flagged=False, draw_digest="x")
            for v, y in values]
    return ResultTable(sweep_axis="port_count_n", rows=rows, meta={})


def test_doubling_gain_zero_for_flat_curve():
    table = _toy_table([(3, -10.0), (6, -10.0), (12, -10.0), (24, -10.0)])
    assert doubling_gain(table, "fas_ls") == [0.0, 0.0, 0.0]


def test_doubling_gain_orders_pairs():
    table = _toy_table([(3, -10.0), (6, -13.0), (12, -15.5), (24, -18.0)])
    assert doubling_gain(table, "fas_ls") == pytest.approx([3.0, 2.5, 2.5])


def test_doubling_gain_requires_pairs():
    table = _toy_table([(3, -10.0), (5, -12.0)])
    with pytest.raises(ValueError):
        doubling_gain(table, "fas_ls")
    with pytest.raises(ValueError):
        doubling_gain(ResultTable("snr_db", table.rows, {}), "fas_ls")


def test_multipoint_gains_three_db_per_doubling():
    # independent noise averaged over N ports: each doubling is 10*log10(2)
    spec = ExperimentSpec(sweep_axis="port_count_n", axis_values=(3.0, 6.0, 12.0),
                          trials=2000, base_seed=3, estimators=["multipoint_ls"],
                          scene=default_scene(), aperture=0.5, snr_db=10.0,
                          spacing="index",
                          correlation_model=CorrelationModel.INDEPENDENT)
    gains = doubling_gain(run_experiment(spec), "multipoint_ls")
    assert gains == pytest.approx([10.0 * math.log10(2.0)] * 2, abs=0.5)


def test_extremum_detector_on_synthetic_curves():
    vee = _toy_table([(1, -10.0), (2, -12.0), (3, -11.0), (4, -10.5)])
    found = find_extrema(vee, "fas_ls", window=(1.5, 3.5))
    assert len(found) == 1
    assert found[0]["axis_value"] == 2
    assert found[0]["kind"] == "min"
    # same shape but slopes inside the noise band: nothing detected
    noisy = _toy_table([(1, -10.0), (2, -12.0), (3, -11.0), (4, -10.5)], stderr=2.0)
    assert find_extrema(noisy, "fas_ls", window=(1.5, 3.5)) == []
    flat = _toy_table([(1, -10.0), (2, -11.0), (3, -12.0), (4, -13.0)])
    assert find_extrema(flat, "fas_ls", window=(1.5, 3.5)) == []


# ---------------------------------------------------------------- output format

def test_csv_layout(small_table, tmp_path):
    path = tmp_path / "out.csv"
    small_table.to_csv(path)
    lines = path.read_text().splitlines()
    headers = [ln for ln in lines if ln.startswith("#")]
    assert any("spec_sha256" in ln for ln in headers)
    assert any("snr_convention" in ln for ln in headers)
    assert any("nmse_convention" in ln for ln in headers)
    assert any("spacing_convention" in ln for ln in headers)
    assert any("version" in ln for ln in headers)
    assert any("base_seed" in ln for ln in headers)
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0].split(",")[0] == "axis_value"
    assert len(body) == 1 + len(small_table.rows)


def test_serialised_tables_are_pinned(small_table):
    assert small_table.meta["spec_sha256"] == SPEC_SHA256["small"]
    csv_text, json_text = small_table.to_csv_string(), small_table.to_json_string()
    assert hashlib.sha256(csv_text.encode()).hexdigest() == SMALL_CSV_SHA256
    assert hashlib.sha256(json_text.encode()).hexdigest() == SMALL_JSON_SHA256


def test_json_twin_matches_rows(small_table, tmp_path):
    path = tmp_path / "out.json"
    small_table.to_json(path)
    payload = json.loads(path.read_text())
    assert payload["meta"]["spec_sha256"] == small_table.meta["spec_sha256"]
    assert len(payload["rows"]) == len(small_table.rows)
    assert payload["rows"][0]["estimator"] == small_table.rows[0].estimator
