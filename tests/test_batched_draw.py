"""Trial streams drawn in one pass per axis point, against the per-trial
generators they replace.

The reference below draws as the sweep runner did one trial at a time: a
fresh numpy ``Generator(Philox(SeedSequence((3, base_seed, axis_index, t))))``
per trial, one (1, N) block of normals, and a (1, k) @ L.T product per vector.
"""

import hashlib
import warnings

import numpy as np
import pytest

from fasloc import experiments
from fasloc.channel import philox_keys, standard_normal_rows
from fasloc.estimators import solve_ls
from fasloc.experiments import fig2_spec, fig3_spec


def seed_sequence_key(entropy):
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


def stream(entropy):
    """numpy's own generator on the stream of a SeedSequence entropy."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def ref_simulate(ctx, axis_index, factors, t_lo, t_hi):
    rows = {name: [] for name in factors}
    digests = []
    for t in range(t_lo, t_hi):
        z = stream((3, ctx.base_seed, axis_index, t)).standard_normal((1, ctx.profile.n_ports))
        parts = []
        for name, factor in factors.items():
            x = ctx.means[name] + (z[:, :factor.shape[0]] @ factor.T)[0]
            rows[name].append(x)
            parts.append(x.tobytes())
        digests.append(hashlib.sha256(b"".join(parts)).hexdigest()[:16])
    return {name: np.array(r) for name, r in rows.items()}, digests


# one generator for every call, as a sweep's worker chunk shares one
GEN = np.random.Generator(np.random.Philox(key=0))


def simulate(ctx, point, t_lo, t_hi):
    """experiments._simulate on trials [t_lo, t_hi) of one axis point."""
    axis_index, factors = point
    keys = philox_keys((ctx.base_seed, axis_index), np.arange(t_lo, t_hi))
    return experiments._simulate(ctx, factors, keys, GEN)


def point_context(spec, axis_index):
    """The solve-group context holding one axis point, and that point."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the far-field warning
        ctxs = experiments._group_contexts(spec)
    return next((ctx, point) for ctx in ctxs for point in ctx.points
                if point[0] == axis_index)


# ---------------------------------------------------------------- keys

@pytest.mark.parametrize("base_seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5])
def test_trial_keys_match_seed_sequence(base_seed):
    keys = philox_keys((base_seed, 0), np.arange(0, 40))
    assert keys.shape == (40, 2) and keys.dtype == np.uint64
    for t in range(40):
        np.testing.assert_array_equal(keys[t], seed_sequence_key((3, base_seed, 0, t)))
    # the multi-point form: rows of (axis index, trial) in one call
    tails = [(j, t) for j in (0, 1, 18) for t in range(40)]
    keys = philox_keys(base_seed, np.array(tails))
    assert keys.shape == (120, 2) and keys.dtype == np.uint64
    for key, (j, t) in zip(keys, tails):
        np.testing.assert_array_equal(key, seed_sequence_key((3, base_seed, j, t)))


@pytest.mark.parametrize("seed, entropy", [
    (5, (1, 5)), (0, (1, 0)), (2 ** 64 + 5, (1, 2 ** 64 + 5)), ((5, 0), (2, 5, 0)),
    ((1, 2, 3, 4, 5), (5, 1, 2, 3, 4, 5)), ((7, 2 ** 40, 3), (3, 7, 2 ** 40, 3)),
])
def test_seed_keys_keep_their_streams(seed, entropy):
    np.testing.assert_array_equal(philox_keys(seed)[0], seed_sequence_key(entropy))
    np.testing.assert_array_equal(standard_normal_rows(philox_keys(seed), 50)[0],
                                  stream(entropy).standard_normal(50))


def test_seed_length_is_folded_into_the_key():
    assert not np.array_equal(philox_keys(5), philox_keys((5, 0)))
    assert not np.array_equal(standard_normal_rows(philox_keys(5), 3),
                              standard_normal_rows(philox_keys((5, 0)), 3))


def test_negative_seed_values_are_rejected_not_wrapped():
    with pytest.raises(ValueError):
        philox_keys(-1)
    with pytest.raises(ValueError):
        philox_keys((-1, 0), np.arange(3))
    with pytest.raises(ValueError):
        philox_keys((1, 0), np.array([0, -2]))


@pytest.mark.parametrize("seed", [5.7, (1, 2.0), True, (3, False), np.float64(5.0)])
def test_non_integral_seed_values_are_rejected_not_truncated(seed):
    with pytest.raises(TypeError):
        philox_keys(seed)
    with pytest.raises(TypeError):
        philox_keys(seed, np.arange(3))


def test_numpy_integer_seed_values_keep_their_streams():
    np.testing.assert_array_equal(philox_keys(np.int64(5)), philox_keys(5))
    np.testing.assert_array_equal(philox_keys((np.uint32(1), np.int8(2)), np.arange(4)),
                                  philox_keys((1, 2), np.arange(4)))


def test_normal_rows_equal_per_trial_generators():
    z = standard_normal_rows(philox_keys((42, 3), np.arange(10, 60)), 17)
    for i, t in enumerate(range(10, 60)):
        np.testing.assert_array_equal(z[i], stream((3, 42, 3, t)).standard_normal(17))
    assert standard_normal_rows(philox_keys((42, 3), np.arange(0)), 17).shape == (0, 17)


def test_normal_rows_rekey_with_key_words_above_2_to_the_63():
    # a key word >= 2**63 does not fit an int64; the re-key takes it whole
    keys = philox_keys((7, 2), np.arange(20))
    high = (keys >= np.uint64(2 ** 63)).any(axis=1)
    assert high.any() and not high.all()
    z = standard_normal_rows(keys, 9)
    for t in range(20):
        np.testing.assert_array_equal(z[t], stream((3, 7, 2, t)).standard_normal(9))
    top = np.array([[2 ** 64 - 1, 2 ** 63], [2 ** 63, 0]], dtype=np.uint64)
    for row, key in zip(standard_normal_rows(top, 9), top):
        want = np.random.Generator(np.random.Philox(key=key)).standard_normal(9)
        np.testing.assert_array_equal(row, want)


# ---------------------------------------------------------------- sweep draws

@pytest.mark.parametrize("spec, axis_index", [
    (fig2_spec(base_seed=11, trials=100), 2),                   # N = 12
    (fig3_spec(spacing_h=0.01, base_seed=11, trials=100), 18),  # W = 1.0, N = 100
])
def test_simulate_matches_per_trial_reference(spec, axis_index):
    ctx, point = point_context(spec, axis_index)
    rows, digests = simulate(ctx, point, 0, 100)
    ref_rows, ref_digests = ref_simulate(ctx, *point, 0, 100)
    assert digests == "".join(ref_digests)
    assert rows.keys() == ref_rows.keys()
    for name in rows:
        np.testing.assert_array_equal(rows[name], ref_rows[name])


def test_simulate_chunks_give_the_same_bytes():
    ctx, point = point_context(fig3_spec(spacing_h=0.01, base_seed=4, trials=100), 18)
    whole, whole_digests = simulate(ctx, point, 0, 100)
    head, head_digests = simulate(ctx, point, 0, 37)
    tail, tail_digests = simulate(ctx, point, 37, 100)
    assert whole_digests == head_digests + tail_digests
    for name in whole:
        assert whole[name].tobytes() == np.concatenate([head[name], tail[name]]).tobytes()


def test_fused_least_squares_equals_separate_solves():
    spec = fig2_spec(base_seed=13, trials=100)
    ctx, point = point_context(spec, 1)
    got, _ = experiments._run_trials([ctx], 0, 100)[ctx.points.index(point)]
    X, _ = simulate(ctx, point, 0, 100)
    for est, name in (("fas_ls", "fas"), ("multipoint_ls", "mp")):
        alone = solve_ls(X[name], ctx.profile, ctx.cfg)
        for field in ("d_hat", "converged", "iterations", "objective_value"):
            np.testing.assert_array_equal(getattr(got[est], field), getattr(alone, field))
