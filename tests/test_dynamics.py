import concurrent.futures
import dataclasses
import functools
import math
import os

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import carpnet.dynamics
from carpnet import (
    DataError,
    ModelParams,
    build_history,
    default_checkpoints,
    fixed_point_map,
    month_sequence,
    process_probabilities,
    run_cascades,
    run_cascades_parallel,
    solve_steady_states,
    statistics_from_batch,
)
from carpnet.rng import derive_rng
from conftest import TOY_PARAMS, history_loglik, make_network
from oracles import cascade_step

unit_floats = st.floats(0.05, 0.9)


def test_probabilities_match_high_precision_arithmetic():
    """Spot-check the closed forms against 50-digit mpmath evaluation."""
    L, params = 0.3, ModelParams(alpha=0.2, beta=0.7, gamma=1.3)
    probs = process_probabilities(L, params)
    with mpmath.workdps(50):
        base = mpmath.mpf(1) - mpmath.mpf("0.3")
        expected_int = float(1 - base ** mpmath.mpf("0.2"))
        expected_ext = float(1 - base ** mpmath.mpf("0.7"))
        expected_rec = float(base ** mpmath.mpf("1.3"))
    assert probs.p_int == pytest.approx(expected_int, rel=1e-14)
    assert probs.p_ext == pytest.approx(expected_ext, rel=1e-14)
    assert probs.p_rec == pytest.approx(expected_rec, rel=1e-14)
    assert probs.p_int == pytest.approx(0.06885008490516231, rel=1e-12)


@given(L=unit_floats, gamma=st.floats(0.05, 5.0))
def test_continuation_and_recovery_are_exactly_complementary(L, gamma):
    probs = process_probabilities(L, ModelParams(0.5, 0.5, gamma))
    assert probs.p_con + probs.p_rec == 1.0


_NET3 = make_network([0.2, 0.3, 0.4], edges=[(0, 1), (1, 2)])
_P3 = ModelParams(0.3, 0.3, 1.0)
_LIKELIHOOD_USERS = {
    "solve_steady_states": lambda L: solve_steady_states(_P3, _NET3, [_NET3.likelihoods, L]),
    "fixed_point_map": lambda L: fixed_point_map(np.zeros(3), _P3, _NET3, L=L),
}
_BAD_LIKELIHOODS = {
    "nan": [0.2, np.nan, 0.4],
    "negative": [0.2, -0.1, 0.4],
    "one": [0.2, 1.0, 0.4],
    "wrong-length": [0.2, 0.3],
}


@pytest.mark.parametrize("bad", list(_BAD_LIKELIHOODS))
@pytest.mark.parametrize("user", list(_LIKELIHOOD_USERS))
def test_bad_likelihood_vectors_are_rejected(user, bad):
    with pytest.raises(DataError):
        _LIKELIHOOD_USERS[user](np.array(_BAD_LIKELIHOODS[bad]))


def _star_activation(L, params, k):
    """P(center of a k-star activates) with every leaf active.

    Read off the log-likelihood of a two-month history in which the
    center activates and the k leaves stay active, less the leaves'
    continuation terms.
    """
    n = k + 1
    net = make_network([L] * n, edges=[(0, j) for j in range(1, n)])
    states = np.array([[0, 1]] + [[1, 1]] * k, dtype=np.uint8)
    hist = build_history(net, month_sequence("2001-01", 2), states)
    leaves = k * math.log(1 - (1 - L) ** params.gamma)
    return math.exp(history_loglik(hist, params, net) - leaves)


def test_combined_activation_hand_value():
    # exponents chosen so p_int = 0.1 and p_ext = 0.2 exactly in exact arithmetic
    L = 0.3
    alpha = math.log(0.9) / math.log(0.7)
    beta = math.log(0.8) / math.log(0.7)
    p = _star_activation(L, ModelParams(alpha, beta, 1.0), k=1)
    assert p == pytest.approx(1 - 0.9 * 0.8, rel=1e-12)
    assert p == pytest.approx(0.28, rel=1e-12)


@given(
    L=unit_floats,
    alpha=st.floats(0.05, 2.0),
    beta=st.floats(0.05, 2.0),
    k=st.integers(0, 4),
)
def test_activation_monotone_in_every_argument(L, alpha, beta, k):
    params = ModelParams(alpha, beta, 1.0)
    base = _star_activation(L, params, k)
    assert 0.0 < base < 1.0
    assert _star_activation(L, params, k + 1) >= base
    assert _star_activation(L, ModelParams(alpha * 1.1, beta, 1.0), k) >= base
    assert _star_activation(min(L * 1.05, 0.95), params, k) >= base
    if k > 0:
        assert _star_activation(L, ModelParams(alpha, beta * 1.1, 1.0), k) >= base


def test_step_matches_manual_transcription():
    """One synchronous update, replayed by hand from the same uniforms."""
    net = make_network([0.2, 0.35, 0.3], edges=[(0, 1), (1, 2)])
    params = ModelParams(0.3, 0.4, 0.8)
    active = np.array([True, False, True])

    batch = run_cascades(net, params, active, 1,
                         master_seed=42, run_indices=[0], track_causes=True)

    u = derive_rng(42, 0).random((2, 3))
    L = net.likelihoods
    expected = np.zeros(3, bool)
    # risk 0: active, recovers if u0 < (1-L)^gamma
    expected[0] = not (u[0, 0] < (1 - L[0]) ** params.gamma)
    # risk 1: passive with two active neighbours
    p_int = 1 - (1 - L[1]) ** params.alpha
    p_ext2 = 1 - ((1 - L[1]) ** params.beta) ** 2
    internal, external = u[0, 1] < p_int, u[1, 1] < p_ext2
    expected[1] = internal or external
    expected[2] = not (u[0, 2] < (1 - L[2]) ** params.gamma)
    assert (batch.final_active[0] == expected).all()
    assert batch.activation_counts[0].tolist() == [0, int(expected[1]), 0]
    causes = [internal and not external, external and not internal, internal and external]
    assert batch.cause_counts[0].tolist() == [int(expected[1] and c) for c in causes]


def test_engine_equals_step_loop():
    """The vectorized batch engine replays exactly as repeated single steps."""
    net = make_network([0.2, 0.35, 0.3], edges=[(0, 1), (1, 2), (0, 2)])
    params = ModelParams(0.25, 0.5, 0.9)
    initial = np.array([False, True, False])
    n_steps = 130  # crosses at least one internal refill boundary

    batch = run_cascades(
        net, params, initial, n_steps,
        master_seed=6, run_indices=[7], rng_path_prefix=(5,), keep_states=True,
    )

    rng = derive_rng(6, 5, 7)
    state = initial
    flips = 0
    states = [state]  # month 0 is the initial state
    for _ in range(n_steps):
        nxt = cascade_step(state, net.adjacency, net.likelihoods, *params.as_tuple(),
                           rng.random((2, 3)))
        flips += int((~state & nxt).sum())
        state = nxt
        states.append(state)
    states = np.array(states).T

    assert (batch.states[0] == states).all()
    assert (batch.final_active[0] == state).all()
    assert (batch.active_months[0] == states[:, 1:].sum(axis=1)).all()
    assert batch.activation_counts[0].sum() == flips


def test_batch_is_independent_of_grouping(monkeypatch):
    # blocks of two runs, so the five-run batch steps in three blocks, the
    # last one short, and 70 steps cross a refill of the uniform buffer
    monkeypatch.setattr(carpnet.dynamics, "_RUN_BLOCK", 2)
    net = make_network([0.2, 0.3, 0.4, 0.25], edges=[(0, 1), (1, 2), (2, 3)])
    args = (net, ModelParams(0.3, 0.3, 1.0), np.array([1, 0, 0, 1], bool), 70, 9)
    kwargs = dict(keep_states=True, track_causes=True, checkpoints=(1, 64, 70))
    runs = (4, 0, 7, 1, 3)
    whole = run_cascades(*args, runs, **kwargs)
    parts = [run_cascades(*args, [r], **kwargs) for r in runs]
    assert (whole.run_indices, whole.n_steps, whole.checkpoints) == (runs, 70, (1, 64, 70))
    for field in dataclasses.fields(whole):
        if field.name in ("run_indices", "n_steps", "checkpoints"):
            continue
        axis = 1 if field.name == "checkpoint_frequency" else 0
        want = np.concatenate([getattr(p, field.name) for p in parts], axis=axis)
        got = getattr(whole, field.name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field.name


def _assert_same_batch(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


def test_paired_sets_equal_lone_calls(monkeypatch):
    # blocks of two (set, run) rows hold one run of the three sets, so the
    # five runs step in five blocks; 70 steps cross a refill of the uniforms
    monkeypatch.setattr(carpnet.dynamics, "_RUN_BLOCK", 2)
    net = make_network([0.2, 0.3, 0.4, 0.25], edges=[(0, 1), (1, 2), (2, 3)])
    p = ModelParams(0.3, 0.3, 1.0)
    sets = [p, ModelParams(0.2, 0.0, 0.7), p]  # one with beta = 0, one repeated
    args = (np.array([1, 0, 0, 1], bool), 70, 9, (4, 0, 7, 1, 3))
    kwargs = dict(rng_path_prefix=(2,), keep_states=True, track_causes=True,
                  checkpoints=(1, 64, 70))
    paired = run_cascades(net, sets, *args, **kwargs)
    assert isinstance(paired, list) and len(paired) == 3
    for params, batch in zip(sets, paired):
        _assert_same_batch(batch, run_cascades(net, params, *args, **kwargs))
    assert paired[1].cause_counts[:, 1:].sum() == 0 < paired[0].cause_counts[:, 1:].sum()

    (one,) = run_cascades(net, [p], *args, **kwargs)
    _assert_same_batch(one, run_cascades(net, p, *args, **kwargs))
    with pytest.raises(DataError, match="empty"):
        run_cascades(net, [], *args, **kwargs)


@pytest.mark.parametrize("network", ["toy_network", "fixture_network"])
def test_zero_beta_steps_like_the_edgeless_network(request, network):
    # network_effect_comparison steps its edgeless model on the full network
    # at beta = 0, which relies on this
    net = request.getfixturevalue(network)
    initial = np.arange(net.n_risks) % 3 == 0
    args = (initial, 155, 4, range(100))
    kwargs = dict(rng_path_prefix=(3,), keep_states=True, track_causes=True)
    edgeless = run_cascades(net.without_edges(), TOY_PARAMS, *args, **kwargs)
    flat = run_cascades(net, dataclasses.replace(TOY_PARAMS, beta=0.0), *args, **kwargs)
    coupled = run_cascades(net, TOY_PARAMS, *args, **kwargs)
    for name in ("states", "activation_counts", "cause_counts"):
        assert np.array_equal(getattr(flat, name), getattr(edgeless, name)), name
    assert not np.array_equal(coupled.states, flat.states)


def test_parallel_workers_change_nothing():
    net = make_network([0.2, 0.3, 0.4], edges=[(0, 1), (1, 2)])
    params = ModelParams(0.3, 0.3, 1.0)
    initial = np.zeros(3, bool)
    a = run_cascades_parallel(net, params, initial, 80, 3, range(6), jobs=1,
                              checkpoints=(10, 80))
    b = run_cascades_parallel(net, params, initial, 80, 3, range(6), jobs=3,
                              checkpoints=(10, 80))
    assert (a.final_active == b.final_active).all()
    assert (a.checkpoint_frequency == b.checkpoint_frequency).all()
    assert (a.active_months == b.active_months).all()


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs tasks in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_parallel_workers_are_capped_at_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    net = make_network([0.2, 0.3, 0.4], edges=[(0, 1), (1, 2)])
    args = (net, ModelParams(0.3, 0.3, 1.0), np.zeros(3, bool), 40, 3, range(8))
    kwargs = dict(checkpoints=(10, 40), keep_states=True, track_causes=True)
    batch = run_cascades_parallel(*args, jobs=10_000, **kwargs)
    assert _InlinePool.sizes == [3]
    expected = run_cascades(*args, **kwargs)
    for field in dataclasses.fields(expected):
        got, want = getattr(batch, field.name), getattr(expected, field.name)
        assert np.array_equal(got, want) if want is not None else got is None, field.name
    # macOS and Windows have no sched_getaffinity: every CPU counts, and at
    # least one when even their number is unknown, which runs in-process
    monkeypatch.delattr(os, "sched_getaffinity")
    for cpus, sizes in ((2, [3, 2]), (None, [3, 2])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        batch = run_cascades_parallel(*args, jobs=10_000, checkpoints=(10, 40))
        assert _InlinePool.sizes == sizes
        assert np.array_equal(batch.checkpoint_frequency, expected.checkpoint_frequency)


def test_checkpoints_may_be_an_array():
    net = make_network([0.2, 0.3, 0.4], edges=[(0, 1), (1, 2)])
    args = (net, ModelParams(0.3, 0.3, 1.0), np.zeros(3, bool), 100, 3, range(4))
    _assert_same_batch(run_cascades(*args, checkpoints=np.array([10, 100])),
                       run_cascades(*args, checkpoints=(10, 100)))


def test_duplicate_checkpoints_are_rejected():
    net = make_network([0.2, 0.3, 0.4], edges=[(0, 1), (1, 2)])
    with pytest.raises(DataError, match="distinct"):
        run_cascades(net, ModelParams(0.3, 0.3, 1.0), np.zeros(3, bool),
                     20, 1, range(2), checkpoints=(10, 10, 20))


@pytest.mark.parametrize("seed, runs, message", [
    (-1, range(2), "master seed"),
    (2**64, range(2), "master seed"),
    (3, [0, -1], "non-negative"),
])
def test_bad_streams_are_data_errors(seed, runs, message):
    # CarpError is the base of every error the package raises
    net = make_network([0.2, 0.3, 0.4], edges=[(0, 1), (1, 2)])
    with pytest.raises(DataError, match=message):
        run_cascades(net, ModelParams(0.3, 0.3, 1.0), np.zeros(3, bool), 5,
                     master_seed=seed, run_indices=runs)


_NON_INTEGERS = {
    "float-seed": (dict(master_seed=1.9), "master seed"),
    "bool-seed": (dict(master_seed=True), "master seed"),
    "float-run": (dict(run_indices=[0.7]), "run index"),
    "bool-run": (dict(run_indices=[0, True]), "run index"),
    "float-path": (dict(rng_path_prefix=(2.0,)), "stream path entry"),
    "float-checkpoint": (dict(checkpoints=[10.7]), "checkpoint"),
    "float-n_steps": (dict(n_steps=5.0), "n_steps"),
}


@pytest.mark.parametrize("case", list(_NON_INTEGERS))
def test_non_integer_arguments_are_data_errors(case):
    # int() would truncate 1.9 to 1 and read True as 1
    bad, name = _NON_INTEGERS[case]
    net = make_network([0.2, 0.3, 0.4], edges=[(0, 1), (1, 2)])
    args = dict(initial=np.zeros(3, bool), n_steps=20, master_seed=3, run_indices=range(2))
    with pytest.raises(DataError, match=f"{name} must be an integer"):
        run_cascades(net, ModelParams(0.3, 0.3, 1.0), **{**args, **bad})


def test_numpy_integers_are_integers():
    want = derive_rng(5, 2, 7).random(4)
    assert (derive_rng(np.uint64(5), np.int64(2), np.int8(7)).random(4) == want).all()
    with pytest.raises(DataError, match="master seed"):
        derive_rng(True)
    with pytest.raises(DataError, match="stream path entry"):
        derive_rng(5, np.bool_(True))
    net = make_network([0.2, 0.3, 0.4], edges=[(0, 1), (1, 2)])
    args = (net, ModelParams(0.3, 0.3, 1.0), np.zeros(3, bool))
    _assert_same_batch(run_cascades(*args, np.int64(30), np.uint64(3), np.arange(4),
                                    checkpoints=np.array([10, 30])),
                       run_cascades(*args, 30, 3, range(4), checkpoints=(10, 30)))
    with pytest.raises(DataError, match="run index"):
        run_cascades_parallel(*args, 30, 3, [0.7, 1.2])


@pytest.mark.parametrize("initial", [[0.5, 2, 0], [1, 0, -1], [True, False, np.nan]])
def test_initial_states_must_be_0_or_1(initial):
    # a cast to bool would run [0.5, 2, 0] as [1, 1, 0]
    net = make_network([0.2, 0.3, 0.4], edges=[(0, 1), (1, 2)])
    with pytest.raises(DataError, match="0 or 1"):
        run_cascades(net, ModelParams(0.3, 0.3, 1.0), initial, 5, 3, range(2))


def test_month_counters_match_the_step_loop_past_the_uint8_range():
    # 600 months exceed a uint8 counter and are no multiple of the refill,
    # and the checkpoints fall off the refill grid
    assert carpnet.dynamics._REFILL_STEPS < 256  # the month counters' range
    net = make_network([0.5, 0.35, 0.3, 0.1], edges=[(0, 1), (1, 2), (0, 2)])
    params = ModelParams(0.25, 0.5, 4.0)
    initial = np.array([False, True, False, False])
    n_steps, checkpoints = 600, (7, 300, 600)
    batch = run_cascades(net, params, initial, n_steps, master_seed=8, run_indices=[2],
                         track_causes=True, checkpoints=checkpoints)

    rng = derive_rng(8, 2)
    step = functools.partial(cascade_step, adjacency=net.adjacency, L=net.likelihoods,
                             alpha=params.alpha, beta=params.beta, gamma=params.gamma)
    state = initial
    months = np.zeros(4, int)
    flips = np.zeros(4, int)
    causes = np.zeros(3, int)
    freq = []
    for t in range(1, n_steps + 1):
        u = rng.random((2, 4))
        nxt = step(state, u=u)
        # a uniform of 1 never fires, so one side of the draw alone decides
        internal = step(state, u=np.stack([u[0], np.ones(4)]))
        external = step(state, u=np.stack([np.ones(4), u[1]]))
        flip = ~state & nxt
        causes += [(flip & internal & ~external).sum(), (flip & external & ~internal).sum(),
                   (flip & internal & external).sum()]
        months += nxt
        flips += flip
        state = nxt
        if t in checkpoints:
            freq.append(months / t)

    assert batch.active_months[0].tolist() == months.tolist()
    assert batch.activation_counts[0].tolist() == flips.tolist()
    assert batch.checkpoint_frequency[:, 0].tolist() == np.array(freq).tolist()
    assert batch.cause_counts[0].tolist() == causes.tolist()
    assert months.max() > 255 and flips.sum() > 0

    # a risk that activates surely and never recovers is active every month;
    # without checkpoints, only the last step flushes its final 600 % 16 months
    sure = run_cascades(make_network([0.9]), ModelParams(1e6, 0.0, 1e6), [False], n_steps,
                        master_seed=0, run_indices=[0])
    assert sure.active_months.tolist() == [[600]]
    assert sure.activation_counts.tolist() == [[1]]


def test_default_checkpoints_are_decades_plus_horizon():
    assert default_checkpoints(10_000) == (10, 100, 1000, 10_000)
    assert default_checkpoints(500) == (10, 100, 500)
    assert default_checkpoints(10) == (10,)
    assert default_checkpoints(7) == (7,)


def _certain_statistics(initial, gamma, n_steps):
    """Statistics of one single-risk run in which every transition is sure.

    With L = 0.9 and alpha = 1e6 a passive risk activates with probability
    exactly 1.  An active one recovers with probability 1 when gamma = 0
    and never when gamma = 1e6.
    """
    net = make_network([0.9])
    batch = run_cascades(net, ModelParams(1e6, 0.0, gamma),
                         [initial], n_steps, master_seed=0, run_indices=[0])
    return statistics_from_batch(batch)


def test_activity_statistics_alternating_pattern():
    # initial passive, then 1,0,1,0,... for 12 months: six activations, half active
    stats = _certain_statistics(False, 0.0, 12)
    assert stats.freq_active[0] == pytest.approx(0.5)
    assert stats.activations[0] == 6
    assert stats.mean_freq_active == pytest.approx(0.5)


def test_activity_statistics_counts_initial_flip():
    passive_start = _certain_statistics(False, 1e6, 4)
    active_start = _certain_statistics(True, 1e6, 4)
    assert passive_start.activations[0] == 1
    assert active_start.activations[0] == 0
    assert passive_start.freq_active[0] == active_start.freq_active[0] == 1.0


def test_trajectory_matches_batch_statistics():
    net = make_network([0.2, 0.3, 0.4], edges=[(0, 1), (1, 2)])
    params = ModelParams(0.3, 0.2, 1.0)
    initial = np.zeros(3, bool)
    batch = run_cascades(net, params, initial, 100, 17, range(5),
                         checkpoints=default_checkpoints(100))
    assert batch.checkpoints == (10, 100)
    stats = statistics_from_batch(batch)
    assert np.allclose(batch.checkpoint_frequency.mean(axis=1)[-1], stats.freq_active)


def test_zero_coupling_never_reports_external_causes():
    net = make_network([0.3, 0.4], edges=[(0, 1)])
    params = ModelParams(0.5, 1e-12, 1.0)
    batch = run_cascades(net, params, np.zeros(2, bool), 200, 8,
                         range(4), track_causes=True)
    internal, external, both = batch.cause_counts.sum(axis=0)
    assert internal > 0
    assert external == 0 and both == 0
