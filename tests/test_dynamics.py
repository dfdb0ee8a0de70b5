import concurrent.futures
import dataclasses
import math
import os

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from carpnet import (
    DataError,
    ModelParams,
    TransitionSummary,
    build_history,
    default_checkpoints,
    fixed_point_map,
    month_sequence,
    process_probabilities,
    run_cascades,
    run_cascades_parallel,
    solve_steady_state,
    solve_steady_states,
    statistics_from_batch,
    trajectory_from_batch,
    transition_fractions,
)
from carpnet.rng import derive_rng
from conftest import make_network
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
    "solve_steady_state": lambda L: solve_steady_state(_P3, _NET3, L=L),
    "solve_steady_states": lambda L: solve_steady_states(_P3, _NET3, [_NET3.likelihoods, L]),
    "fixed_point_map": lambda L: fixed_point_map(np.zeros(3), _P3, _NET3, L=L),
    "transition_fractions": lambda L: transition_fractions(
        solve_steady_state(_P3, _NET3), _P3, _NET3, L=L),
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
    return math.exp(TransitionSummary(hist, net).loglik(*params.as_tuple()) - leaves)


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
    states = []
    for _ in range(n_steps):
        nxt = cascade_step(state, net.adjacency, net.likelihoods, *params.as_tuple(),
                           rng.random((2, 3)))
        flips += int((~state & nxt).sum())
        state = nxt
        states.append(state)
    states = np.array(states).T

    assert (batch.states[0] == states).all()
    assert (batch.final_active[0] == state).all()
    assert (batch.active_months[0] == states.sum(axis=1)).all()
    assert batch.activation_counts[0].sum() == flips


def test_batch_is_independent_of_grouping():
    net = make_network([0.2, 0.3, 0.4, 0.25], edges=[(0, 1), (1, 2), (2, 3)])
    params = ModelParams(0.3, 0.3, 1.0)
    initial = np.zeros(4, bool)
    whole = run_cascades(net, params, initial, 60, 9, [0, 1, 2], keep_states=True)
    parts = [
        run_cascades(net, params, initial, 60, 9, [r], keep_states=True)
        for r in (0, 1, 2)
    ]
    assert (whole.states == np.concatenate([p.states for p in parts])).all()
    assert (whole.activation_counts == np.concatenate([p.activation_counts for p in parts])).all()


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
    batch = run_cascades_parallel(*args, jobs=10_000, checkpoints=(10, 40))
    assert _InlinePool.sizes == [3]
    expected = run_cascades(*args, checkpoints=(10, 40))
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


def test_duplicate_checkpoints_are_rejected():
    net = make_network([0.2, 0.3, 0.4], edges=[(0, 1), (1, 2)])
    with pytest.raises(DataError, match="distinct"):
        run_cascades(net, ModelParams(0.3, 0.3, 1.0), np.zeros(3, bool),
                     20, 1, range(2), checkpoints=(10, 10, 20))


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
    traj = trajectory_from_batch(batch)
    assert traj.checkpoints == (10, 100)
    stats = statistics_from_batch(batch)
    assert np.allclose(traj.mean_frequency[-1], stats.freq_active)


def test_zero_coupling_never_reports_external_causes():
    net = make_network([0.3, 0.4], edges=[(0, 1)])
    params = ModelParams(0.5, 1e-12, 1.0)
    batch = run_cascades(net, params, np.zeros(2, bool), 200, 8,
                         range(4), track_causes=True)
    internal, external, both = batch.cause_counts.sum(axis=0)
    assert internal > 0
    assert external == 0 and both == 0
