import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from carpnet import (
    DataError,
    ModelParams,
    NetworkState,
    activation_probability,
    activity_statistics,
    default_checkpoints,
    process_probabilities,
    run_cascades,
    run_cascades_parallel,
    simulate_trajectory,
    statistics_from_batch,
    step,
    trajectory_from_batch,
)
from carpnet.rng import derive_rng
from conftest import make_network

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


def _star_activation(L, params, k):
    """P(center of a k-star activates) with every leaf active."""
    n = k + 1
    net = make_network([L] * n, edges=[(0, j) for j in range(1, n)])
    probs = process_probabilities(net.likelihoods, params)
    state = NetworkState(0, np.array([False] + [True] * k))
    return activation_probability(0, state, probs, net)


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
    probs = process_probabilities(net.likelihoods, params)
    active = np.array([True, False, True])

    nxt, causes = step(NetworkState(0, active), probs, net, np.random.default_rng(42))

    u = np.random.default_rng(42).random((2, 3))
    L = net.likelihoods
    expected = np.zeros(3, bool)
    # risk 0: active, recovers if u0 < (1-L)^gamma
    expected[0] = not (u[0, 0] < (1 - L[0]) ** params.gamma)
    # risk 1: passive with two active neighbours
    p_int = 1 - (1 - L[1]) ** params.alpha
    p_ext2 = 1 - ((1 - L[1]) ** params.beta) ** 2
    expected[1] = (u[0, 1] < p_int) or (u[1, 1] < p_ext2)
    expected[2] = not (u[0, 2] < (1 - L[2]) ** params.gamma)
    assert (nxt.active == expected).all()
    assert nxt.t == 1
    assert all(c.risk in (0, 1, 2) for c in causes)


def test_engine_equals_step_loop():
    """The vectorized batch engine replays exactly as repeated single steps."""
    net = make_network([0.2, 0.35, 0.3], edges=[(0, 1), (1, 2), (0, 2)])
    params = ModelParams(0.25, 0.5, 0.9)
    probs = process_probabilities(net.likelihoods, params)
    initial = np.array([False, True, False])
    n_steps = 130  # crosses at least one internal refill boundary

    batch = run_cascades(
        net, net.likelihoods, params, initial, n_steps,
        master_seed=6, run_indices=[7], rng_path_prefix=(5,), keep_states=True,
    )

    rng = derive_rng(6, 5, 7)
    state = NetworkState(0, initial.copy())
    months_active = np.zeros(3, int)
    flips = int(initial.sum() * 0)
    prev = initial.copy()
    states = []
    for _ in range(n_steps):
        state, _ = step(state, probs, net, rng)
        months_active += state.active
        flips += int((~prev & state.active).sum())
        prev = state.active.copy()
        states.append(state.active.copy())

    assert (batch.states[0] == np.array(states).T).all()
    assert (batch.final_active[0] == state.active).all()
    assert (batch.active_months[0] == months_active).all()
    assert batch.activation_counts[0].sum() == flips


def test_batch_is_independent_of_grouping():
    net = make_network([0.2, 0.3, 0.4, 0.25], edges=[(0, 1), (1, 2), (2, 3)])
    params = ModelParams(0.3, 0.3, 1.0)
    initial = np.zeros(4, bool)
    whole = run_cascades(net, net.likelihoods, params, initial, 60, 9, [0, 1, 2], keep_states=True)
    parts = [
        run_cascades(net, net.likelihoods, params, initial, 60, 9, [r], keep_states=True)
        for r in (0, 1, 2)
    ]
    assert (whole.states == np.concatenate([p.states for p in parts])).all()
    assert (whole.activation_counts == np.concatenate([p.activation_counts for p in parts])).all()


def test_parallel_workers_change_nothing():
    net = make_network([0.2, 0.3, 0.4], edges=[(0, 1), (1, 2)])
    params = ModelParams(0.3, 0.3, 1.0)
    initial = np.zeros(3, bool)
    a = run_cascades_parallel(net, net.likelihoods, params, initial, 80, 3, range(6), jobs=1,
                              checkpoints=(10, 80))
    b = run_cascades_parallel(net, net.likelihoods, params, initial, 80, 3, range(6), jobs=3,
                              checkpoints=(10, 80))
    assert (a.final_active == b.final_active).all()
    assert (a.checkpoint_frequency == b.checkpoint_frequency).all()
    assert (a.active_months == b.active_months).all()


def test_duplicate_checkpoints_are_rejected():
    net = make_network([0.2, 0.3, 0.4], edges=[(0, 1), (1, 2)])
    with pytest.raises(DataError, match="distinct"):
        run_cascades(net, net.likelihoods, ModelParams(0.3, 0.3, 1.0), np.zeros(3, bool),
                     20, 1, range(2), checkpoints=(10, 10, 20))


def test_default_checkpoints_are_decades_plus_horizon():
    assert default_checkpoints(10_000) == (10, 100, 1000, 10_000)
    assert default_checkpoints(500) == (10, 100, 500)
    assert default_checkpoints(10) == (10,)
    assert default_checkpoints(7) == (7,)


def test_activity_statistics_alternating_pattern():
    # initial passive, then 1,0,1,0,... for 12 months: six activations, half active
    states = np.array([[1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0]], dtype=np.uint8)[None]
    stats = activity_statistics(states, initial=np.array([False]))
    assert stats.freq_active[0] == pytest.approx(0.5)
    assert stats.activations[0] == 6
    assert stats.mean_freq_active == pytest.approx(0.5)


def test_activity_statistics_counts_initial_flip():
    states = np.ones((1, 1, 4), dtype=np.uint8)
    passive_start = activity_statistics(states, initial=np.array([False]))
    active_start = activity_statistics(states, initial=np.array([True]))
    assert passive_start.activations[0] == 1
    assert active_start.activations[0] == 0


def test_trajectory_matches_batch_statistics():
    net = make_network([0.2, 0.3, 0.4], edges=[(0, 1), (1, 2)])
    params = ModelParams(0.3, 0.2, 1.0)
    initial = np.zeros(3, bool)
    traj = simulate_trajectory(initial, params, net, horizon=100, n_runs=5, master_seed=17)
    batch = run_cascades(net, net.likelihoods, params, initial, 100, 17, range(5),
                         checkpoints=(10, 100))
    assert traj.checkpoints == (10, 100)
    assert np.allclose(traj.mean_frequency, trajectory_from_batch(batch).mean_frequency)
    stats = statistics_from_batch(batch)
    assert np.allclose(traj.mean_frequency[-1], stats.freq_active)


def test_zero_coupling_never_reports_external_causes():
    net = make_network([0.3, 0.4], edges=[(0, 1)])
    params = ModelParams(0.5, 1e-12, 1.0)
    batch = run_cascades(net, net.likelihoods, params, np.zeros(2, bool), 200, 8,
                         range(4), track_causes=True)
    internal, external, both = batch.cause_counts.sum(axis=0)
    assert internal > 0
    assert external == 0 and both == 0
