import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import carpnet.likelihood
from carpnet import (
    ConvergenceError,
    DataError,
    FitResult,
    ModelParams,
    TransitionSummary,
    build_history,
    fit,
    fit_many,
    month_sequence,
    run_cascades,
)
from conftest import FIXTURE_PARAMS, history_loglik, make_network, row_loglik
from oracles import naive_log_likelihood, reference_fit, summary_log_likelihood


def _history(net, states):
    states = np.asarray(states, dtype=np.uint8)
    return build_history(net, month_sequence("2001-01", states.shape[1]), states)


def test_all_passive_edgeless_history_hand_value():
    # alpha tuned so every passive->passive cell contributes exactly ln 0.9
    alpha = math.log(0.9) / math.log(0.7)
    net = make_network([0.3, 0.3, 0.3])
    hist = _history(net, np.zeros((3, 2)))
    value = history_loglik(hist, ModelParams(alpha, 0.5, 1.0), net)
    assert value == pytest.approx(3 * math.log(0.9), rel=1e-12)


def test_recovery_cell_hand_value():
    net = make_network([0.5, 0.2], edges=[(0, 1)])
    hist = _history(net, [[1, 0], [0, 0]])
    total = history_loglik(hist, ModelParams(0.4, 0.4, 1.0), net)
    # r2 stays passive with one active neighbour: ln 0.8^(0.4 + 0.4*1)
    assert total - 0.8 * math.log(0.8) == pytest.approx(math.log(0.5), rel=1e-15)


def test_impossible_activation_raises():
    # an activation with no pressure at all has probability zero
    net = make_network([0.3])
    hist = _history(net, [[0, 1]])
    assert history_loglik(hist, ModelParams(0.0, 0.0, 1.0), net) == -math.inf


def test_impossible_continuation_raises():
    # gamma = 0 recovers surely, so staying active has probability zero
    net = make_network([0.3])
    hist = _history(net, [[1, 1]])
    assert history_loglik(hist, ModelParams(0.2, 0.2, 0.0), net) == -math.inf


small_states = st.integers(2, 4).flatmap(
    lambda r: st.integers(2, 7).flatmap(
        lambda t: st.tuples(
            st.just(r),
            st.lists(
                st.lists(st.integers(0, 1), min_size=t, max_size=t),
                min_size=r,
                max_size=r,
            ),
            st.lists(st.booleans(), min_size=r * (r - 1) // 2, max_size=r * (r - 1) // 2),
        )
    )
)


def _small_network(r, edge_bits):
    all_pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    edges = [p for p, keep in zip(all_pairs, edge_bits) if keep]
    return make_network([0.15 + 0.1 * i for i in range(r)], edges=edges)


def _small_case(data):
    """(network, history, states) of one ``small_states`` draw."""
    r, rows, edge_bits = data
    states = np.array(rows, dtype=np.uint8)
    net = _small_network(r, edge_bits)
    return net, _history(net, states), states


@given(data=small_states, alpha=st.floats(0.05, 2), beta=st.floats(0.05, 2), gamma=st.floats(0.05, 2))
def test_log_likelihood_agrees_with_naive_loops(data, alpha, beta, gamma):
    """Sufficient-statistic evaluation equals a cell-by-cell transcription."""
    net, hist, states = _small_case(data)
    params = ModelParams(alpha, beta, gamma)

    mine = history_loglik(hist, params, net)
    reference = naive_log_likelihood(states, net.adjacency, net.likelihoods, alpha, beta, gamma)
    assert mine == pytest.approx(reference, rel=1e-10, abs=1e-10)


@given(data=small_states, seed=st.integers(0, 10))
@settings(max_examples=25)
def test_log_likelihood_is_permutation_equivariant(data, seed):
    r, rows, edge_bits = data
    states = np.array(rows, dtype=np.uint8)
    all_pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    edges = [p for p, keep in zip(all_pairs, edge_bits) if keep]
    L = [0.15 + 0.1 * i for i in range(r)]
    params = ModelParams(0.4, 0.6, 0.9)

    perm = np.random.default_rng(seed).permutation(r)
    position = np.argsort(perm)  # new index of each original risk
    edges_p = [(min(position[u], position[v]), max(position[u], position[v])) for u, v in edges]

    net = make_network(L, edges=edges)
    net_p = make_network([L[i] for i in perm], edges=edges_p)
    value = history_loglik(_history(net, states), params, net)
    value_p = history_loglik(_history(net_p, states[perm]), params, net_p)
    assert value == pytest.approx(value_p, rel=1e-12, abs=1e-12)


@pytest.fixture(scope="module")
def toy_fit():
    net = make_network([0.25, 0.4, 0.3, 0.35], edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
    truth = ModelParams(0.4, 0.3, 1.2)
    batch = run_cascades(net, truth, np.zeros(4, bool), 3000,
                         master_seed=33, run_indices=[0], keep_states=True)
    hist = _history(net, batch.states[0])
    return net, hist, truth, fit(hist, net)


def test_fit_recovers_generator_parameters(toy_fit):
    net, hist, truth, result = toy_fit
    assert result.converged
    assert result.params.alpha == pytest.approx(truth.alpha, rel=0.25)
    assert result.params.beta == pytest.approx(truth.beta, rel=0.4)
    assert result.params.gamma == pytest.approx(truth.gamma, rel=0.15)
    assert result.boundary_flags == ()


def test_fit_is_a_local_maximum(toy_fit):
    net, hist, truth, result = toy_fit
    best = result.log_likelihood
    assert best == pytest.approx(history_loglik(hist, result.params, net), rel=1e-12)
    theta = np.array(result.params.as_tuple())
    for i in range(3):
        for sign in (-1, 1):
            bumped = theta.copy()
            bumped[i] = max(bumped[i] + sign * 1e-3, 1e-9)
            nearby = history_loglik(hist, ModelParams(*bumped), net)
            assert nearby <= best + 1e-7


def test_fit_is_deterministic(toy_fit):
    net, hist, _, result = toy_fit
    again = fit(hist, net)
    assert again.params == result.params
    assert again.log_likelihood == result.log_likelihood


def test_fix_beta_pins_the_coupling(toy_fit):
    net, hist, _, _ = toy_fit
    result = fit(hist, net, fix_beta=0.0)
    assert result.params.beta == 0.0
    assert result.converged


def test_fix_beta_must_be_finite_and_non_negative(toy_fit):
    net, hist, _, _ = toy_fit
    for bad in (math.nan, math.inf, -math.inf, -0.5):
        with pytest.raises(DataError, match="fix_beta"):
            fit(hist, net, fix_beta=bad)


def test_fixture_fit_matches_recorded_values(fixture_network, fixture_history):
    # Recorded from the grid-plus-simplex fit; any change to the search or
    # to the objective's arithmetic moves these.
    result = fit(fixture_history, fixture_network)
    assert result.params.as_tuple() == pytest.approx(
        (0.29161609440539726, 0.02359353781470288, 0.9782729135859364), rel=1e-12
    )
    assert result.iterations == 332
    edgeless = fit(fixture_history, fixture_network.without_edges(), fix_beta=0.0)
    assert edgeless.params.as_tuple() == pytest.approx(
        (0.3185151517784925, 0.0, 0.9782743944734221), rel=1e-12
    )


def test_degenerate_history_is_flagged_not_failed():
    net = make_network([0.2, 0.3], edges=[(0, 1)])
    hist = _history(net, np.zeros((2, 6)))
    result = fit(hist, net)
    for flag in ("no_activations", "no_recoveries", "beta_unidentified", "gamma_unidentified"):
        assert flag in result.boundary_flags
    assert result.params.alpha <= 1e-3  # driven to the lower boundary


def test_summary_counts_match_hand_tally():
    net = make_network([0.2, 0.3], edges=[(0, 1)])
    #           months:  1  2  3  4
    states = np.array([[0, 1, 1, 0],
                       [1, 0, 0, 1]], dtype=np.uint8)
    s = TransitionSummary(np.stack([states, 1 - states]), net)
    assert s.n_activations.tolist() == [2, 2]  # r1 in month 2, r2 in month 4
    assert s.n_recoveries.tolist() == [2, 2]  # r1 in month 4, r2 in month 2
    assert s.n_active_source.tolist() == [3, 3]  # final-month activity is not a source
    assert s.external_exposure.tolist() == [True, True]


def _data_flags(summary, h=0):
    return tuple(flag for flag, on in (
        ("no_activations", summary.n_activations[h] == 0),
        ("no_recoveries", summary.n_recoveries[h] == 0),
        ("beta_unidentified", not summary.external_exposure[h]),
        ("gamma_unidentified", summary.n_active_source[h] == 0),
    ) if on)


@given(data=small_states, fix_beta=st.sampled_from([None, 0.0, 0.3]))
@settings(max_examples=40)
@example(data=(3, [[0] * 5] * 3, [True] * 3), fix_beta=None)  # no activity at all
@example(data=(2, [[1] * 4] * 2, [True]), fix_beta=0.3)  # never recovers
@example(data=(3, [[0, 1, 0, 1], [1, 0, 0, 0], [0, 0, 1, 1]], [False] * 3),  # no exposure
         fix_beta=None)
@example(data=(2, [[0, 1, 1], [0, 0, 1]], [True]), fix_beta=0.0)  # no recoveries
def test_fit_matches_the_numpy_reference_search(data, fix_beta):
    """The fit equals the per-point-grid, numpy-simplex search bit for bit."""
    net, hist, states = _small_case(data)
    summary = TransitionSummary(states[None], net)
    try:
        params, loglik, iterations, converged, bound_flags = reference_fit(
            row_loglik(summary), fix_beta)
    except ArithmeticError:
        with pytest.raises(ConvergenceError):
            fit(hist, net, fix_beta=fix_beta)
        return
    result = fit(hist, net, fix_beta=fix_beta)
    assert result.params.as_tuple() == params
    assert result.log_likelihood == loglik
    assert result.iterations == iterations
    assert result.converged == converged
    assert result.boundary_flags == _data_flags(summary) + bound_flags


@pytest.mark.parametrize("dataset", ["toy", "fixture", "ragged"])
@pytest.mark.parametrize("axes", [
    (np.geomspace(1e-4, 10, 10),) * 3,
    (np.geomspace(1e-4, 10, 10), [0.3], np.geomspace(1e-4, 10, 10)),  # a fixed beta
    ([0.0, 1e-3, 0.4], [0.0, 0.02, 2.0], [0.0, 0.5, 1.0, 7.0]),  # zeros give -inf cells
], ids=["production", "fixed-beta", "zeros"])
def test_grid_is_loglik_at_every_point(request, dataset, axes):
    """The all-rows grid holds each history's ``loglik`` at each point, bit
    for bit: one history of the toy or the fixture, or every history of the
    ragged stack, degenerate ones and ``lone`` included."""
    if dataset == "ragged":
        summary, _ = request.getfixturevalue("ragged_stack")
    else:
        net = request.getfixturevalue(f"{dataset}_network")
        summary = TransitionSummary(request.getfixturevalue(f"{dataset}_history").states[None], net)
    grid = summary.grid(*axes)
    logliks = [row_loglik(summary, h) for h in range(len(summary.c00_l))]
    pointwise = np.array([[[[loglik(a, b, g) for g in axes[2]] for b in axes[1]] for a in axes[0]]
                          for loglik in logliks])
    assert grid.shape == pointwise.shape == (len(summary.c00_l), *map(len, axes))
    assert grid.tobytes() == pointwise.tobytes()
    assert not np.isnan(grid).any()


def _degenerate_states(r, t):
    return [
        np.zeros((r, t)),  # no activations: an empty term group
        np.ones((r, t)),  # never recovers
        np.tile(np.arange(t) % 2, (r, 1)),  # moves in unison: no exposure
    ]


def _reference_result(states, net, fix_beta=None):
    """``reference_fit`` as the FitResult that ``fit`` returns, or None where it raises."""
    summary = TransitionSummary(states[None], net)
    try:
        params, loglik, iterations, converged, bound_flags = reference_fit(
            row_loglik(summary), fix_beta)
    except ArithmeticError:
        return None
    return FitResult(ModelParams(*params), loglik, iterations, converged,
                     _data_flags(summary) + bound_flags)


batches = st.integers(2, 4).flatmap(lambda r: st.integers(2, 7).flatmap(lambda t: st.tuples(
    st.just(r),
    st.lists(st.booleans(), min_size=r * (r - 1) // 2, max_size=r * (r - 1) // 2),
    st.lists(st.lists(st.lists(st.integers(0, 1), min_size=t, max_size=t),
                      min_size=r, max_size=r), min_size=1, max_size=4),
)))


@given(batch=batches, fix_beta=st.sampled_from([None, 0.0, 0.3]), data=st.data())
@settings(max_examples=12)
def test_fit_many_matches_the_reference_search_on_mixed_batches(batch, fix_beta, data):
    """Each history of one stack, degenerate ones among them, is fitted as alone."""
    r, edge_bits, drawn = batch
    net = _small_network(r, edge_bits)
    states = np.array(drawn + _degenerate_states(r, len(drawn[0][0])), dtype=np.uint8)
    states = states[data.draw(st.permutations(range(len(states))))]
    results = [None if isinstance(r, ConvergenceError) else r
               for r in fit_many(states, net, fix_beta=fix_beta)]
    assert results == [_reference_result(s, net, fix_beta) for s in states]


@pytest.mark.parametrize("block", [32, 3])
def test_fit_many_does_not_depend_on_the_batch(monkeypatch, block):
    """Every history of a stack of 8, degenerate ones included, is fitted as
    alone, in either order and with beta free or fixed; with count blocks of
    3 the stack spans three blocks, the last one ragged."""
    monkeypatch.setattr(carpnet.likelihood, "_BLOCK", block)
    net = make_network([0.25, 0.4, 0.3, 0.35], edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
    target, *others = run_cascades(net, ModelParams(0.4, 0.3, 1.2), np.zeros(4, bool), 59,
                                   master_seed=5, run_indices=range(5), keep_states=True).states
    states = np.array([target, *others, *_degenerate_states(4, 60)])
    assert fit_many(target[None], net) == [fit(_history(net, target), net)]
    for fix_beta in (None, 0.3):
        alone = [fit_many(h[None], net, fix_beta=fix_beta)[0] for h in states]
        assert all(isinstance(r, FitResult) for r in alone)
        assert fit_many(states, net, fix_beta=fix_beta) == alone
        assert fit_many(states[::-1], net, fix_beta=fix_beta) == alone[::-1]


@pytest.mark.parametrize("states", [
    np.zeros((2, 5)),  # one history, not a stack
    np.zeros((1, 3, 5)),  # three risks on a two-risk network
    np.zeros((1, 2, 1)),  # one month has no transition
    np.full((1, 2, 5), 256),  # 0 once cast to uint8
    np.full((1, 2, 5), -1),
    np.full((1, 2, 5), 0.5),
    np.full((1, 2, 5), np.nan),
], ids=["2-D", "risks", "one-month", "256", "negative", "fraction", "nan"])
def test_fit_many_rejects_a_malformed_stack(states):
    net = make_network([0.2, 0.3], edges=[(0, 1)])
    with pytest.raises(DataError, match="stack of states|0 or 1"):
        fit_many(states, net)


@pytest.mark.parametrize("fix_beta", [None, 0.3])
def test_fit_many_of_an_empty_stack_is_empty(fix_beta):
    net = make_network([0.2, 0.3], edges=[(0, 1)])
    assert fit_many(np.zeros((0, 2, 5)), net, fix_beta=fix_beta) == []


def test_fit_rejects_a_history_of_another_network(toy_history):
    net = make_network([0.2] * toy_history.n_risks)
    with pytest.raises(DataError, match="not aligned"):
        fit(toy_history, net)


@pytest.fixture(scope="module")
def ragged_stack(fixture_network, fixture_history):
    """Statistics of a stack of fixture-length histories whose term groups are
    ragged (0 to about 200 activation terms per history), and each history's
    statistics computed alone."""
    net, states = fixture_network, fixture_history.states
    r, t = states.shape
    early = states.copy()
    early[:, 40:] = 0
    lone = np.zeros((r, t))
    lone[0, 1] = 1  # one activation, at k = 0
    # one recovery that leaves its neighbors passive: no activation and no
    # continuation, so loglik is -0.0 where alpha = beta = gamma = 0
    recovered = np.zeros((r, t))
    recovered[net.adjacency.sum(axis=1).argmax(), 0] = 1
    histories = np.array([states, states[:, ::-1], np.roll(states, 1, axis=0), early,
                          states * (np.arange(r) < 7)[:, None], *_degenerate_states(r, t), lone,
                          recovered], dtype=np.uint8)
    stack = TransitionSummary(histories, net)
    sizes = stack.activations.sizes.tolist()
    assert len(sizes) == 10 and min(sizes) == 0 and len(set(sizes)) >= 7
    assert math.copysign(1, row_loglik(stack, 9)(0.0, 0.0, 0.0)) == -1
    return stack, [TransitionSummary(h[None], net) for h in histories]


def _assert_row_is_alone(stack, h, one):
    """Row h of ``stack`` holds the summary ``one`` of history h alone, bit for
    bit: its sums, both term groups and every flag count."""
    for name in ("c00_l", "c00_kl", "s10_l", "n_activations", "n_recoveries",
                 "n_active_source", "external_exposure"):
        got, want = getattr(stack, name)[h:h + 1], getattr(one, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (h, name)
    for group in ("activations", "continuations"):
        terms, want = getattr(stack, group), getattr(one, group)
        n = want.sizes[0]
        assert terms.sizes[h] == n, (h, group)
        for name in ("w", "l", "k"):
            if getattr(want, name) is not None:
                got = getattr(terms, name)[h, :n]
                assert got.tobytes() == getattr(want, name)[0].tobytes(), (h, group, name)


def test_stacked_statistics_are_each_history_alone(ragged_stack):
    """Row h of the stack holds history h's summary bit for bit."""
    stack, alone = ragged_stack
    for h, one in enumerate(alone):
        _assert_row_is_alone(stack, h, one)


coordinate = st.sampled_from([0.0, 1e-300, 1e-4, 0.3]) | st.floats(0.0, 10.0)


@given(points=st.lists(st.tuples(st.integers(0, 9), coordinate, coordinate, coordinate),
                       min_size=1, max_size=20))
@settings(max_examples=40)
def test_stacked_objective_is_loglik_row_by_row(ragged_stack, points):
    """One stacked call equals one call per point on each history alone, ``-inf`` included."""
    # alpha = beta = 0 with an activation at k = 0, and gamma = 0 with an
    # active -> active month, are impossible
    stack, alone = ragged_stack
    points = points + [(h, 0.0, 0.0, 1.0) for h in range(10)] + [(h, 0.5, 0.1, 0.0) for h in range(10)]
    rows, alpha, beta, gamma = (np.array(column) for column in zip(*points))
    stacked = stack.loglik(rows, alpha, beta, gamma)
    one_by_one = np.array([row_loglik(alone[h])(a, b, g) for h, a, b, g in points])
    reference = np.array([summary_log_likelihood(stack, h, a, b, g) for h, a, b, g in points])
    assert stacked.tobytes() == one_by_one.tobytes() == reference.tobytes()
    assert np.isneginf(stacked).any() and not np.isnan(stacked).any()


def test_one_block_of_statistics_is_lean(fixture_network, fixture_history):
    """A block of recovery-like histories costs a few MB to summarize, not a
    3-D index array per transition kind."""
    net, hist = fixture_network, fixture_history
    states = run_cascades(net, FIXTURE_PARAMS, hist.states[:, 0].astype(bool), hist.n_months - 1,
                          0, range(carpnet.likelihood._BLOCK), rng_path_prefix=(1,),
                          keep_states=True).states
    net.adjacency_float  # built and cached outside the measurement
    tracemalloc.start()
    try:
        TransitionSummary(states, net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


@pytest.fixture(scope="module")
def recovery_histories(fixture_network, fixture_history):
    """The 125 histories that the benchmark's recovery run refits at seed 0."""
    net, hist = fixture_network, fixture_history
    return run_cascades(net, FIXTURE_PARAMS, hist.states[:, 0].astype(bool), hist.n_months - 1,
                        0, range(125), rng_path_prefix=(1,), keep_states=True).states


def test_recovery_seed0_refits_match_the_reference_search(fixture_network, fixture_history):
    """Ten histories that the benchmark's recovery run refits, in one batch."""
    net, hist = fixture_network, fixture_history
    batch = run_cascades(net, ModelParams(0.3, 0.02, 1.0), hist.states[:, 0].astype(bool),
                         hist.n_months - 1, 0, range(10), rng_path_prefix=(1,),
                         keep_states=True, track_causes=True)
    assert fit_many(batch.states, net) == [_reference_result(s, net) for s in batch.states]


def test_statistics_of_a_recovery_run_are_counted_in_lean_blocks(fixture_network,
                                                                 recovery_histories):
    """The 125 histories that the benchmark's recovery run refits at seed 0 are
    counted a block at a time: within one block's memory, and with each row
    the summary of its history alone."""
    net, states = fixture_network, recovery_histories
    net.adjacency_float  # built and cached outside the measurement
    tracemalloc.start()
    try:
        stack = TransitionSummary(states, net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6
    assert len(states) > 2 * carpnet.likelihood._BLOCK
    for h, history in enumerate(states):
        _assert_row_is_alone(stack, h, TransitionSummary(history[None], net))


def test_objective_memory_is_bounded(fixture_network, recovery_histories):
    """One objective call over the 625 rows of a recovery refit's first pass
    (5 starts of each of 125 histories) holds the terms of at most _ROWS rows
    at once, so it stays under 1.2 MB, and so does a call over four times as
    many rows (0.90 and 1.04 MB; evaluated all at once they need 2.2 and
    8.6 MB)."""
    stack = TransitionSummary(recovery_histories, fixture_network)
    assert stack.activations.sizes.max() > 200
    for repeat in (1, 4):
        rows = np.tile(np.repeat(np.arange(125), 5), repeat)
        point = [np.full(rows.size, v) for v in FIXTURE_PARAMS.as_tuple()]
        tracemalloc.start()
        try:
            stack.loglik(rows, *point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2e6, (repeat, peak)
