import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import carpnet.steady_state
from carpnet import (
    ConvergenceError,
    DataError,
    ModelParams,
    fixed_point_map,
    risk_influence,
    solve_steady_state,
    solve_steady_states,
)
from carpnet.steady_state import _solve_from_above
from conftest import TOY_PARAMS, make_network
from oracles import (
    exact_transition_matrix,
    newton_fixed_point,
    stationary_distribution,
    sweep_iterates,
)


def test_isolated_risk_has_closed_form():
    # p_int = 0.1 and p_rec = 0.4 by construction, so p = 0.1 / 0.5
    L = 0.3
    alpha = math.log(0.9) / math.log(0.7)
    gamma = math.log(0.4) / math.log(0.7)
    ss = solve_steady_state(ModelParams(alpha, 0.7, gamma), make_network([L]))
    assert ss.p_hat[0] == pytest.approx(0.2, abs=1e-12)


def test_residual_and_monotonicity_flags():
    net = make_network([0.2, 0.35, 0.3, 0.25], edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
    params = ModelParams(0.3, 0.4, 1.0)
    ss = solve_steady_state(params, net)
    assert ss.unique
    # F is increasing with F(0) >= 0, so no sweep iterate from 0 falls
    assert np.diff(sweep_iterates(fixed_point_map, params, net), axis=0).min() >= -1e-15
    phi = fixed_point_map(ss.p_hat, params, net)
    assert np.abs(ss.p_hat - phi).max() <= 1e-12
    assert ss.residual <= 1e-12
    assert 0 < ss.error_bound <= 100 * 1e-12


def test_knockout_zero_likelihood_pins_risk_to_zero():
    net = make_network([0.2, 0.35, 0.3], edges=[(0, 1), (1, 2)])
    L = net.likelihoods.copy()
    L[1] = 0.0
    ss = solve_steady_states(ModelParams(0.3, 0.5, 1.0), net, [L])[0]
    assert ss.p_hat[1] == 0.0
    assert (ss.p_hat[[0, 2]] > 0).all()


def test_two_node_clique_close_to_exact_chain():
    """Mean-field bias on K2 stays inside a few percent of the exact answer."""
    L = [0.3, 0.3]
    params = ModelParams(0.5, 0.5, 0.5)
    net = make_network(L, edges=[(0, 1)])
    ss = solve_steady_state(params, net)
    T = exact_transition_matrix(net.adjacency, L, 0.5, 0.5, 0.5)
    pi = stationary_distribution(T)
    bits = (np.arange(4)[:, None] >> np.arange(2)) & 1
    exact = pi @ bits
    assert np.abs(ss.p_hat - exact).max() < 0.02


def test_zero_coupling_ignores_the_graph():
    params = ModelParams(0.4, 0.0, 1.1)
    L = [0.2, 0.35, 0.3]
    wired = solve_steady_state(params, make_network(L, edges=[(0, 1), (1, 2), (0, 2)]))
    lonely = solve_steady_state(params, make_network(L))
    assert np.allclose(wired.p_hat, lonely.p_hat, atol=1e-14)


def test_unreachable_budget_raises(monkeypatch):
    net = make_network([0.2, 0.3], edges=[(0, 1)])
    monkeypatch.setattr(carpnet.steady_state, "_MAX_ITER", 2)
    with pytest.raises(ConvergenceError):
        solve_steady_state(ModelParams(0.3, 0.4, 1.0), net)


def _knockouts(net):
    cuts = np.tile(net.likelihoods, (net.n_risks, 1))
    np.fill_diagonal(cuts, 0.0)
    return cuts


_FIXTURE, _CRITICAL = ModelParams(0.3, 0.02, 1.0), ModelParams(1e-5, 0.08, 3.0)
_CONTAGION = ModelParams(0.0, 0.5, 1.0)  # alpha = 0 far above the threshold


@pytest.mark.parametrize("case", ["toy", "fixture-critical", "fixture-contagion", "fixture-mixed"])
def test_batched_solves_match_the_scalar_loop(case, toy_network, fixture_network):
    net, Ls = fixture_network, _knockouts(fixture_network)
    if case == "toy":
        net, params = toy_network, TOY_PARAMS
        Ls = np.vstack([net.likelihoods, _knockouts(net)])
    elif case == "fixture-critical":  # just below the threshold: up to ~1,900 sweeps
        params = _CRITICAL
    elif case == "fixture-contagion":  # p = 0 is one of several fixed points
        params = _CONTAGION
    else:  # one triple per row: columns leave at different sweeps, some unproven
        params = [(_FIXTURE, _CRITICAL, _CONTAGION)[k % 3] for k in range(len(Ls))]
    rows = params if isinstance(params, list) else [params] * len(Ls)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        batch = solve_steady_states(params, net, Ls)
        loop = [solve_steady_states(p, net, [row])[0] for p, row in zip(rows, Ls)]
    assert len(batch) == len(Ls)
    for b, s in zip(batch, loop):
        assert (b.iterations, b.unique) == (s.iterations, s.unique)
        assert np.abs(b.p_hat - s.p_hat).max() <= 1e-14
        assert b.error_bound == pytest.approx(s.error_bound, rel=1e-3)
    nonunique = sum(not b.unique for b in batch)
    assert nonunique == rows.count(_CONTAGION)
    # one warning per non-unique column from each path, pointing at the caller
    assert len(caught) == 2 * nonunique
    assert {w.filename for w in caught} <= {__file__}


def _beta_at_radius(net, alpha, gamma, rho):
    """The beta at which J(0) = diag(F'(alpha)) beta A has spectral radius ``rho``."""
    log1m = np.log1p(-net.likelihoods)
    rec, base = np.exp(gamma * log1m), np.exp(alpha * log1m)
    slope = rec * -log1m * base / (1 - base + rec) ** 2
    return rho / np.abs(np.linalg.eigvals(slope[:, None] * net.adjacency)).max()


def _oracle_error(net, params, ss, L=None):
    """max|p_hat - p*| against the mpmath Newton-polished fixed point, at likelihoods ``L``."""
    L = net.likelihoods if L is None else L
    exact = newton_fixed_point(net.adjacency, L, *params.as_tuple(), ss.p_hat)
    return max(abs(mpmath.mpf(float(p)) - q) for p, q in zip(ss.p_hat, exact))


def test_near_critical_knockouts_finish_with_newton(fixture_network):
    # sweeping alone takes 229-1,884 sweeps per knockout here
    states = solve_steady_states(ModelParams(1e-5, 0.08, 3.0), fixture_network,
                                 _knockouts(fixture_network))
    assert max(s.iterations for s in states) < 229
    assert all(s.unique for s in states)
    assert max(s.residual for s in states) < 1e-15  # the step after tol lands on rounding
    assert max(s.error_bound for s in states) < 1e-11


def _from_baseline(net, params, Ls):
    return _solve_from_above(params, net, Ls, solve_steady_state(params, net).p_hat)


def test_near_critical_knockouts_fall_from_the_baseline(fixture_network):
    # the baseline is a supersolution for every knockout, so Newton needs no sweep
    net, Ls = fixture_network, _knockouts(fixture_network)
    above = _from_baseline(net, _CRITICAL, Ls)
    swept = solve_steady_states(_CRITICAL, net, Ls)
    assert max(s.iterations for s in above) < min(s.iterations for s in swept)
    for a, s in zip(above, swept, strict=True):
        assert a.unique and a.error_bound < 1e-11
        assert np.abs(a.p_hat - s.p_hat).max() <= a.error_bound + s.error_bound


@pytest.mark.parametrize("pick", [np.argmax, np.argmin], ids=["hub", "leaf"])
def test_knockouts_from_the_baseline_meet_their_bound(fixture_network, pick):
    net, Ls = fixture_network, _knockouts(fixture_network)
    i = int(pick(net.adjacency.sum(axis=1)))
    ss = _from_baseline(net, _CRITICAL, Ls)[i]
    assert _oracle_error(net, _CRITICAL, ss, L=Ls[i]) <= ss.error_bound


@pytest.mark.parametrize("failing", ["budget", "every-test", "even-tests", "understated-residual"])
def test_failed_knockouts_are_solved_again_from_zero(monkeypatch, fixture_network, failing):
    net, Ls = fixture_network, _knockouts(fixture_network)
    start = solve_steady_state(_CRITICAL, net).p_hat
    redo = np.arange(len(Ls)) % 2 == 0 if failing == "even-tests" else np.ones(len(Ls), bool)
    if failing == "budget":  # one step leaves every column above tol
        monkeypatch.setattr(carpnet.steady_state, "_CHECK_EVERY", 1)
    elif failing == "understated-residual":
        # Newton's answer q sits 1e-9 above the point whose residual it reports:
        # the M-matrix test at l = (1 - d)q may pass, but l is above p*, so only
        # the check F(l) >= l sends the knockouts back to the sweep
        newton = carpnet.steady_state._newton

        def shifted(*args):
            out, residual, count = newton(*args)
            return out + 1e-9, residual, count
        monkeypatch.setattr(carpnet.steady_state, "_newton", shifted)
    else:  # every knockout swept from 0 here leaves by Newton, so only
        trial = carpnet.steady_state._trial  # the new path's test has columns

        def fail(P, *args):
            ymax, zmin = trial(P, *args)
            return ymax, np.where(redo[:P.shape[1]], 0.0, zmin)
        monkeypatch.setattr(carpnet.steady_state, "_trial", fail)
    got = _solve_from_above(_CRITICAL, net, Ls, start)
    again = iter(solve_steady_states(_CRITICAL, net, Ls[redo]))
    for state, sweep in zip(got, redo, strict=True):
        if sweep:
            want = next(again)
            assert {**vars(state), "p_hat": state.p_hat.tolist()} == {
                **vars(want), "p_hat": want.p_hat.tolist()}
        else:
            assert state.iterations < 10 and state.error_bound < 1e-11


def test_unproven_knockouts_keep_the_sweep_limit(fixture_network):
    # alpha = 0 far above the threshold: every knockout stops at p = 0 unproven
    params, Ls = ModelParams(0.0, 0.5, 1.0), _knockouts(fixture_network)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        states = solve_steady_states(params, fixture_network, Ls)
    for L, s in zip(Ls, states):
        its = sweep_iterates(fixed_point_map, params, fixture_network, L=L)
        assert (s.iterations, s.p_hat.tolist()) == (len(its), its[-1].tolist())
        assert not s.unique and s.error_bound == math.inf


def test_failed_test_keeps_the_column_sweeping(monkeypatch):
    # rho(J(0)) = 1.05: while l is near 0 the M-matrix test fails, and Newton
    # started there does not converge.  The tests at sweeps 64 and 128 fail,
    # so the column sweeps on until one passes.
    net = make_network([0.3, 0.5, 0.2, 0.7], edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
    params = ModelParams(1e-6, _beta_at_radius(net, 1e-6, 1.0, 1.05), 1.0)
    # a small budget raises, rather than hangs, if a failed test starts a stalling Newton
    monkeypatch.setattr(carpnet.steady_state, "_MAX_ITER", 5_000)
    ss = solve_steady_state(params, net)
    assert ss.unique
    its = sweep_iterates(fixed_point_map, params, net)
    assert np.diff(its, axis=0).min() >= -1e-15
    assert 128 < ss.iterations < len(its)
    assert _oracle_error(net, params, ss) <= ss.error_bound


def test_budget_counts_sweeps_and_newton_steps(monkeypatch):
    L = [0.3, 0.5, 0.2]
    net = make_network(L, edges=[(0, 1), (1, 2)])
    params = ModelParams(1e-3, _beta_at_radius(net, 1e-3, 1.0, 0.999), 1.0)
    ss = solve_steady_state(params, net)
    assert ss.iterations < len(sweep_iterates(fixed_point_map, params, net))
    monkeypatch.setattr(carpnet.steady_state, "_MAX_ITER", ss.iterations)
    again = solve_steady_state(params, net)
    assert (again.iterations, again.p_hat.tolist()) == (ss.iterations, ss.p_hat.tolist())
    monkeypatch.setattr(carpnet.steady_state, "_MAX_ITER", ss.iterations - 1)
    with pytest.raises(ConvergenceError):
        solve_steady_state(params, net)


@pytest.mark.parametrize("params", [_FIXTURE, _CRITICAL, _CONTAGION],
                         ids=["fixture", "critical", "contagion"])
def test_one_triple_per_row_is_one_triple_for_every_row(params, fixture_network):
    Ls = _knockouts(fixture_network)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        each = solve_steady_states([params] * len(Ls), fixture_network, Ls)
        every = solve_steady_states(params, fixture_network, Ls)
    for a, b in zip(each, every, strict=True):
        assert {**vars(a), "p_hat": a.p_hat.tolist()} == {**vars(b), "p_hat": b.p_hat.tolist()}


def test_batched_solver_needs_one_triple_per_row():
    net = make_network([0.2, 0.3], edges=[(0, 1)])
    params, Ls = ModelParams(0.3, 0.4, 1.0), [[0.2, 0.3], [0.1, 0.3]]
    for wrong in ([], [params], [params] * 3):
        with pytest.raises(DataError, match="one per row"):
            solve_steady_states(wrong, net, Ls)


def test_batched_solver_checks_its_stack():
    net = make_network([0.2, 0.3], edges=[(0, 1)])
    params = ModelParams(0.3, 0.4, 1.0)
    for bad in ([0.2, 0.3], [[[0.2, 0.3]]], [[0.2, 0.3, 0.1]], [], np.zeros((0, 2))):
        with pytest.raises(DataError, match="shape"):
            solve_steady_states(params, net, bad)


def test_pure_contagion_reports_non_unique_limits():
    net = make_network([0.5] * 4, edges=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    with pytest.warns(UserWarning, match="not unique"):
        ss = solve_steady_state(ModelParams(0.0, 5.0, 0.5), net)
    assert not ss.unique
    assert ss.p_hat[0] == 0.0  # least fixed point: nothing ever starts
    assert ss.error_bound == math.inf
    its = sweep_iterates(fixed_point_map, ModelParams(0.0, 5.0, 0.5), net)
    assert (ss.iterations, ss.p_hat.tolist()) == (len(its), its[-1].tolist())


def test_subcritical_pure_contagion_is_certified_exactly():
    # alpha = 0 and rho(J(0)) = 0.999 < 1, so p = 0 is the only fixed point.
    # A sweep from p = 1 stops about tol / (1 - rho) = 1e-9 above it, so
    # comparing the limits from 0 and 1 would call this non-unique.
    L = 0.3
    beta = 0.999 * (1 - L) ** 0.5 / -math.log1p(-L)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ss = solve_steady_state(ModelParams(0.0, beta, 0.5), make_network([L, L], edges=[(0, 1)]))
    assert ss.unique and ss.error_bound == 0.0
    assert (ss.p_hat == 0.0).all()


@pytest.mark.parametrize("dataset, p_max", [("fixture", 0.501), ("toy", 0.311)])
@pytest.mark.parametrize("alpha", [1e-15, 1e-13])
def test_tiny_alpha_does_not_stop_at_zero(request, dataset, p_max, alpha):
    # F(0) is below tol, so p = 0 has a residual below tol, yet it is no fixed
    # point: for alpha > 0 the fixed point is unique, and a sweep down from
    # p = 1 finds it
    net = request.getfixturevalue(f"{dataset}_network")
    params = ModelParams(alpha, 0.12, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ss = solve_steady_state(params, net)
    assert ss.unique and ss.error_bound < 1e-12
    p = np.ones(net.n_risks)
    for _ in range(10_000):
        p, before = fixed_point_map(p, params, net), p
        if np.abs(p - before).max() < 1e-15:
            break
    assert np.abs(ss.p_hat - p).max() <= 1e-12
    assert ss.p_hat.max() == pytest.approx(p_max, abs=1e-3)


@pytest.mark.parametrize("dataset, total", [("fixture", 2.404), ("toy", 0.2628)])
def test_subcritical_tiny_alpha_does_not_stop_at_zero(request, dataset, total):
    # Below the threshold J(0) passes the M-matrix test with y = 1, and F(0)
    # is below tol, so only the test at y = p keeps p = 0 from ending the
    # sweep.  p* is within 1e-14 of 0, but the external shares that make up
    # the influence are ratios of such values and vanish at p = 0.
    net = request.getfixturevalue(f"{dataset}_network")
    params = ModelParams(1e-15, 0.01, 3.0)
    ss = solve_steady_state(params, net)
    assert ss.unique
    assert (ss.p_hat >= fixed_point_map(np.zeros(net.n_risks), params, net)).all()
    assert np.nansum(risk_influence(net, params).values) == pytest.approx(total, rel=1e-3)


@pytest.mark.parametrize("singular", [False, True], ids=["solved", "singular"])
def test_hub_is_certified_by_the_solved_trial_vector(monkeypatch, singular):
    # alpha = 0 on a hub with three leaves: the hub's row of J(0) sums to 1.5,
    # so y = 1 fails, but rho(J(0)) = 0.87 and y = (I - J)^-1 1 proves p = 0
    # unique.  An exactly singular I - J must leave the solve unproven.
    L, gamma = 0.3, 1.0
    beta = 0.5 * (1 - L) ** gamma / -math.log1p(-L)
    net = make_network([L] * 4, edges=[(0, 1), (0, 2), (0, 3)])
    if singular:
        def fail(*args):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(np.linalg, "solve", fail)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ss = solve_steady_state(ModelParams(0.0, beta, gamma), net)
    assert (ss.p_hat == 0.0).all()
    assert ss.unique is not singular
    assert ss.error_bound == (math.inf if singular else 0.0)
    assert ["not unique" in str(w.message) for w in caught] == [True] * singular


@pytest.mark.parametrize("alpha", [0.0, 1e-3])
def test_unique_rests_on_alpha_or_a_passed_test(monkeypatch, alpha):
    # the hub above with no linear solve: the trial y = 1 fails on the hub's
    # row, so no error bound; p* is still unique wherever alpha > 0
    L, gamma = 0.3, 1.0
    beta = 0.5 * (1 - L) ** gamma / -math.log1p(-L)

    def fail(*args):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", fail)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ss = solve_steady_state(ModelParams(alpha, beta, gamma),
                                make_network([L] * 4, edges=[(0, 1), (0, 2), (0, 3)]))
    assert ss.unique is (alpha > 0) and ss.error_bound == math.inf
    [warning] = caught
    assert "no error bound" in str(warning.message)
    assert ("not unique" in str(warning.message)) is (alpha == 0)


@st.composite
def small_models(draw):
    R = draw(st.integers(2, 6))
    L = draw(st.lists(st.sampled_from([0.05, 0.2, 0.35, 0.5, 0.7, 0.9]), min_size=R, max_size=R))
    pairs = [(i, j) for i in range(R) for j in range(i + 1, R)]
    edges = [e for e, on in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                     max_size=len(pairs)))) if on]
    params = ModelParams(draw(st.sampled_from([0.0, 1e-3, 0.05, 0.3, 1.0])),
                         draw(st.sampled_from([0.05, 0.3, 1.0, 3.0])),
                         draw(st.sampled_from([0.5, 1.0, 3.0])))
    return make_network(L, edges=edges), params


@given(model=small_models())
@settings(max_examples=60)
def test_certified_error_bound_holds_against_newton_polished_fixed_point(model):
    net, params = model
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ss = solve_steady_state(params, net)
    assume(ss.unique)
    exact = newton_fixed_point(net.adjacency, net.likelihoods, *params.as_tuple(), ss.p_hat)
    error = max(abs(mpmath.mpf(float(p)) - q) for p, q in zip(ss.p_hat, exact))
    assert error <= ss.error_bound


@st.composite
def near_critical_models(draw):
    R = draw(st.integers(2, 6))
    # small L, alpha and gamma keep p* near 0, where J is largest, so the
    # sweep alone needs hundreds of sweeps
    L = draw(st.lists(st.sampled_from([0.05, 0.2, 0.35, 0.5]), min_size=R, max_size=R))
    pairs = [(i, j) for i in range(R) for j in range(i + 1, R)]
    on = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    net = make_network(L, edges=[(0, 1)] + [e for e, b in zip(pairs[1:], on[1:]) if b])
    alpha = draw(st.sampled_from([1e-5, 1e-4, 1e-3]))
    gamma = draw(st.sampled_from([0.5, 1.0, 2.0]))
    rho = draw(st.floats(0.95, 0.999))
    return net, ModelParams(alpha, _beta_at_radius(net, alpha, gamma, rho), gamma)


@given(model=near_critical_models())
@settings(max_examples=40)
def test_newton_polished_solves_keep_their_certificate(model):
    # rho(J(0)) in [0.95, 0.999] takes the sweep past its first M-matrix test
    net, params = model
    ss = solve_steady_state(params, net)
    assert ss.unique
    its = sweep_iterates(fixed_point_map, params, net)
    assert np.diff(its, axis=0).min() >= -1e-15
    assert ss.iterations < len(its)
    assert _oracle_error(net, params, ss) <= ss.error_bound


grid = st.sampled_from([0.1, 0.3, 0.7])


@given(alpha=grid, beta=grid, gamma=st.sampled_from([0.5, 1.0, 2.0]), extra=st.integers(0, 2))
@settings(max_examples=30)
def test_adding_an_edge_never_lowers_activity(alpha, beta, gamma, extra):
    params = ModelParams(alpha, beta, gamma)
    L = [0.2, 0.35, 0.3, 0.25]
    base_edges = [(0, 1), (1, 2)]
    candidates = [(2, 3), (0, 3), (0, 2)]
    sparse = solve_steady_state(params, make_network(L, edges=base_edges))
    dense = solve_steady_state(
        params, make_network(L, edges=base_edges + [candidates[extra]])
    )
    assert (dense.p_hat >= sparse.p_hat - 1e-10).all()


@given(alpha=grid, beta=grid, gamma=st.sampled_from([0.5, 1.0, 2.0]), bump=st.integers(0, 3))
@settings(max_examples=30)
def test_raising_one_likelihood_raises_everyone(alpha, beta, gamma, bump):
    params = ModelParams(alpha, beta, gamma)
    L = np.array([0.2, 0.35, 0.3, 0.25])
    net = make_network(L, edges=[(0, 1), (1, 2), (2, 3)])
    before = solve_steady_state(params, net)
    L2 = L.copy()
    L2[bump] = min(L2[bump] + 0.2, 0.9)
    after = solve_steady_states(params, net, [L2])[0]
    assert (after.p_hat >= before.p_hat - 1e-10).all()


@given(alpha=grid, gamma=st.sampled_from([0.5, 1.0, 2.0]), beta=grid)
@settings(max_examples=30)
def test_stronger_coupling_raises_everyone(alpha, gamma, beta):
    L = [0.2, 0.35, 0.3]
    net = make_network(L, edges=[(0, 1), (1, 2)])
    weak = solve_steady_state(ModelParams(alpha, beta, gamma), net)
    strong = solve_steady_state(ModelParams(alpha, beta * 1.5, gamma), net)
    assert (strong.p_hat >= weak.p_hat - 1e-10).all()
