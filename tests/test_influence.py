import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import carpnet.influence
from carpnet import (
    CATEGORIES,
    DataError,
    ModelParams,
    category_influence,
    risk_influence,
    solve_steady_state,
    solve_steady_states,
)
from carpnet.influence import _external_share
from conftest import FIXTURE_PARAMS, deletion_influence, external_fraction, make_network

PARAMS = ModelParams(0.3, 0.5, 1.0)
CRITICAL = ModelParams(1e-5, 0.08, 3.0)  # just below the contagion threshold: a 133-step baseline


def _knockouts(net):
    cuts = np.tile(net.likelihoods, (net.n_risks, 1))
    np.fill_diagonal(cuts, 0.0)
    return cuts


def test_zero_coupling_means_zero_external_share():
    params = ModelParams(0.3, 0.0, 1.0)
    net = make_network([0.2, 0.35], edges=[(0, 1)])
    assert (external_fraction(params, net) == 0.0).all()


def test_isolated_risk_has_zero_external_share():
    net = make_network([0.2, 0.35, 0.3], edges=[(0, 1)])  # r3 isolated
    frac = external_fraction(PARAMS, net)
    assert frac[2] == 0.0
    assert (frac[:2] > 0).all()


def test_rates_match_direct_arithmetic():
    net = make_network([0.25, 0.4], edges=[(0, 1)])
    p, L = solve_steady_state(PARAMS, net).p_hat, net.likelihoods
    share = _external_share(p[None, :], PARAMS, net, L[None, :])[0]
    for i, j in ((0, 1), (1, 0)):
        internal = (1 - p[i]) * (1 - (1 - L[i]) ** PARAMS.alpha)
        external = (1 - p[i]) * (1 - (1 - L[i]) ** (PARAMS.beta * p[j]))
        recovery = p[i] * (1 - L[i]) ** PARAMS.gamma
        assert share[i] == pytest.approx(external / (internal + external + recovery), rel=1e-12)


def test_edgeless_network_has_no_influence():
    net = make_network([0.2, 0.35, 0.3])
    inf = risk_influence(net, PARAMS)
    off_diag = inf.values[~np.eye(3, dtype=bool)]
    assert (off_diag == 0.0).all()
    assert np.isnan(np.diag(inf.values)).all()


def test_knockout_and_deletion_agree():
    """Zeroing a risk's likelihood must equal removing the node outright."""
    net = make_network([0.2, 0.35, 0.3, 0.25], edges=[(0, 1), (1, 2), (2, 3), (0, 2)])
    disable = risk_influence(net, PARAMS).values
    delete = deletion_influence(net, PARAMS)
    mask = ~np.eye(4, dtype=bool)
    assert np.abs(disable[mask] - delete[mask]).max() <= 1e-10


def test_batched_knockouts_match_one_solve_per_knockout(fixture_network):
    net = fixture_network
    # the fixture's parameters, and just below the contagion threshold
    for params in (FIXTURE_PARAMS, ModelParams(1e-5, 0.08, 3.0)):
        matrix = risk_influence(net, params)
        baseline = solve_steady_state(params, net)
        for field in dataclasses.fields(baseline):
            name = field.name
            assert np.array_equal(getattr(matrix.baseline, name), getattr(baseline, name)), name
        values = matrix.values
        base = external_fraction(params, net)
        for i in range(net.n_risks):
            cut = net.likelihoods.copy()
            cut[i] = 0.0
            expected = base - external_fraction(params, net, L=cut)
            expected[i] = np.nan
            np.testing.assert_allclose(values[i], expected, rtol=0, atol=1e-12)


def test_influence_is_nonnegative_on_small_nets():
    net = make_network([0.2, 0.35, 0.3, 0.25], edges=[(0, 1), (1, 2), (2, 3)])
    inf = risk_influence(net, PARAMS)
    mask = ~np.eye(4, dtype=bool)
    assert (inf.values[mask] >= 0.0).all()


def test_hub_removal_influences_leaves_more_than_vice_versa():
    net = make_network([0.3, 0.3, 0.3, 0.3], edges=[(0, 1), (0, 2), (0, 3)])
    inf = risk_influence(net, PARAMS)
    assert inf.values[0, 1] > inf.values[1, 0]


def _block_diagonal_network():
    # two categories, each an internally wired triangle, no cross edges
    cats = [CATEGORIES[0]] * 3 + [CATEGORIES[1]] * 3
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    return make_network([0.25] * 6, edges=edges, categories=cats)


def test_disconnected_categories_have_zero_cross_influence():
    net = _block_diagonal_network()
    inf = risk_influence(net, PARAMS)
    cat = category_influence(inf, net)
    a, b = cat.categories.index(CATEGORIES[0]), cat.categories.index(CATEGORIES[1])
    assert cat.raw[a, b] == 0.0 and cat.raw[b, a] == 0.0
    assert cat.raw[a, a] > 0.0 and cat.raw[b, b] > 0.0


def test_category_aggregation_matches_hand_blocks():
    net = _block_diagonal_network()
    inf = risk_influence(net, PARAMS)
    cat_sum = category_influence(inf, net, aggregate="sum")
    cat_mean = category_influence(inf, net, aggregate="mean")
    a = cat_sum.categories.index(CATEGORIES[0])
    block = inf.values[:3, :3]
    assert cat_sum.raw[a, a] == pytest.approx(np.nansum(block))
    # diagonal block has 6 defined (off-diagonal) cells
    assert cat_mean.raw[a, a] == pytest.approx(np.nansum(block) / 6)


def test_empty_categories_and_all_nan_blocks():
    # CATEGORIES[2] holds one risk, so its own block is the NaN diagonal alone;
    # CATEGORIES[3] and CATEGORIES[4] hold none
    cats = [CATEGORIES[0]] * 2 + [CATEGORIES[1]] * 2 + [CATEGORIES[2]]
    net = make_network([0.25] * 5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)], categories=cats)
    inf = risk_influence(net, PARAMS)
    total = category_influence(inf, net, aggregate="sum").raw
    mean = category_influence(inf, net, aggregate="mean").raw
    assert total[2, 2] == 0.0 and np.isnan(mean[2, 2])
    assert (total[3:] == 0.0).all() and (total[:, 3:] == 0.0).all()
    assert np.isnan(mean[3:]).all() and np.isnan(mean[:, 3:]).all()
    assert np.isfinite(mean[:3, :3]).sum() == 8


@pytest.mark.parametrize("aggregate", ["sum", "mean"])
def test_category_raw_matches_per_block_reference(fixture_network, aggregate):
    net = fixture_network
    inf = risk_influence(net, FIXTURE_PARAMS)
    raw = category_influence(inf, net, aggregate=aggregate).raw
    reduce = np.nansum if aggregate == "sum" else np.nanmean
    cats = np.array(net.categories)
    expected = [[reduce(inf.values[np.ix_(cats == c, cats == d)]) for d in CATEGORIES]
                for c in CATEGORIES]
    np.testing.assert_allclose(raw, expected, rtol=1e-12, atol=0)


def test_category_scaling_formula():
    net = _block_diagonal_network()
    inf = risk_influence(net, PARAMS)
    cat = category_influence(inf, net, kappa=99.0)
    finite = np.isfinite(cat.raw)
    lo, hi = cat.raw[finite].min(), cat.raw[finite].max()
    expected_norm = (cat.raw - lo) / (hi - lo)
    assert np.allclose(cat.normalized[finite], expected_norm[finite])
    assert np.allclose(cat.log_scaled[finite], np.log1p(99.0 * expected_norm[finite]))
    assert not cat.degenerate


@pytest.mark.parametrize("kappa", [math.nan, math.inf, 0.0, -1.0])
def test_kappa_must_be_finite_and_positive(kappa):
    net = _block_diagonal_network()
    inf = risk_influence(net, PARAMS)
    with pytest.raises(DataError, match="kappa"):
        category_influence(inf, net, kappa=kappa)


def test_degenerate_flat_categories():
    net = make_network([0.25, 0.25], edges=[], categories=[CATEGORIES[0], CATEGORIES[1]])
    inf = risk_influence(net, PARAMS)
    cat = category_influence(inf, net)
    assert cat.degenerate
    assert (cat.normalized == 0.0).all()


@given(
    beta=st.sampled_from([0.1, 0.4, 0.8]),
    gamma=st.sampled_from([0.6, 1.0, 1.5]),
    drop=st.integers(0, 3),
)
@settings(max_examples=20)
def test_removing_any_node_weakly_lowers_the_rest(beta, gamma, drop):
    params = ModelParams(0.25, beta, gamma)
    net = make_network([0.2, 0.35, 0.3, 0.25], edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
    base = solve_steady_state(params, net)
    L = net.likelihoods.copy()
    L[drop] = 0.0
    knocked = solve_steady_states(params, net, [L])[0]
    others = np.arange(4) != drop
    assert (knocked.p_hat[others] <= base.p_hat[others] + 1e-12).all()


def test_near_critical_knockouts_start_at_the_baseline(monkeypatch, fixture_network):
    solve, calls = carpnet.influence._solve_from_above, []
    monkeypatch.setattr(carpnet.influence, "_solve_from_above",
                        lambda *args: calls.append(solve(*args)) or calls[-1])
    matrix = risk_influence(fixture_network, CRITICAL)
    [knocked] = calls
    bounds = [s.error_bound for s in (matrix.baseline, *knocked)]
    assert max(s.iterations for s in knocked) < matrix.baseline.iterations
    assert matrix.error_bound == max(bounds) < 1e-11 and matrix.n_unbounded == 0


@pytest.mark.parametrize("params", [FIXTURE_PARAMS, ModelParams(0.0, 0.08, 3.0),
                                    ModelParams(0.0, 0.5, 1.0)],
                         ids=["fixture", "alpha-0-critical", "alpha-0-contagion"])
def test_knockouts_sweep_from_zero_outside_the_gate(monkeypatch, fixture_network, params):
    def forbidden(*args):
        raise AssertionError("knockouts solved from the baseline")
    monkeypatch.setattr(carpnet.influence, "_solve_from_above", forbidden)
    net, cuts = fixture_network, _knockouts(fixture_network)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        matrix = risk_influence(net, params)
        states = [solve_steady_state(params, net), *solve_steady_states(params, net, cuts)]
    share = _external_share(np.array([s.p_hat for s in states]), params, net,
                            np.vstack([net.likelihoods, cuts]))
    expected = share[0] - share[1:]
    np.fill_diagonal(expected, np.nan)
    assert np.array_equal(matrix.values, expected, equal_nan=True)
    bounds = np.array([s.error_bound for s in states])
    assert matrix.n_unbounded == np.isinf(bounds).sum()
    assert matrix.error_bound == bounds.max()


# Influence is never negative: a knockout lowers every exposure, and a risk's
# external share rises with its exposure.  A computed entry falls below 0 only
# by the two solves' errors times the share's slope.  Over 1,400 random draws
# like these the most negative entry was -3.9e-13; the limit leaves a margin
# of 250.
_NEGATIVE = 1e-10


@given(net=st.sampled_from(["toy", "fixture"]), log_alpha=st.floats(-8, 0),
       log_beta=st.floats(-3, 0.5), gamma=st.floats(0.2, 3.0))
@example(net="fixture", log_alpha=-5, log_beta=math.log10(0.08), gamma=3.0)  # inside the gate
@example(net="toy", log_alpha=-7.65, log_beta=math.log10(0.3), gamma=2.35)  # inside the gate
@settings(max_examples=40, deadline=None)
def test_influence_is_never_materially_negative(toy_network, fixture_network, net, log_alpha,
                                                log_beta, gamma):
    network = toy_network if net == "toy" else fixture_network
    matrix = risk_influence(network, ModelParams(10.0 ** log_alpha, 10.0 ** log_beta, gamma))
    assert matrix.n_unbounded == 0
    assert np.nanmin(matrix.values) >= -_NEGATIVE
