import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import carpnet.dynamics
import carpnet.likelihood
import carpnet.validation
from carpnet import (
    ConvergenceError,
    DataError,
    ForwardReport,
    ModelParams,
    build_history,
    derive_rng,
    fit,
    fit_many,
    forward_error_bounds,
    load_history,
    load_network,
    month_sequence,
    network_effect_comparison,
    recovery_experiment,
    run_cascades,
    sensitivity_suite,
    solve_steady_state,
    solve_steady_states,
    statistics_from_batch,
    step_activation_counts,
)
from carpnet.validation import _attribution_shares
from conftest import FIXTURE_PARAMS, ROOT, TOY_PARAMS, make_network


# --- attribution ----------------------------------------------------------

def test_attribution_splits_joint_events_evenly():
    a, b, total = _attribution_shares([2, 1, 1])
    assert a == pytest.approx(0.625)
    assert b == pytest.approx(0.375)
    assert a + b == pytest.approx(1.0)
    assert total == 4


def test_attribution_with_no_events_is_undefined():
    a, b, total = _attribution_shares([0, 0, 0])
    assert total == 0
    assert math.isnan(a) and math.isnan(b)


@given(i=st.integers(0, 20), e=st.integers(0, 20), b=st.integers(0, 20))
def test_attribution_shares_always_sum_to_one(i, e, b):
    a_share, b_share, total = _attribution_shares([i, e, b])
    if total > 0:
        assert a_share + b_share == pytest.approx(1.0)


# --- recovery experiment --------------------------------------------------

@pytest.fixture(scope="module")
def small_recovery(request):
    net = make_network([0.25, 0.4, 0.3, 0.35], edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
    hist_states = np.zeros((4, 60), np.uint8)
    hist = build_history(net, month_sequence("2005-01", 60), hist_states)
    truth = ModelParams(0.4, 0.3, 1.2)
    report = recovery_experiment(net, hist, truth, n_replicates=8, master_seed=99)
    return net, hist, truth, report


def test_recovery_discards_a_third(small_recovery):
    _, _, _, report = small_recovery
    assert report.n_failed == 0
    assert len(report.discarded) == 3  # ceil(8 / 3)
    assert len(report.retained) == 5
    assert set(report.retained) | set(report.discarded) == set(range(8))


def test_recovery_keeps_the_closest_replicates(small_recovery):
    _, _, _, report = small_recovery
    worst_kept = report.ks[list(report.retained)].max()
    best_dropped = report.ks[list(report.discarded)].min()
    assert worst_kept <= best_dropped


def test_recovery_bounds_cover_retained_errors(small_recovery):
    _, _, _, report = small_recovery
    a_gt, g_gt = report.gt_vector
    kept = list(report.retained)
    errs_a = np.abs(report.activation_param[kept] / a_gt - 1)
    errs_g = np.abs(report.recovery_param[kept] / g_gt - 1)
    assert report.activation_bound == pytest.approx(errs_a.max())
    assert report.recovery_bound == pytest.approx(errs_g.max())


def test_recovery_ground_truth_shares_come_from_stream_tag_0(small_recovery):
    net, hist, truth, report = small_recovery
    ref = run_cascades(net, truth, hist.states[:, 0].astype(bool), hist.n_months - 1, 99,
                       [0], rng_path_prefix=(0,), track_causes=True)
    counts = ref.cause_counts[0]
    a, b, total = _attribution_shares(counts)
    assert report.gt_fractions == {
        "internal_only": counts[0], "external_only": counts[1], "both": counts[2],
        "a": a, "b": b, "both_fraction": counts[2] / total,
    }


def test_recovery_columns_are_the_relative_errors(small_recovery):
    _, _, truth, report = small_recovery
    f = report.gt_fractions
    assert report.gt_vector[0] == f["a"] * truth.alpha + f["b"] * truth.beta
    a_gt, g_gt = report.gt_vector
    ok = ~report.failed
    assert (report.recovery_param[ok] == report.params[ok, 2]).all()
    expected = np.maximum(np.abs(report.activation_param / a_gt - 1.0),
                          np.abs(report.recovery_param / g_gt - 1.0))
    assert (report.ks[ok] == expected[ok]).all()


def test_recovery_is_reproducible(small_recovery):
    net, hist, truth, report = small_recovery
    again = recovery_experiment(net, hist, truth, n_replicates=8, master_seed=99)
    assert again.retained == report.retained
    assert again.activation_bound == report.activation_bound
    assert np.array_equal(again.params, report.params)


def test_recovery_replicates_resimulate_from_first_month(small_recovery):
    net, hist, truth, report = small_recovery
    # different master seed -> different replicate draws
    other = recovery_experiment(net, hist, truth, n_replicates=8, master_seed=100)
    assert not np.array_equal(other.params, report.params)


def test_replicates_without_activations_fail_but_keep_their_fit():
    # Five of these 30 replicates activate nothing, so their attribution
    # fractions are undefined; their fits still succeed (alpha = beta = 0).
    toy = ROOT / "data" / "toy"
    net = load_network(toy / "risks.csv", toy / "pairs.csv", likelihood_scale=5)
    hist = load_history(toy / "history.csv", net)
    with pytest.warns(UserWarning, match="5 of 30"):
        report = recovery_experiment(
            net, hist, ModelParams(0.02, 0.01, 3.0), n_replicates=30, master_seed=2
        )
    assert report.n_failed == 5
    failed = np.flatnonzero(report.failed)
    assert failed.size == 5
    assert np.isfinite(report.params[failed]).all()
    assert np.isnan(report.activation_param[failed]).all()
    assert np.isnan(report.recovery_param[failed]).all()
    assert np.isnan(report.ks[failed]).all()
    assert not set(failed.tolist()) & set(report.retained + report.discarded)

def test_a_refit_error_fails_only_its_replicate(monkeypatch):
    net = make_network([0.25, 0.4, 0.3, 0.35], edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
    hist = build_history(net, month_sequence("2005-01", 60), np.zeros((4, 60), np.uint8))
    refit_all = carpnet.validation.fit_many
    monkeypatch.setattr(carpnet.validation, "fit_many", lambda *args, **kwargs: [
        ConvergenceError("no simplex start converged"), *refit_all(*args, **kwargs)[1:]])
    with pytest.warns(UserWarning, match="1 of 8"):
        report = recovery_experiment(net, hist, ModelParams(0.4, 0.3, 1.2), n_replicates=8,
                                     master_seed=99)
    assert report.failed.tolist() == [True] + [False] * 7
    assert np.isnan(report.params[0]).all() and np.isfinite(report.params[1:]).all()
    assert 0 not in report.retained + report.discarded


# --- forward bounds -------------------------------------------------------

def test_forward_ground_truth_set_deviates_zero():
    """Common random numbers: a validation set equal to the truth is exact."""
    net = make_network([0.25, 0.4, 0.3], edges=[(0, 1), (1, 2)])
    initial = np.array([False, True, False])
    report = forward_error_bounds(
        net, TOY_PARAMS, [TOY_PARAMS], initial=initial, months=12, runs=30, master_seed=5
    )
    assert report.worst_deviation == 0.0
    assert report.set_freq_active[0] == report.gt_freq_active
    assert report.freq_summary[0] == report.gt_freq_active


def test_forward_deviation_registers_parameter_error():
    net = make_network([0.25, 0.4, 0.3], edges=[(0, 1), (1, 2)])
    initial = np.array([False, True, False])
    off = ModelParams(TOY_PARAMS.alpha * 2, TOY_PARAMS.beta, TOY_PARAMS.gamma)
    report = forward_error_bounds(
        net, TOY_PARAMS, [TOY_PARAMS, off], initial=initial, months=12, runs=30, master_seed=5
    )
    assert report.worst_deviation > 0.05
    assert report.set_freq_active.shape == (2,)


_FORWARD_NET = make_network([0.25, 0.4, 0.3], edges=[(0, 1), (1, 2)])
_FORWARD_INITIAL = np.array([False, True, False])
_FORWARD_SETS = [ModelParams(a, b, g) for a in (0.2, 0.4) for b in (0.0, 0.3) for g in (0.8, 1.2)]
_FORWARD_SETS.append(TOY_PARAMS)  # with the ground truth, ten sets


def test_forward_report_equals_lone_runs_per_set(monkeypatch):
    # 8 * 16 // 30 = 4 sets per call, so the ten sets take three calls, and
    # each call steps two runs of its four sets per block
    monkeypatch.setattr(carpnet.dynamics, "_RUN_BLOCK", 8)
    report = forward_error_bounds(_FORWARD_NET, TOY_PARAMS, _FORWARD_SETS,
                                  initial=_FORWARD_INITIAL, months=12, runs=30, master_seed=5)

    gt, *stats = [
        statistics_from_batch(run_cascades(_FORWARD_NET, p, _FORWARD_INITIAL, 12, 5, range(30),
                                           rng_path_prefix=(2,)))
        for p in (TOY_PARAMS, *_FORWARD_SETS)
    ]
    freq = np.array([s.mean_freq_active for s in stats])
    acts = np.array([s.mean_activations for s in stats])
    freq_dev = np.abs(freq / gt.mean_freq_active - 1.0)
    acts_dev = np.abs(acts / gt.mean_activations - 1.0)
    want = ForwardReport(
        12, gt.mean_freq_active, gt.mean_activations, freq, acts, freq_dev, acts_dev,
        (freq.mean(), freq.min(), freq.max()), (acts.mean(), acts.min(), acts.max()),
        max(freq_dev.max(), acts_dev.max()),
    )
    for field in dataclasses.fields(ForwardReport):
        got = np.asarray(getattr(report, field.name)).tolist()
        assert got == np.asarray(getattr(want, field.name)).tolist(), field.name
    assert report.worst_deviation > 0 and report.freq_deviation[-1] == 0


@pytest.mark.parametrize("runs, n_calls", [(30, 1), (2000, 5)])
def test_forward_calls_stay_within_the_uniform_buffer(monkeypatch, runs, n_calls):
    calls = []
    inner = carpnet.validation.run_cascades

    def recording(*args, **kwargs):
        call = inspect.signature(inner).bind(*args, **kwargs).arguments
        calls.append((list(call["params"]), len(call["run_indices"])))
        return inner(*args, **kwargs)

    monkeypatch.setattr(carpnet.validation, "run_cascades", recording)
    forward_error_bounds(_FORWARD_NET, TOY_PARAMS, _FORWARD_SETS,
                         initial=_FORWARD_INITIAL, months=12, runs=runs, master_seed=5)
    bound = carpnet.dynamics._RUN_BLOCK * carpnet.dynamics._REFILL_STEPS
    assert len(calls) == n_calls
    assert all(len(sets) * n <= bound and n == runs for sets, n in calls)
    assert [p for sets, _ in calls for p in sets] == [TOY_PARAMS, *_FORWARD_SETS]


def test_forward_rejects_non_binary_initial_states():
    # a cast to bool would start every window from [1, 1, 0]
    with pytest.raises(DataError, match="0 or 1"):
        forward_error_bounds(_FORWARD_NET, TOY_PARAMS, [TOY_PARAMS], initial=[0.5, 2, 0],
                             months=6, runs=10, master_seed=3)


def test_forward_rejects_dead_ground_truth():
    net = make_network([0.25, 0.4], edges=[(0, 1)])
    dead = ModelParams(1e-12, 1e-12, 5.0)
    with pytest.raises(DataError):
        forward_error_bounds(
            net, dead, [TOY_PARAMS], initial=np.zeros(2, bool), months=6, runs=10,
            master_seed=3,
        )


# --- network effect -------------------------------------------------------

def test_step_activation_counts_hand_value():
    states = np.array([[0, 1, 0, 1], [1, 1, 0, 1]], dtype=np.uint8)
    assert step_activation_counts(states).tolist() == [1, 0, 2]
    assert step_activation_counts(np.stack([states, 1 - states])).tolist() == [[1, 0, 2], [0, 2, 0]]


def test_network_effect_report_is_reproducible():
    net = make_network([0.25, 0.4, 0.3], edges=[(0, 1), (1, 2)])
    states = np.array(
        [[0, 1, 1, 0, 0, 1, 0, 0, 1, 1], [1, 0, 0, 1, 0, 0, 1, 0, 0, 1],
         [0, 0, 1, 1, 0, 1, 0, 1, 0, 0]], dtype=np.uint8)
    hist = build_history(net, month_sequence("2001-01", 10), states)
    a = network_effect_comparison(net, hist, TOY_PARAMS, runs=25, master_seed=11)
    b = network_effect_comparison(net, hist, TOY_PARAMS, runs=25, master_seed=11)
    assert a.m_network == b.m_network
    assert a.m_independent == b.m_independent
    assert a.independent_params == b.independent_params
    assert a.independent_params.beta == 0.0
    assert a.ratio == pytest.approx(a.m_network / a.m_independent)


def test_network_effect_spread_is_the_sample_std_of_lone_runs():
    # each band is the mean and ddof=1 spread of the per-step activation
    # counts of lone runs on the paired streams
    net = make_network([0.25, 0.4, 0.3], edges=[(0, 1), (1, 2)])
    states = np.array(
        [[0, 1, 1, 0, 0, 1, 0, 0, 1, 1], [1, 0, 0, 1, 0, 0, 1, 0, 0, 1],
         [0, 0, 1, 1, 0, 1, 0, 1, 0, 0]], dtype=np.uint8)
    hist = build_history(net, month_sequence("2001-01", 10), states)
    runs = 6
    report = network_effect_comparison(net, hist, TOY_PARAMS, runs=runs, master_seed=11)
    for params, mean, std in ((TOY_PARAMS, report.network_mean, report.network_std),
                              (report.independent_params, report.independent_mean,
                               report.independent_std)):
        counts = np.array([
            step_activation_counts(run_cascades(
                net, params, states[:, 0].astype(bool), 9, 11, [r], rng_path_prefix=(3,),
                keep_states=True).states[0])
            for r in range(runs)], dtype=float)
        sample_var = ((counts - counts.mean(axis=0)) ** 2).sum(axis=0) / (runs - 1)
        assert std.any()
        np.testing.assert_allclose(mean, counts.mean(axis=0), rtol=1e-15, atol=0)
        np.testing.assert_allclose(std, np.sqrt(sample_var), rtol=1e-12, atol=0)


def test_network_effect_unreachable_burst_is_infinite():
    """A burst no simulated run can produce yields an infinite multiple."""
    net = make_network([0.25, 0.4, 0.3], edges=[(0, 1), (1, 2)])
    states = np.zeros((3, 8), np.uint8)
    states[:, 4] = 1  # all three risks activate in one month, then vanish
    states[:, 5] = 0
    hist = build_history(net, month_sequence("2001-01", 8), states)
    quiet = ModelParams(1e-9, 1e-9, 5.0)  # runs will never activate anything
    report = network_effect_comparison(net, hist, quiet, runs=20, master_seed=11)
    assert math.isinf(report.m_network)
    assert 3 in report.network_infinite_steps
    # at L = 1e-6 the beta = 0 refit, at its alpha bound of 10, activates a
    # risk with about 1e-5 a month, so its runs have no spread at the burst
    net = make_network([1e-6] * 3, edges=[(0, 1), (1, 2)])
    hist = build_history(net, month_sequence("2001-01", 8), states)
    report = network_effect_comparison(net, hist, quiet, runs=20, master_seed=11)
    assert report.independent_std[3] == 0 and math.isinf(report.m_independent)
    assert 3 in report.independent_infinite_steps


# --- integer counts -------------------------------------------------------

def _run_experiment(name, **counts):
    states = np.tile(np.arange(10) % 2, (3, 1)).astype(np.uint8)
    hist = build_history(_FORWARD_NET, month_sequence("2001-01", 10), states)
    if name == "recovery":
        return recovery_experiment(_FORWARD_NET, hist, TOY_PARAMS, master_seed=3, **counts)
    if name == "forward":
        return forward_error_bounds(_FORWARD_NET, TOY_PARAMS, [TOY_PARAMS],
                                    initial=_FORWARD_INITIAL, master_seed=3, **counts)
    return network_effect_comparison(_FORWARD_NET, hist, TOY_PARAMS, master_seed=3, **counts)


@pytest.mark.parametrize("name, count", [
    ("recovery", "n_replicates"), ("forward", "runs"), ("forward", "months"),
    ("network-effect", "runs"),
])
@pytest.mark.parametrize("value", [3.0, True], ids=["float", "bool"])
def test_experiment_counts_must_be_integers(name, count, value):
    # range() would raise a bare TypeError for 3.0, and True would run as 1
    with pytest.raises(DataError, match=f"{count} must be an integer"):
        _run_experiment(name, **{count: value})


def test_experiment_counts_may_be_numpy_integers():
    report = _run_experiment("forward", runs=np.int64(20), months=np.uint8(6))
    want = _run_experiment("forward", runs=20, months=6)
    assert all(np.array_equal(getattr(report, field.name), getattr(want, field.name))
               for field in dataclasses.fields(ForwardReport))
    assert type(report.months) is int


# --- sensitivity ----------------------------------------------------------

@pytest.fixture(scope="module")
def toy_sensitivity():
    net = make_network([0.25, 0.4, 0.3, 0.35], edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
    rng = np.random.default_rng(8)
    states = (rng.random((4, 80)) < 0.35).astype(np.uint8)
    hist = build_history(net, month_sequence("2005-01", 80), states)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = sensitivity_suite(net, hist, TOY_PARAMS, perturbation=0.1, master_seed=21)
    return net, hist, report


def test_sensitivity_likelihood_cuts_lower_activity(toy_sensitivity):
    _, _, report = toy_sensitivity
    assert (report.single_likelihood <= 1e-12).all()
    assert (report.all_likelihood <= 1e-12).all()


def test_sensitivity_all_likelihood_dominates_single(toy_sensitivity):
    _, _, report = toy_sensitivity
    assert (report.all_likelihood <= report.single_likelihood + 1e-12).all()


def test_sensitivity_deactivation_counts_are_ten_percent(toy_sensitivity):
    net, hist, report = toy_sensitivity
    active = hist.states.sum(axis=1)
    expected = np.floor(0.1 * active + 0.5).astype(int)
    assert (report.n_deactivated == expected).all()


def test_zero_perturbation_changes_nothing():
    net = make_network([0.25, 0.4], edges=[(0, 1)])
    rng = np.random.default_rng(8)
    states = (rng.random((2, 40)) < 0.4).astype(np.uint8)
    hist = build_history(net, month_sequence("2005-01", 40), states)
    report = sensitivity_suite(net, hist, TOY_PARAMS, perturbation=0.0, master_seed=3)
    assert (report.single_likelihood == 0.0).all()
    assert (report.single_history == 0.0).all()
    assert (report.all_likelihood == 0.0).all()
    assert (report.all_history == 0.0).all()


def test_sensitivity_baseline_matches_direct_solve(toy_sensitivity):
    net, _, report = toy_sensitivity
    direct = solve_steady_state(TOY_PARAMS, net)
    assert np.allclose(report.baseline_p_hat, direct.p_hat, atol=1e-12)


def _seeded_edits(hist, n_deactivated, seed):
    """Each changed risk's edited states, then their union, as ``sensitivity_suite`` draws them."""
    edits, union = [], hist.states.copy()
    for i in np.flatnonzero(n_deactivated):
        active = np.nonzero(hist.states[i])[0]
        drop = derive_rng(seed, 4, i).choice(active, size=int(n_deactivated[i]), replace=False)
        states = hist.states.copy()
        states[i, drop] = 0
        union[i, drop] = 0
        edits.append(states)
    return [*edits, union]


def test_sensitivity_history_edits_are_the_seeded_drops(toy_sensitivity):
    net, hist, report = toy_sensitivity
    assert (report.n_deactivated > 0).all()
    base = solve_steady_state(TOY_PARAMS, net).p_hat
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        refits = [fit(build_history(net, hist.months, states), net).params
                  for states in _seeded_edits(hist, report.n_deactivated, 21)]
        solved = solve_steady_states(refits, net, [net.likelihoods] * len(refits))
    for i in range(net.n_risks):
        assert report.single_history[i] == solved[i].p_hat[i] - base[i]
    assert (report.all_history == solved[-1].p_hat - base).all()


def test_fixture_sensitivity_matches_one_solve_per_refit(fixture_network, fixture_history):
    net, hist = fixture_network, fixture_history
    report = sensitivity_suite(net, hist, FIXTURE_PARAMS, perturbation=0.1, master_seed=4)
    base = solve_steady_state(FIXTURE_PARAMS, net).p_hat
    assert (report.baseline_p_hat == base).all()
    refits = fit_many(np.array(_seeded_edits(hist, report.n_deactivated, 4)), net)
    changed = np.flatnonzero(report.n_deactivated)
    assert len(refits) == changed.size + 1 == 50  # risk 5 drops nothing
    alone = np.zeros(net.n_risks)
    for i, refit in zip(changed, refits):
        alone[i] = solve_steady_state(refit.params, net).p_hat[i] - base[i]
    assert np.abs(report.single_history - alone).max() <= 1e-15
    all_history = solve_steady_state(refits[-1].params, net).p_hat - base
    assert np.abs(report.all_history - all_history).max() <= 1e-15


def test_sensitivity_makes_one_refit_batch_and_one_stacked_solve(toy_sensitivity, monkeypatch):
    net, hist, report = toy_sensitivity
    calls = []

    def counted(name, inner):
        def call(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        return call

    for name in ("fit", "fit_many", "solve_steady_state", "solve_steady_states"):
        inner = getattr(carpnet.validation, name)
        monkeypatch.setattr(carpnet.validation, name, counted(name, inner))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        again = sensitivity_suite(net, hist, TOY_PARAMS, perturbation=0.1, master_seed=21)
    assert calls == ["solve_steady_state", "fit_many", "solve_steady_states"]
    assert (again.all_history == report.all_history).all()


def test_sensitivity_raises_the_first_failed_refit_error(toy_sensitivity, monkeypatch):
    # one simplex step converges nowhere, so every refit of an edited history
    # raises; the suite re-raises fit_many's error without a second fit
    monkeypatch.setattr(carpnet.likelihood, "_MAX_ITER", 1)
    net, hist, report = toy_sensitivity
    states = _seeded_edits(hist, report.n_deactivated, 21)[0]
    with pytest.raises(ConvergenceError) as first:
        fit(build_history(net, hist.months, states), net)

    def refit_again(*args, **kwargs):
        raise AssertionError("sensitivity_suite refitted a history with fit")

    monkeypatch.setattr(carpnet.validation, "fit", refit_again)
    with pytest.raises(ConvergenceError) as raised:
        sensitivity_suite(net, hist, TOY_PARAMS, perturbation=0.1, master_seed=21)
    assert str(raised.value) == str(first.value) == "no simplex start converged within 1 iterations"
