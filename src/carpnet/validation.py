"""Validation battery: recovery precision, forward error, network effect,
and sensitivity of the steady state to input perturbations.

Every experiment here is reproducible by construction: all randomness is
drawn from streams derived as (master_seed, tag, index), where the tag
partitions the experiments so none of them share draws:

    tag 0   reference simulation for attribution fractions
    tag 1   recovery replicates
    tag 2   forward-window runs (shared across parameter sets)
    tag 3   network-effect runs (shared across both models)
    tag 4   per-risk history perturbations

Sharing streams across parameter sets (tags 2 and 3) is deliberate: it
makes comparisons paired, so two identical parameter sets produce
identical output instead of merely statistically similar output.  Each
tag's sets step together in paired ``run_cascades`` calls.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import ModelParams, run_cascades, statistics_from_batch
from .errors import ConvergenceError, DataError
from .likelihood import fit, fit_many
from .risks import HistoryMatrix, RiskNetwork
from .rng import check_integer, derive_rng
from .steady_state import solve_steady_state, solve_steady_states


def _attribution_shares(counts):
    """Activation shares ``(a, b, total)`` of (..., 3) cause counts
    (internal-only, external-only, both) along the last axis.

    Simultaneous internal+external firings are split half-and-half
    between ``a`` and ``b``, so a + b = 1 wherever ``total`` > 0; with no
    activations at all both shares are NaN.
    """
    internal, external, both = np.moveaxis(np.asarray(counts), -1, 0)
    total = internal + external + both
    with np.errstate(invalid="ignore"):  # 0/0 where nothing activated
        return (internal + 0.5 * both) / total, (external + 0.5 * both) / total, total


@dataclass(frozen=True)
class ValidationReport:
    """Recovery-experiment outcome, one column entry per replicate.

    ``params`` holds each refit (alpha, beta, gamma), NaN only where the
    fit raised.  A replicate ``failed`` if its fit raised or its history
    made no activation (undefined attribution fractions); there its
    ``activation_param`` (a*alpha + b*beta with its own fractions),
    ``recovery_param`` (gamma) and ``ks`` (the larger relative deviation
    of the two from ``gt_vector``) are NaN.  ``retained``/``discarded``
    list the successes in ascending ``ks`` order (ties by index); bounds
    are the largest relative errors over the retained replicates,
    coordinate by coordinate against ``gt_vector``.
    ``activation_bound_gt_fractions`` re-blends every replicate with the
    reference simulation's fractions instead of its own, as an
    alternative reading of the protocol.  ``gt_fractions`` describes the
    reference simulation: its cause counts ``internal_only``,
    ``external_only`` and ``both``, its shares ``a`` and ``b`` and the
    overlap share ``both_fraction``; a reference run without activations
    raises.
    """

    ground_truth: ModelParams
    gt_fractions: dict
    gt_vector: tuple[float, float]
    params: np.ndarray
    failed: np.ndarray
    activation_param: np.ndarray
    recovery_param: np.ndarray
    ks: np.ndarray
    retained: tuple[int, ...]
    discarded: tuple[int, ...]
    n_failed: int
    activation_bound: float
    recovery_bound: float
    activation_bound_gt_fractions: float


def recovery_experiment(
    network: RiskNetwork,
    history: HistoryMatrix,
    fitted: ModelParams,
    n_replicates: int = 125,
    master_seed: int = 0,
) -> ValidationReport:
    """How well do we re-estimate known parameters from data we generated?

    Simulates ``n_replicates`` histories of the same length as
    ``history`` (starting from its first month) under ``fitted``, refits
    each one, and compares each replicate's blended activation parameter
    a*alpha + b*beta and its recovery parameter gamma against the
    ground-truth pair.  The blend uses each replicate's own attribution
    fractions; the ground-truth pair uses fractions from a dedicated
    reference simulation.  Failed replicates (the refit raised, or the
    history made no activation) are excluded with a warning.  The worst
    third of the rest by relative deviation (rounded up) is discarded as
    outliers and the error bounds are taken over what remains.
    """
    n_replicates = check_integer(n_replicates, "n_replicates")
    if n_replicates < 2:  # the outlier cut would discard a lone replicate
        raise DataError("n_replicates must be >= 2")
    if history.risk_ids != network.ids:
        raise DataError("history risks are not aligned to the network")
    initial = history.states[:, 0].astype(bool)
    n_steps = history.n_months - 1

    ref = run_cascades(
        network, fitted, initial, n_steps, master_seed,
        [0], rng_path_prefix=(0,), track_causes=True,
    )
    counts = ref.cause_counts[0]
    gt_a, gt_b, gt_total = _attribution_shares(counts)
    if gt_total == 0:
        raise DataError(
            "reference simulation produced no activations; cannot form a ground-truth vector"
        )
    gt_fractions = {
        **dict(zip(("internal_only", "external_only", "both"), counts.tolist())),
        "a": gt_a, "b": gt_b, "both_fraction": counts[2] / gt_total,
    }
    gt_vector = (gt_a * fitted.alpha + gt_b * fitted.beta, fitted.gamma)
    if gt_vector[0] == 0 or gt_vector[1] == 0:
        raise DataError("ground-truth vector has a zero coordinate; deviations undefined")

    batch = run_cascades(
        network, fitted, initial, n_steps, master_seed,
        range(n_replicates), rng_path_prefix=(1,),
        keep_states=True, track_causes=True,
    )
    refits = fit_many(batch.states, network)
    params = np.array([(math.nan,) * 3 if isinstance(r, ConvergenceError) else r.params.as_tuple()
                       for r in refits])

    a, b, total = _attribution_shares(batch.cause_counts)
    alpha, beta, gamma = params.T
    failed = np.isnan(gamma) | (total == 0)
    activation = a * alpha + b * beta  # NaN exactly where failed
    recovery = np.where(failed, math.nan, gamma)
    act_gt, rec_gt = gt_vector
    ks = np.maximum(np.abs(activation / act_gt - 1.0), np.abs(recovery / rec_gt - 1.0))

    n_failed = int(failed.sum())
    causes = "the refit raised or the simulated history made no activation"
    if n_failed:
        warnings.warn(
            f"{n_failed} of {n_replicates} replicates failed ({causes}) and were excluded",
            stacklevel=2,
        )
    ok = np.flatnonzero(~failed)
    if not ok.size:
        raise DataError(f"every replicate failed ({causes}); nothing to analyze")

    by_ks = ok[np.lexsort((ok, ks[ok]))]
    n_keep = ok.size - math.ceil(ok.size / 3)
    retained, discarded = by_ks[:n_keep], by_ks[n_keep:]
    if not n_keep:
        raise DataError("outlier cut discarded every replicate")

    blend_gt = gt_a * alpha + gt_b * beta
    return ValidationReport(
        ground_truth=fitted,
        gt_fractions=gt_fractions,
        gt_vector=gt_vector,
        params=params,
        failed=failed,
        activation_param=activation,
        recovery_param=recovery,
        ks=ks,
        retained=tuple(retained.tolist()),
        discarded=tuple(discarded.tolist()),
        n_failed=n_failed,
        activation_bound=float(np.max(np.abs(activation[retained] / act_gt - 1.0))),
        recovery_bound=float(np.max(np.abs(recovery[retained] / rec_gt - 1.0))),
        activation_bound_gt_fractions=float(np.max(np.abs(blend_gt[retained] / act_gt - 1.0))),
    )


@dataclass(frozen=True)
class ForwardReport:
    """Forward-window statistics for ground truth and validation sets.

    Two scalars summarize each simulated window: the mean frequency of
    being active (over risks, months, and runs) and the mean number of
    activations per risk per run.  ``freq_deviation`` and
    ``activation_deviation`` are each validation set's relative deviation
    |set / ground truth - 1| in those two statistics, and
    ``worst_deviation`` is the largest of them.
    """

    months: int
    gt_freq_active: float
    gt_activations: float
    set_freq_active: np.ndarray
    set_activations: np.ndarray
    freq_deviation: np.ndarray
    activation_deviation: np.ndarray
    freq_summary: tuple[float, float, float]  # mean, worst-low, worst-high
    activation_summary: tuple[float, float, float]
    worst_deviation: float


def forward_error_bounds(
    network: RiskNetwork,
    ground_truth: ModelParams,
    validation_sets,
    *,
    initial,
    months: int = 12,
    runs: int = 100,
    master_seed: int = 0,
) -> ForwardReport:
    """Compare short forward simulations under estimated vs true parameters.

    Starting every simulation from ``initial`` (normally the last
    observed month), the ground-truth parameters and each validation
    parameter set generate ``runs`` windows of ``months`` months.  All
    parameter sets consume identical random streams (tag 2) in paired
    ``run_cascades`` calls, so a validation set equal to the ground truth
    reproduces its statistics exactly.  A call takes at most
    ``_RUN_BLOCK * _REFILL_STEPS // runs`` sets (at least one), which keeps
    its per-run counts about the size of the cascade's uniform buffer.
    """
    sets = (ground_truth, *validation_sets)
    if len(sets) < 2:
        raise DataError("need at least one validation parameter set")
    months, runs = check_integer(months, "months"), check_integer(runs, "runs")
    if months < 1 or runs < 1:
        raise DataError("months and runs must be >= 1")

    group = max(1, dynamics._RUN_BLOCK * dynamics._REFILL_STEPS // runs)
    gt, *stats = [
        statistics_from_batch(batch)
        for lo in range(0, len(sets), group)
        for batch in run_cascades(network, sets[lo:lo + group], initial, months, master_seed,
                                  range(runs), rng_path_prefix=(2,))
    ]
    if gt.mean_freq_active == 0 or gt.mean_activations == 0:
        raise DataError(
            "ground-truth forward window has zero activity; deviations undefined"
        )

    freq = np.array([s.mean_freq_active for s in stats])
    acts = np.array([s.mean_activations for s in stats])
    freq_dev = np.abs(freq / gt.mean_freq_active - 1.0)
    acts_dev = np.abs(acts / gt.mean_activations - 1.0)
    return ForwardReport(
        months=months,
        gt_freq_active=gt.mean_freq_active,
        gt_activations=gt.mean_activations,
        set_freq_active=freq,
        set_activations=acts,
        freq_deviation=freq_dev,
        activation_deviation=acts_dev,
        freq_summary=(float(freq.mean()), float(freq.min()), float(freq.max())),
        activation_summary=(float(acts.mean()), float(acts.min()), float(acts.max())),
        worst_deviation=max(float(freq_dev.max()), float(acts_dev.max())),
    )


@dataclass(frozen=True)
class NetworkEffectReport:
    """How many standard deviations are needed to cover history?

    For each model, ``m`` is the smallest multiple such that the band
    mean +/- m*std (per time step, over runs) covers every historical
    per-step activation count.  A step with zero spread but a mismatched
    historical count makes coverage impossible; those steps are listed
    and ``m`` is infinite.
    """

    historical: np.ndarray
    network_mean: np.ndarray
    network_std: np.ndarray
    independent_mean: np.ndarray
    independent_std: np.ndarray
    m_network: float
    m_independent: float
    ratio: float
    network_params: ModelParams
    independent_params: ModelParams
    network_infinite_steps: tuple[int, ...]
    independent_infinite_steps: tuple[int, ...]


def step_activation_counts(states) -> np.ndarray:
    """Number of passive->active flips at each month-to-month step of an
    (..., R, T) stack of state matrices: an (..., T - 1) array."""
    states = np.asarray(states)
    return ((states[..., :-1] == 0) & (states[..., 1:] == 1)).sum(axis=-2)


def _coverage_multiple(historical, mean, std):
    gap = np.abs(historical - mean)
    per_step = np.zeros_like(mean)
    exact = gap == 0
    per_step[~exact & (std > 0)] = gap[~exact & (std > 0)] / std[~exact & (std > 0)]
    impossible = ~exact & (std == 0)
    per_step[impossible] = np.inf
    return float(np.max(per_step)), tuple(int(t) for t in np.nonzero(impossible)[0])


def network_effect_comparison(
    network: RiskNetwork,
    history: HistoryMatrix,
    params: ModelParams,
    runs: int = 100,
    master_seed: int = 0,
) -> NetworkEffectReport:
    """Does the network improve the fit to historical activation counts?

    Simulates the historical window under (a) the network model with
    ``params`` and (b) an edgeless model whose parameters are refitted to
    the history with the coupling forced to zero.  Both models consume
    the same random streams (tag 3) in one paired ``run_cascades`` pass on
    ``network``: with beta = 0 no neighbour can fire, so (b) steps exactly
    as it would on the edgeless network.  Smaller ``m`` means the model's
    run-to-run spread covers history more tightly.
    """
    if history.risk_ids != network.ids:
        raise DataError("history risks are not aligned to the network")
    runs = check_integer(runs, "runs")
    if runs < 2:
        raise DataError("need at least 2 runs to estimate a standard deviation")
    historical = step_activation_counts(history.states).astype(float)
    initial = history.states[:, 0].astype(bool)
    n_steps = history.n_months - 1

    independent_params = fit(history, network.without_edges(), fix_beta=0.0).params

    def band(batch):
        counts = step_activation_counts(batch.states).astype(float)  # (runs, n_steps)
        return counts.mean(axis=0), counts.std(axis=0, ddof=1)

    (net_mean, net_std), (ind_mean, ind_std) = map(band, run_cascades(
        network, [params, independent_params], initial, n_steps, master_seed,
        range(runs), rng_path_prefix=(3,), keep_states=True,
    ))

    m_net, net_inf = _coverage_multiple(historical, net_mean, net_std)
    m_ind, ind_inf = _coverage_multiple(historical, ind_mean, ind_std)
    if m_ind == 0.0:
        ratio = 1.0 if m_net == 0.0 else math.inf
    elif math.isinf(m_ind):
        ratio = math.nan if math.isinf(m_net) else 0.0
    else:
        ratio = m_net / m_ind

    return NetworkEffectReport(
        historical=historical,
        network_mean=net_mean,
        network_std=net_std,
        independent_mean=ind_mean,
        independent_std=ind_std,
        m_network=m_net,
        m_independent=m_ind,
        ratio=ratio,
        network_params=params,
        independent_params=independent_params,
        network_infinite_steps=net_inf,
        independent_infinite_steps=ind_inf,
    )


@dataclass(frozen=True)
class SensitivityReport:
    """Steady-state deltas under four perturbation designs.

    ``single_likelihood``/``single_history`` give, per risk i, the change
    in risk i's own steady-state activity when only risk i is perturbed;
    ``all_likelihood``/``all_history`` give the full delta vector when
    every risk is perturbed at once.  History perturbations deactivate a
    seeded random share of each risk's active months and refit; the
    all-risk variant reuses the same per-risk draws, so it is exactly the
    union of the single-risk edits.
    """

    perturbation: float
    baseline_params: ModelParams
    baseline_p_hat: np.ndarray
    single_likelihood: np.ndarray
    single_history: np.ndarray
    all_likelihood: np.ndarray
    all_history: np.ndarray
    n_deactivated: np.ndarray


def sensitivity_suite(
    network: RiskNetwork,
    history: HistoryMatrix,
    params: ModelParams,
    perturbation: float = 0.1,
    master_seed: int = 0,
) -> SensitivityReport:
    """Perturb inputs four ways and measure the steady-state response.

    (1) cut one risk's likelihood by ``perturbation`` and re-solve;
    (2) deactivate a random ``perturbation`` share of one risk's active
        months (rounded to nearest, seeded per risk), refit, re-solve;
    (3) cut every likelihood at once and re-solve;
    (4) apply every per-risk deactivation at once, refit, re-solve.

    Likelihood perturbations keep the baseline parameters (the model
    inputs changed, not the data); history perturbations refit because
    the estimates themselves are what a changed history would alter.
    Every edited history is refitted in one ``fit_many``, whose first
    ConvergenceError is raised, and the R + 1 cuts and every refit are
    solved in one stacked solve, each row at its own parameters.
    """
    if not 0 <= perturbation < 1:
        raise DataError(f"perturbation must lie in [0, 1), got {perturbation}")
    if history.risk_ids != network.ids:
        raise DataError("history risks are not aligned to the network")
    R = network.n_risks
    base = solve_steady_state(params, network).p_hat

    n_deactivated = np.zeros(R, dtype=np.int64)
    edits = []  # the history with each risk's drop
    union = history.states.copy()
    for i in range(R):
        active_cols = np.nonzero(history.states[i])[0]
        n_drop = int(math.floor(perturbation * active_cols.size + 0.5))
        n_deactivated[i] = n_drop
        if n_drop == 0:
            continue
        drop = derive_rng(master_seed, 4, i).choice(active_cols, size=n_drop, replace=False)
        states = history.states.copy()
        states[i, drop] = 0
        union[i, drop] = 0
        edits.append(states)
    refits = fit_many(np.array([*edits, union]), network) if edits else []  # each, then the union
    if errors := [r for r in refits if isinstance(r, ConvergenceError)]:
        raise errors[0]

    # rows: each risk's cut, every cut, then each refit at the baseline likelihoods
    cuts = np.tile(network.likelihoods, (R + 1 + len(refits), 1))
    cuts[np.diag_indices(R)] *= 1.0 - perturbation
    cuts[R] *= 1.0 - perturbation
    solved = solve_steady_states([params] * (R + 1) + [r.params for r in refits], network, cuts)
    delta = np.array([s.p_hat for s in solved]) - base
    single_history = np.zeros(R)
    changed = np.flatnonzero(n_deactivated)
    single_history[changed] = delta[R + 1 + np.arange(changed.size), changed]

    return SensitivityReport(
        perturbation=perturbation,
        baseline_params=params,
        baseline_p_hat=base,
        single_likelihood=delta[range(R), range(R)],
        single_history=single_history,
        all_likelihood=delta[R],
        all_history=delta[-1] if edits else np.zeros(R),
        n_deactivated=n_deactivated,
    )
