"""Risk-to-risk influence via counterfactual steady states.

The influence of risk i on risk j is the drop in j's externally-driven
share of steady-state transitions when i is removed from the system:

    influence[i, j] = frac_external_j(full model) - frac_external_j(without i)

where frac_external_j is the fraction of j's expected monthly transitions
(internal activations, external activations, recoveries) that are
external activations, evaluated at the mean-field steady state.

Risk i is removed by setting its likelihood to zero: it then never
fires and the least fixed point puts its activity at exactly zero, which
provably coincides with deleting the node from the network outright.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelParams, check_likelihoods
from .errors import DataError
from .risks import CATEGORIES, RiskNetwork
from .steady_state import SteadyState, solve_steady_state, solve_steady_states

_ANOMALY_TOL = -1e-12


@dataclass(frozen=True)
class TransitionFractions:
    """Expected steady-state transition rates per risk and their shares.

    ``rate_*`` are expected transitions per month per risk (the joint
    internal-and-external event is counted in both activation rates; its
    probability is marginal per process).  ``frac_*`` are the per-risk
    shares, which sum to 1 wherever a risk makes any transitions at all;
    elsewhere they are NaN and ``defined`` is False.
    """

    rate_internal: np.ndarray
    rate_external: np.ndarray
    rate_recovery: np.ndarray
    frac_internal: np.ndarray
    frac_external: np.ndarray
    frac_recovery: np.ndarray
    defined: np.ndarray


@dataclass(frozen=True)
class InfluenceMatrix:
    """Pairwise influence with NaN diagonal.

    ``anomalies`` lists (source_id, target_id, value) for any entry more
    negative than -1e-12; the mean-field system is monotone, so a
    materially negative influence signals a solver or modeling problem
    and is surfaced instead of clipped.  ``baseline`` is the full model's
    steady state that every knockout is measured against.
    """

    ids: tuple[str, ...]
    values: np.ndarray
    anomalies: tuple[tuple[str, str, float], ...]
    baseline: SteadyState


@dataclass(frozen=True)
class CategoryInfluence:
    categories: tuple[str, ...]
    raw: np.ndarray
    normalized: np.ndarray
    log_scaled: np.ndarray
    aggregate: str
    degenerate: bool


def transition_fractions(
    steady: SteadyState,
    params: ModelParams,
    network: RiskNetwork,
    *,
    L=None,
) -> TransitionFractions:
    """Split each risk's steady-state transition rate by cause.

    A passive risk activates internally with probability 1-(1-L)**alpha
    and externally with probability 1-(1-L)**(beta*m), where m is its
    real-valued mean-field exposure (the sum of its neighbors' steady
    activities); an active risk recovers with probability (1-L)**gamma.
    Weighting by the steady-state activity gives expected transitions per
    month.  Pass the same ``L`` the steady state was solved with.
    """
    p_hat = steady.p_hat
    L = network.likelihoods if L is None else check_likelihoods(L, network.n_risks)
    if p_hat.shape != L.shape:
        raise DataError("steady state and likelihood vector differ in length")
    log1m = np.log1p(-L)
    exposure = network.adjacency_float @ p_hat

    rate_int = (1.0 - p_hat) * -np.expm1(params.alpha * log1m)
    rate_ext = (1.0 - p_hat) * -np.expm1(params.beta * exposure * log1m)
    rate_rec = p_hat * np.exp(params.gamma * log1m)

    total = rate_int + rate_ext + rate_rec
    defined = total > 0
    frac = np.full((3, network.n_risks), np.nan)
    np.divide(
        np.stack([rate_int, rate_ext, rate_rec]),
        total,
        out=frac,
        where=defined,
    )
    return TransitionFractions(
        rate_internal=rate_int,
        rate_external=rate_ext,
        rate_recovery=rate_rec,
        frac_internal=frac[0],
        frac_external=frac[1],
        frac_recovery=frac[2],
        defined=defined,
    )


def risk_influence(network: RiskNetwork, params: ModelParams) -> InfluenceMatrix:
    """Pairwise influence values[i, j] for every ordered pair i != j.

    One baseline steady state plus one counterfactual solve per risk, with
    L_i = 0; the R counterfactuals are solved together as one batch.  The
    diagonal is NaN by construction (a risk's external share is
    meaningless once that risk is disabled).
    """
    R = network.n_risks
    baseline = solve_steady_state(params, network)
    base = transition_fractions(baseline, params, network).frac_external
    cuts = np.tile(network.likelihoods, (R, 1))
    np.fill_diagonal(cuts, 0.0)
    values = np.full((R, R), np.nan)

    for i, steady in enumerate(solve_steady_states(params, network, cuts)):
        others = np.arange(R) != i
        dropped = transition_fractions(steady, params, network, L=cuts[i]).frac_external
        values[i, others] = base[others] - dropped[others]

    with np.errstate(invalid="ignore"):
        bad = np.nonzero(values < _ANOMALY_TOL)
    anomalies = tuple(
        (network.ids[i], network.ids[j], float(values[i, j])) for i, j in zip(*bad)
    )
    return InfluenceMatrix(
        ids=network.ids, values=values, anomalies=anomalies, baseline=baseline
    )


def check_kappa(kappa: float) -> None:
    """Reject a log display compression that is not finite and positive."""
    if not (math.isfinite(kappa) and kappa > 0):
        raise DataError(f"kappa must be finite and positive, got {kappa}")


def category_influence(
    influence: InfluenceMatrix,
    network: RiskNetwork,
    *,
    aggregate: str = "sum",
    kappa: float = 99.0,
) -> CategoryInfluence:
    """Aggregate pairwise influence to the five risk categories.

    raw[c, d] combines values[i, j] over source risks i in category c and
    target risks j in category d (NaN entries -- the diagonal, or
    undefined targets -- are skipped).  ``normalized`` min-max rescales
    the raw matrix to [0, 1]; when every entry is equal the matrix is
    degenerate, normalized is all zeros, and ``degenerate`` is set.
    ``log_scaled`` is log(1 + kappa*normalized), a display compression
    that spreads roughly two decades of small entries at the default
    kappa of 99.
    """
    if aggregate not in ("sum", "mean"):
        raise DataError(f"aggregate must be 'sum' or 'mean', got {aggregate!r}")
    check_kappa(kappa)
    if influence.ids != network.ids:
        raise DataError("influence matrix does not match the network")

    cats = np.array(network.categories)
    n_cat = len(CATEGORIES)
    raw = np.zeros((n_cat, n_cat))
    for ci, c in enumerate(CATEGORIES):
        rows = np.nonzero(cats == c)[0]
        for di, d in enumerate(CATEGORIES):
            cols = np.nonzero(cats == d)[0]
            if rows.size == 0 or cols.size == 0:
                raw[ci, di] = np.nan if aggregate == "mean" else 0.0
                continue
            block = influence.values[np.ix_(rows, cols)]
            if aggregate == "sum":
                raw[ci, di] = np.nansum(block)
            else:
                raw[ci, di] = np.nan if np.isnan(block).all() else np.nanmean(block)

    finite = np.isfinite(raw)
    if not finite.any():
        raise DataError("category influence has no finite entries")
    lo, hi = raw[finite].min(), raw[finite].max()
    degenerate = hi <= lo
    normalized = np.full_like(raw, np.nan)
    if degenerate:
        normalized[finite] = 0.0
    else:
        normalized[finite] = (raw[finite] - lo) / (hi - lo)
    log_scaled = np.log1p(kappa * normalized)

    return CategoryInfluence(
        categories=CATEGORIES,
        raw=raw,
        normalized=normalized,
        log_scaled=log_scaled,
        aggregate=aggregate,
        degenerate=degenerate,
    )
