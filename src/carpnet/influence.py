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

from .dynamics import ModelParams
from .errors import DataError
from .risks import CATEGORIES, RiskNetwork
from .steady_state import SteadyState, solve_steady_state, solve_steady_states

_ANOMALY_TOL = -1e-12


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


def _external_share(P, params: ModelParams, network: RiskNetwork, Ls) -> np.ndarray:
    """Each risk's external share of its expected monthly transitions, per row of ``P``.

    Row k of the (K, R) stack ``P`` is the steady state solved with row k of
    the likelihood stack ``Ls``.  A passive risk activates internally with
    probability 1-(1-L)**alpha and externally with 1-(1-L)**(beta*m), m its
    mean-field exposure (the sum of its neighbors' steady activities); an
    active risk recovers with probability (1-L)**gamma.  Weighted by
    activity these are expected transitions per month (the joint event
    counts in both activations).  The share is NaN where a risk makes no
    transitions at all.
    """
    # one matrix-vector product per row, so each row's share has the bits it has alone
    exposure = (network.adjacency_float @ P[..., None])[..., 0]
    log1m = np.log1p(-Ls)
    internal = (1.0 - P) * -np.expm1(params.alpha * log1m)
    external = (1.0 - P) * -np.expm1(params.beta * exposure * log1m)
    total = internal + external + P * np.exp(params.gamma * log1m)
    return np.divide(external, total, out=np.full_like(total, np.nan), where=total > 0)


def risk_influence(network: RiskNetwork, params: ModelParams) -> InfluenceMatrix:
    """Pairwise influence values[i, j] for every ordered pair i != j.

    One baseline steady state plus one counterfactual solve per risk, with
    L_i = 0; the R counterfactuals are solved together as one batch.  The
    diagonal is NaN by construction (a risk's external share is
    meaningless once that risk is disabled).
    """
    baseline = solve_steady_state(params, network)
    cuts = np.tile(network.likelihoods, (network.n_risks, 1))
    np.fill_diagonal(cuts, 0.0)
    knocked = solve_steady_states(params, network, cuts)
    P = np.array([s.p_hat for s in (baseline, *knocked)])
    share = _external_share(P, params, network, np.vstack([network.likelihoods, cuts]))
    values = share[0] - share[1:]
    np.fill_diagonal(values, np.nan)

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

    member = (np.array(network.categories)[:, None] == CATEGORIES).astype(float)
    defined = ~np.isnan(influence.values)
    raw = member.T @ np.where(defined, influence.values, 0.0) @ member
    if aggregate == "mean":
        count = member.T @ defined @ member
        raw = np.divide(raw, count, out=np.full_like(raw, np.nan), where=count > 0)

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
