"""Mean-field steady state of the cascade dynamics.

Replacing each neighbor's random activity with its long-run activation
probability turns the stationary condition into a fixed-point problem

    p_i = num_i / (num_i + rec_i),
    num_i = 1 - (1-L_i)**(alpha + beta * sum_j A_ij p_j),
    rec_i = (1-L_i)**gamma,

whose right-hand side is monotone in p.  Iterating from the all-zero
vector therefore climbs to the least fixed point; iterating from the
all-ones vector descends to the greatest.  Both limits are computed and
compared so a non-unique steady state is detected rather than silently
picked.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelParams, check_likelihoods
from .errors import ConvergenceError, DataError
from .risks import RiskNetwork

_GAP_FACTOR = 100.0
_TOL, _MAX_ITER = 1e-12, 1_000_000


@dataclass(frozen=True)
class SteadyState:
    """Fixed point reached from below, plus uniqueness diagnostics.

    ``p_hat`` is the limit of iteration from the all-passive vector; the
    limit from the all-active vector is kept in ``upper_p_hat``.  Iterates
    from 0 stay below the least fixed point and iterates from 1 stay above
    the greatest, so ``limit_gap`` = max|upper_p_hat - p_hat| bounds
    ``p_hat``'s distance to every fixed point.  When the gap exceeds about
    100x the tolerance the model has multiple steady states and ``unique``
    is False.
    """

    p_hat: np.ndarray
    residual: float
    iterations: int
    converged: bool
    monotone: bool
    upper_p_hat: np.ndarray
    limit_gap: float
    unique: bool


def _sweep(p, A, params: ModelParams, log1m, rec):
    """The mean-field map, unchecked, on a vector or on each column of ``p``."""
    num = -np.expm1((params.alpha + params.beta * (A @ p)) * log1m)
    denom = num + rec
    out = np.zeros_like(num)
    np.divide(num, denom, out=out, where=denom > 0)
    return out


def fixed_point_map(p, params: ModelParams, network: RiskNetwork, L=None):
    """One application of the mean-field map to activation vector ``p``."""
    L = network.likelihoods if L is None else check_likelihoods(L, network.n_risks)
    p = np.asarray(p, dtype=float)
    if p.shape != L.shape:
        raise DataError(f"p must have shape {L.shape}, got {p.shape}")
    log1m = np.log1p(-L)
    return _sweep(p, network.adjacency_float, params, log1m, np.exp(params.gamma * log1m))


def _iterate(P, A, params: ModelParams, log1m, rec, tol: float, max_iter: int):
    """Sweep the columns of ``P`` until each residual |F(p) - p| is below ``tol``.

    A column freezes at that pre-map iterate, so its residual is its
    stationarity defect; later sweeps map only the active columns.  Also
    returns each column's sweep count and most negative step.
    """
    K = P.shape[1]
    out, residual = np.empty_like(P), np.empty(K)
    sweeps, worst = np.empty(K, dtype=np.int64), np.empty(K)
    active, drop = np.arange(K), np.zeros(K)
    for it in range(1, max_iter + 1):
        nxt = _sweep(P, A, params, log1m, rec)
        step = nxt - P
        res = np.max(np.abs(step), axis=0)
        drop = np.minimum(drop, np.min(step, axis=0))
        done = res < tol
        if done.any():
            cols, keep = active[done], ~done
            out[:, cols] = P[:, done]
            residual[cols], sweeps[cols], worst[cols] = res[done], it, drop[done]
            if not keep.any():
                return out, residual, sweeps, worst
            active, drop = active[keep], drop[keep]
            nxt, log1m, rec = nxt[:, keep], log1m[:, keep], rec[:, keep]
        P = nxt
    raise ConvergenceError(f"mean-field iteration did not reach tol={tol} in {max_iter} steps")


def _solve(params: ModelParams, network: RiskNetwork, Ls, tol: float, max_iter: int):
    """Both monotone iterations for each row of the checked (K, R) stack ``Ls``."""
    A, log1m = network.adjacency_float, np.log1p(-Ls.T)
    rec = np.exp(params.gamma * log1m)
    lower, residual, iterations, worst = _iterate(
        np.zeros(log1m.shape), A, params, log1m, rec, tol, max_iter)
    upper = _iterate(np.ones(log1m.shape), A, params, log1m, rec, tol, max_iter)[0]
    gaps = np.max(np.abs(upper - lower), axis=0)
    for gap in gaps[gaps > _GAP_FACTOR * tol]:
        warnings.warn(  # at the caller of the public solver
            f"mean-field limits from p=0 and p=1 differ by {gap:.3g}; "
            "the steady state is not unique and p_hat is the least fixed point",
            stacklevel=3,
        )
    return [
        SteadyState(
            p_hat=lower[:, k].copy(),
            residual=float(residual[k]),
            iterations=int(iterations[k]),
            converged=True,
            monotone=bool(worst[k] >= -1e-15),
            upper_p_hat=upper[:, k].copy(),
            limit_gap=float(gap),
            unique=bool(gap <= _GAP_FACTOR * tol),
        )
        for k, gap in enumerate(gaps)
    ]


def solve_steady_state(
    params: ModelParams,
    network: RiskNetwork,
    *,
    L=None,
    tol: float = _TOL,
    max_iter: int = _MAX_ITER,
) -> SteadyState:
    """Iterate the mean-field map to convergence from both extremes.

    Convergence means the sup-norm residual ``|F(p) - p|`` of the lower
    iteration falls below ``tol``; a budget overrun raises
    ConvergenceError.  The lower sweep also verifies the iterates are
    non-decreasing (up to 1e-15 slack), which is what guarantees the limit
    is the least fixed point.  Entries of ``L`` may be exactly zero --
    such a risk can never activate and gets ``p_hat = 0`` -- which is what
    knockout experiments rely on.  A non-unique steady state warns.
    """
    # NaN fails the comparison too; a tol of 1 or more would pass the first sweep
    if not 0 < tol < 1 or max_iter < 1:
        raise DataError(f"need tol in (0, 1) and max_iter >= 1, got {tol} and {max_iter}")
    L = network.likelihoods if L is None else check_likelihoods(L, network.n_risks)
    return _solve(params, network, L[None, :], tol, max_iter)[0]


def solve_steady_states(params: ModelParams, network: RiskNetwork, Ls) -> list[SteadyState]:
    """:func:`solve_steady_state` for each row of the non-empty (K, R) stack ``Ls``.

    The K solves share one ``A @ P`` per sweep and each stops where it would
    alone, so every field keeps its meaning; only the product's summation
    order differs (about 1e-16).  Any solve out of budget raises.
    """
    Ls = np.array([check_likelihoods(L, network.n_risks) for L in Ls])
    return _solve(params, network, Ls, _TOL, _MAX_ITER)
