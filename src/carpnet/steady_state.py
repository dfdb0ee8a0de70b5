"""Mean-field steady state of the cascade dynamics.

Replacing each neighbor's random activity with its long-run activation
probability turns the stationary condition into a fixed-point problem

    p_i = num_i / (num_i + rec_i),
    num_i = 1 - (1-L_i)**(alpha + beta * sum_j A_ij p_j),
    rec_i = (1-L_i)**gamma,

whose right-hand side F is monotone in p, so iterating from the all-zero
vector climbs to the least fixed point.  The Jacobian J(p) = diag(F') beta A
only falls as p rises, so an M-matrix test of I - J at the limit proves
that fixed point unique and bounds the limit's distance to it (Berman &
Plemmons, ch. 6); a solve that fails the test is reported, not hidden.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelParams, check_likelihoods
from .errors import ConvergenceError, DataError
from .risks import RiskNetwork

_TOL, _MAX_ITER = 1e-12, 1_000_000


@dataclass(frozen=True)
class SteadyState:
    """The limit ``p_hat`` of iteration from the all-passive vector, and its certificate.

    ``unique`` is True when the M-matrix test proves there is one fixed point
    p*; ``error_bound`` >= max|p_hat - p*| then.  Otherwise ``error_bound`` is
    inf and ``p_hat`` is the least of several fixed points, or a critical one.
    """

    p_hat: np.ndarray
    residual: float
    iterations: int
    converged: bool
    monotone: bool
    unique: bool
    error_bound: float


def _sweep(p, A, params: ModelParams, log1m, rec):
    """The mean-field map, unchecked, on a vector or on each column of ``p``."""
    num = -np.expm1((params.alpha + params.beta * (A @ p)) * log1m)
    denom = num + rec
    return np.divide(num, denom, out=np.zeros_like(num), where=denom > 0)


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
    """Sweep up from 0 and certify the limit l, for each row of the checked (K, R) stack.

    J(p) falls as p rises, so if some y > 0 has z = (I - J(l))y > 0, the
    fixed point p* >= l is unique and max|l - p*| <= residual max(y) / min(z).
    The trial y is 1; only columns where a row sum of J reaches 1 solve for
    y = (I - J)^-1 1.  For rounding, the residual gains R + 10 ulps of max(l).
    """
    A, log1m = network.adjacency_float, np.log1p(-Ls.T)
    rec = np.exp(params.gamma * log1m)
    lower, residual, iterations, worst = _iterate(
        np.zeros(log1m.shape), A, params, log1m, rec, tol, max_iter)
    xlog = (params.alpha + params.beta * (A @ lower)) * log1m  # J(l) = diag(slope) A
    slope = params.beta * rec * -log1m * np.exp(xlog) / (rec - np.expm1(xlog)) ** 2
    y = np.ones_like(lower)
    for k in np.flatnonzero((slope * A.sum(axis=1)[:, None] >= 1).any(axis=0)):
        try:  # one column at a time keeps a single R x R matrix in memory
            y[:, k] = np.linalg.solve(np.eye(len(A)) - slope[:, k, None] * A, y[:, k])
        except np.linalg.LinAlgError:  # an exactly singular I - J: leave it unproven
            y[:, k] = 0.0
    z = y - slope * (A @ y)
    proven = (y > 0).all(axis=0) & (z > 0).all(axis=0)
    slack = (len(A) + 10) * np.finfo(float).eps * lower.max(axis=0)
    bounds = np.divide((residual + slack) * y.max(axis=0), z.min(axis=0),
                       out=np.full(len(residual), np.inf), where=proven)
    for _ in np.flatnonzero(~proven):  # warn at the caller of the public solver
        warnings.warn("the steady state is not unique or critical: I - J fails the M-matrix "
                      "test at the limit from p=0; p_hat is the least fixed point", stacklevel=3)
    return [
        SteadyState(p_hat=lower[:, k].copy(), residual=float(residual[k]),
                    iterations=int(iterations[k]), converged=True,
                    monotone=bool(worst[k] >= -1e-15), unique=bool(proven[k]),
                    error_bound=float(bounds[k]))
        for k in range(len(bounds))
    ]


def solve_steady_state(
    params: ModelParams,
    network: RiskNetwork,
    *,
    L=None,
    tol: float = _TOL,
    max_iter: int = _MAX_ITER,
) -> SteadyState:
    """Iterate the mean-field map from 0 to convergence and certify the limit.

    Convergence means the sup-norm residual ``|F(p) - p|`` falls below
    ``tol``; a budget overrun raises ConvergenceError.  ``monotone`` records
    that no iterate fell (up to 1e-15), as iterates from 0 must.
    Entries of ``L`` may be exactly zero -- such a risk never activates and
    gets ``p_hat = 0`` -- which knockout experiments rely on.  A steady
    state that is not proven unique warns.
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
