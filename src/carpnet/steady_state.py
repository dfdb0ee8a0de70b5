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


@dataclass(frozen=True)
class SteadyState:
    """Fixed point reached from below, plus uniqueness diagnostics.

    ``p_hat`` is the limit of iteration from the all-passive vector; the
    limit from the all-active vector is kept in ``upper_p_hat``.  When the
    two disagree by more than about 100x the tolerance the model has
    multiple steady states and ``unique`` is False.
    """

    p_hat: np.ndarray
    residual: float
    iterations: int
    converged: bool
    monotone: bool
    upper_p_hat: np.ndarray
    limit_gap: float
    unique: bool


def fixed_point_map(p, params: ModelParams, network: RiskNetwork, L=None):
    """One application of the mean-field map to activation vector ``p``."""
    L = network.likelihoods if L is None else check_likelihoods(L, network.n_risks)
    p = np.asarray(p, dtype=float)
    if p.shape != L.shape:
        raise DataError(f"p must have shape {L.shape}, got {p.shape}")
    log1m = np.log1p(-L)
    exposure = network.adjacency_float @ p
    num = -np.expm1((params.alpha + params.beta * exposure) * log1m)
    rec = np.exp(params.gamma * log1m)
    denom = num + rec
    out = np.zeros_like(num)
    np.divide(num, denom, out=out, where=denom > 0)
    return out


def solve_steady_state(
    params: ModelParams,
    network: RiskNetwork,
    *,
    L=None,
    tol: float = 1e-12,
    max_iter: int = 1_000_000,
) -> SteadyState:
    """Iterate the mean-field map to convergence from both extremes.

    Convergence means the sup-norm residual ``|F(p) - p|`` of the lower
    iteration falls below ``tol``; a budget overrun raises
    ConvergenceError.  The lower sweep also verifies the iterates are
    non-decreasing (up to 1e-15 slack), which is what guarantees the limit
    is the least fixed point.  Entries of ``L`` may be exactly zero --
    such a risk can never activate and gets ``p_hat = 0`` -- which is what
    knockout experiments rely on.
    """
    # NaN fails the comparison too; a tol of 1 or more would pass the first sweep
    if not 0 < tol < 1 or max_iter < 1:
        raise DataError(f"need tol in (0, 1) and max_iter >= 1, got {tol} and {max_iter}")
    L = network.likelihoods if L is None else check_likelihoods(L, network.n_risks)

    def iterate(p0):
        # Returning the pre-map iterate once |F(p) - p| < tol makes the
        # reported residual literally the stationarity defect of p_hat.
        p = p0
        worst_drop = 0.0
        for it in range(1, max_iter + 1):
            nxt = fixed_point_map(p, params, network, L=L)
            residual = float(np.max(np.abs(nxt - p)))
            worst_drop = min(worst_drop, float(np.min(nxt - p)))
            if residual < tol:
                return p, residual, it, worst_drop
            p = nxt
        raise ConvergenceError(
            f"mean-field iteration did not reach tol={tol} in {max_iter} steps"
        )

    lower, residual, iterations, worst_drop = iterate(np.zeros(network.n_risks))
    monotone = worst_drop >= -1e-15

    upper, _, _, _ = iterate(np.ones(network.n_risks))

    limit_gap = float(np.max(np.abs(upper - lower)))
    unique = limit_gap <= _GAP_FACTOR * tol
    if not unique:
        warnings.warn(
            f"mean-field limits from p=0 and p=1 differ by {limit_gap:.3g}; "
            "the steady state is not unique and p_hat is the least fixed point",
            stacklevel=2,
        )

    return SteadyState(
        p_hat=lower,
        residual=residual,
        iterations=iterations,
        converged=True,
        monotone=monotone,
        upper_p_hat=upper,
        limit_gap=limit_gap,
        unique=unique,
    )
