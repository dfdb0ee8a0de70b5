"""Maximum-likelihood estimation of the cascade parameters from a history.

The log-likelihood of a history is the sum over months and risks of the
log-probability of each observed monthly transition:

* passive -> passive: ``(alpha + beta*k) * ln(1-L)``
* passive -> active:  ``ln(1 - (1-L)**(alpha + beta*k))``
* active -> active:   ``ln(1 - (1-L)**gamma)``
* active -> passive:  ``gamma * ln(1-L)``

where k is the number of the risk's neighbors active in the source month.
Because every term depends on the data only through (risk, k) pairs and
per-risk counts, the whole objective collapses to a handful of grouped
sufficient statistics computed once per history; each evaluation is then
O(R), which keeps grid search and simplex refinement cheap.

Fitting runs a coarse log-spaced grid over the box [0, 10] per parameter
and refines the best cells with a deterministic Nelder-Mead simplex, so
results are exactly reproducible.  The search settings are the module
constants below; only ``fix_beta`` is chosen per call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelParams
from .errors import ConvergenceError, DataError, ImpossibleHistoryError
from .risks import HistoryMatrix, RiskNetwork


# Search settings: a log-spaced grid of _GRID_POINTS values per axis over
# [_GRID_MIN, _GRID_MAX] seeds a simplex from each of the _STARTS best grid
# points; the simplex stays in the box [_LOWER, _UPPER] and stops when its
# best and worst vertices agree to within _FATOL, or after _MAX_ITER steps.
_GRID_MIN, _GRID_MAX, _GRID_POINTS = 1e-4, 10.0, 10
_STARTS = 5
_LOWER, _UPPER = 0.0, 10.0
_FATOL = 1e-8
_MAX_ITER = 2000


@dataclass(frozen=True)
class FitResult:
    params: ModelParams
    log_likelihood: float
    iterations: int
    converged: bool
    boundary_flags: tuple[str, ...]


class TransitionSummary:
    """Grouped sufficient statistics of one (network, history) pair."""

    def __init__(self, history: HistoryMatrix, network: RiskNetwork):
        if history.risk_ids != network.ids:
            raise DataError("history risks are not aligned to the network")
        S = history.states.astype(np.int64)
        A = network.adjacency_float
        K = (A @ S)[:, :-1]  # active neighbors in each source month
        src, dst = S[:, :-1], S[:, 1:]
        log1m = np.log1p(-network.likelihoods)

        m00 = (src == 0) & (dst == 0)
        m01 = (src == 0) & (dst == 1)
        m10 = (src == 1) & (dst == 0)
        m11 = (src == 1) & (dst == 1)

        i00 = np.nonzero(m00)[0]
        self.c00_l = float(log1m[i00].sum())
        self.c00_kl = float((log1m[i00] * K[m00]).sum())

        i01 = np.nonzero(m01)[0]
        k01 = K[m01].astype(np.int64)
        kmax = int(k01.max()) if k01.size else 0
        key = i01 * (kmax + 1) + k01
        uniq, counts = np.unique(key, return_counts=True)
        self.i01 = (uniq // (kmax + 1)).astype(np.int64)
        self.k01 = (uniq % (kmax + 1)).astype(np.float64)
        self.c01 = counts.astype(np.float64)

        self.n11 = np.bincount(np.nonzero(m11)[0], minlength=network.n_risks).astype(float)
        self.s10_l = float(log1m[np.nonzero(m10)[0]].sum())

        self.log1m = log1m
        self.n_activations = int(m01.sum())
        self.n_recoveries = int(m10.sum())
        self.n_active_source = int(m10.sum() + m11.sum())
        self.external_exposure = bool((K[(src == 0)] > 0).any())

    def loglik(self, alpha: float, beta: float, gamma: float) -> float:
        """Log-likelihood; ``-inf`` when an observed transition is impossible."""
        log1m = self.log1m
        total = alpha * self.c00_l + beta * self.c00_kl

        if self.i01.size:
            e01 = (alpha + beta * self.k01) * log1m[self.i01]
            if (e01 == 0.0).any():
                return -np.inf
            total += float(self.c01 @ np.log(-np.expm1(e01)))

        total += gamma * self.s10_l

        act = self.n11 > 0
        if act.any():
            if gamma == 0.0:
                return -np.inf
            g = gamma * log1m[act]
            total += float(self.n11[act] @ np.log(-np.expm1(g)))
        return total


def log_likelihood(
    history: HistoryMatrix, params: ModelParams, network: RiskNetwork
) -> float:
    """Total log-likelihood of the history under ``params``."""
    value = TransitionSummary(history, network).loglik(*params.as_tuple())
    if value == -np.inf:
        raise ImpossibleHistoryError(
            "history contains a transition with probability zero under these parameters"
        )
    return value


def _nelder_mead(fn, x0, lower, upper, fatol, max_iter):
    """Minimize ``fn`` over a box with a deterministic Nelder-Mead simplex.

    Returns (x_best, f_best, iterations, converged).  Convergence: the
    objective spread across the polytope falls below ``fatol`` (or the
    polytope collapses geometrically).
    """
    ndim = x0.size
    clip = lambda x: np.clip(x, lower, upper)

    simplex = [clip(x0.copy())]
    for d in range(ndim):
        v = x0.copy()
        step = 0.05 * max(abs(v[d]), 0.1)
        v[d] = v[d] + step if v[d] + step <= upper else v[d] - step
        simplex.append(clip(v))
    simplex = np.array(simplex)
    fvals = np.array([fn(v) for v in simplex])

    iterations = 0
    converged = False
    while iterations < max_iter:
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]
        if fvals[-1] - fvals[0] < fatol or np.max(np.abs(simplex - simplex[0])) < 1e-12:
            converged = True
            break
        iterations += 1

        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = clip(centroid + (centroid - worst))
        f_r = fn(reflected)
        if f_r < fvals[0]:
            expanded = clip(centroid + 2.0 * (centroid - worst))
            f_e = fn(expanded)
            if f_e < f_r:
                simplex[-1], fvals[-1] = expanded, f_e
            else:
                simplex[-1], fvals[-1] = reflected, f_r
        elif f_r < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, f_r
        else:
            if f_r < fvals[-1]:
                contracted = clip(centroid + 0.5 * (reflected - centroid))
                f_c = fn(contracted)
                better_than = f_r
            else:
                contracted = clip(centroid + 0.5 * (worst - centroid))
                f_c = fn(contracted)
                better_than = fvals[-1]
            if f_c < better_than:
                simplex[-1], fvals[-1] = contracted, f_c
            else:
                for j in range(1, ndim + 1):
                    simplex[j] = clip(simplex[0] + 0.5 * (simplex[j] - simplex[0]))
                    fvals[j] = fn(simplex[j])

    order = np.argsort(fvals, kind="stable")
    return simplex[order[0]], fvals[order[0]], iterations, converged


def fit(
    history: HistoryMatrix, network: RiskNetwork, *, fix_beta: float | None = None
) -> FitResult:
    """Maximum-likelihood (alpha, beta, gamma) for a history on a network.

    A coarse log-spaced grid over the box seeds ``_STARTS`` deterministic
    simplex refinements; the best refined optimum wins (ties resolved by
    grid order).  ``fix_beta`` pins beta to a finite non-negative value and
    fits alpha and gamma alone.  Degenerate data never fails the fit -- it
    is reported via ``boundary_flags`` ("no_activations", "no_recoveries",
    "beta_unidentified", "gamma_unidentified", and per-parameter bound
    flags).  Raises ConvergenceError only if no simplex start converges.
    """
    if fix_beta is not None and not (math.isfinite(fix_beta) and fix_beta >= 0):
        raise DataError(f"fix_beta must be finite and non-negative, got {fix_beta}")
    summary = TransitionSummary(history, network)

    flags: list[str] = []
    if summary.n_activations == 0:
        flags.append("no_activations")
    if summary.n_recoveries == 0:
        flags.append("no_recoveries")
    if not summary.external_exposure:
        flags.append("beta_unidentified")
    if summary.n_active_source == 0:
        flags.append("gamma_unidentified")

    if fix_beta is None:
        expand = lambda x: (x[0], x[1], x[2])
        ndim = 3
    else:
        expand = lambda x: (x[0], fix_beta, x[1])
        ndim = 2

    neg = lambda x: -summary.loglik(*expand(x))

    axis = np.geomspace(_GRID_MIN, _GRID_MAX, _GRID_POINTS)
    grids = np.meshgrid(*([axis] * ndim), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    grid_vals = np.array([neg(p) for p in points])
    order = np.argsort(grid_vals, kind="stable")
    starts = points[order[:_STARTS]]

    best_x = None
    best_f = np.inf
    total_iters = 0
    any_converged = False
    best_converged = False
    for x0 in starts:
        x, f, iters, conv = _nelder_mead(neg, x0, _LOWER, _UPPER, _FATOL, _MAX_ITER)
        total_iters += iters
        any_converged = any_converged or conv
        if f < best_f:
            best_x, best_f, best_converged = x, f, conv
    if best_x is None or not np.isfinite(best_f):
        raise ConvergenceError("every simplex start ended at an impossible-data point")
    if not any_converged:
        raise ConvergenceError(f"no simplex start converged within {_MAX_ITER} iterations")

    alpha, beta, gamma = expand(best_x)
    params = ModelParams(alpha=float(alpha), beta=float(beta), gamma=float(gamma))

    names = ("alpha", "beta", "gamma")
    for name, value in zip(names, params.as_tuple()):
        if name == "beta" and fix_beta is not None:
            continue
        if value <= _LOWER + 1e-3:
            flags.append(f"{name}_at_lower_bound")
        elif value >= _UPPER - 1e-3:
            flags.append(f"{name}_at_upper_bound")

    return FitResult(
        params=params,
        log_likelihood=-best_f,
        iterations=total_iters,
        converged=best_converged,
        boundary_flags=tuple(flags),
    )
