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
results are exactly reproducible; (alpha, beta) and gamma enter separate
terms, so the 10^3-point grid costs 10^2 + 10 dot products.  The search
settings are the module constants below; only ``fix_beta`` is chosen per call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .dynamics import ModelParams
from .errors import ConvergenceError, DataError
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
        self.l01 = log1m[uniq // (kmax + 1)]
        self.k01 = (uniq % (kmax + 1)).astype(np.float64)
        self.c01 = counts.astype(np.float64)

        n11 = np.bincount(np.nonzero(m11)[0], minlength=network.n_risks).astype(float)
        self.n11, self.l11 = n11[n11 > 0], log1m[n11 > 0]  # risks with an active -> active month
        self.s10_l = float(log1m[np.nonzero(m10)[0]].sum())

        self.n_activations = int(m01.sum())
        self.n_recoveries = int(m10.sum())
        self.n_active_source = int(m10.sum() + m11.sum())
        self.external_exposure = bool((K[(src == 0)] > 0).any())

    def loglik(self, alpha: float, beta: float, gamma: float) -> float:
        """Log-likelihood; ``-inf`` when an observed transition is impossible."""
        total = alpha * self.c00_l + beta * self.c00_kl

        if self.c01.size:
            e01 = (alpha + beta * self.k01) * self.l01
            if (e01 == 0.0).any():
                return -np.inf
            total += float(self.c01 @ np.log(-np.expm1(e01)))

        total += gamma * self.s10_l

        if self.n11.size:
            if gamma == 0.0:
                return -np.inf
            total += float(self.n11 @ np.log(-np.expm1(gamma * self.l11)))
        return total

    def grid(self, alphas, betas, gammas) -> np.ndarray:
        """``loglik``, bit for bit, at every point of three axes: an (alpha, beta, gamma) array.

        The terms separate: one 1-D dot per (alpha, beta) pair and one per gamma.
        """
        a, b, g = (np.asarray(axis, dtype=float) for axis in (alphas, betas, gammas))
        a, b = a[:, None, None], b[:, None]
        dots = lambda w, e: np.array([float(w @ row) for row in np.log(-np.expm1(e))])
        total = a * self.c00_l + b * self.c00_kl
        with np.errstate(divide="ignore"):  # log(0) only in cells that become -inf
            if self.c01.size:
                e01 = (a + b * self.k01) * self.l01
                d01 = dots(self.c01, e01.reshape(-1, self.l01.size)).reshape(total.shape)
                total = np.where((e01 == 0.0).any(axis=2, keepdims=True), -np.inf, total + d01)
            total = total + g * self.s10_l
            if self.n11.size:
                total = np.where(g == 0.0, -np.inf, total + dots(self.n11, g[:, None] * self.l11))
        return total


def _nelder_mead(fn, x0, lower, upper, fatol, max_iter):
    """Minimize ``fn`` over a box with a deterministic Nelder-Mead simplex.

    Returns (x_best, f_best, iterations, converged).  Convergence: the
    objective spread across the polytope falls below ``fatol`` (or the
    polytope collapses geometrically).  Vertices are lists of floats, as
    numpy's per-call cost would dominate with two or three coordinates.
    """
    ndim = len(x0)
    clip = lambda x: [min(max(v, lower), upper) for v in x]
    # base + t*(x - base); t = -1 and -2 give the reflection base + (base - x)
    # and the expansion base + 2*(base - x) exactly, as negation rounds nothing
    toward = lambda base, x, t: clip([b + t * (v - b) for b, v in zip(base, x)])

    simplex = [clip(x0)]
    for d in range(ndim):
        v = list(x0)
        step = 0.05 * max(abs(v[d]), 0.1)
        v[d] = v[d] + step if v[d] + step <= upper else v[d] - step
        simplex.append(clip(v))
    fvals = [fn(v) for v in simplex]

    iterations = 0
    converged = False
    while iterations < max_iter:
        # stable, and fvals is never NaN (-loglik lies in (-inf, +inf])
        order = sorted(range(ndim + 1), key=fvals.__getitem__)
        simplex, fvals = [simplex[i] for i in order], [fvals[i] for i in order]
        spread = max(abs(v - b) for x in simplex for v, b in zip(x, simplex[0]))
        if fvals[-1] - fvals[0] < fatol or spread < 1e-12:
            converged = True
            break
        iterations += 1

        # summed vertex by vertex, as mean(axis=0) does
        centroid = [reduce(lambda s, v: s + v, col) / ndim for col in zip(*simplex[:-1])]
        worst = simplex[-1]
        reflected = toward(centroid, worst, -1.0)
        f_r = fn(reflected)
        if f_r < fvals[0]:
            expanded = toward(centroid, worst, -2.0)
            f_e = fn(expanded)
            if f_e < f_r:
                simplex[-1], fvals[-1] = expanded, f_e
            else:
                simplex[-1], fvals[-1] = reflected, f_r
        elif f_r < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, f_r
        else:
            if f_r < fvals[-1]:
                contracted = toward(centroid, reflected, 0.5)
                f_c = fn(contracted)
                better_than = f_r
            else:
                contracted = toward(centroid, worst, 0.5)
                f_c = fn(contracted)
                better_than = fvals[-1]
            if f_c < better_than:
                simplex[-1], fvals[-1] = contracted, f_c
            else:
                for j in range(1, ndim + 1):
                    simplex[j] = toward(simplex[0], simplex[j], 0.5)
                    fvals[j] = fn(simplex[j])

    best = min(range(ndim + 1), key=fvals.__getitem__)
    return simplex[best], fvals[best], iterations, converged


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
    grid_vals = -summary.grid(axis, axis if fix_beta is None else [fix_beta], axis).ravel()
    order = np.argsort(grid_vals, kind="stable")
    starts = points[order[:_STARTS]].tolist()

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
