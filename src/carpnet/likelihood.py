"""Maximum-likelihood estimation of the cascade parameters from histories.

The log-likelihood of a history is the sum over months and risks of the
log-probability of each observed monthly transition:

* passive -> passive: ``(alpha + beta*k) * ln(1-L)``
* passive -> active:  ``ln(1 - (1-L)**(alpha + beta*k))``
* active -> active:   ``ln(1 - (1-L)**gamma)``
* active -> passive:  ``gamma * ln(1-L)``

where k is the number of the risk's neighbors active in the source month.
The data enter only through how often each risk makes each transition at
each k, so the whole objective collapses to a handful of grouped
sufficient statistics.  ``TransitionSummary`` counts those transitions for
an (H, R, T) stack of 0/1 state matrices, _BLOCK histories at a time in one
count tensor, keeps one row per history, and evaluates the objective of any
rows at once.

Fitting runs a coarse log-spaced grid over the box [0, 10] per parameter
and refines the best cells with deterministic Nelder-Mead simplexes, so
results are exactly reproducible.  (alpha, beta) and gamma enter separate
terms, so the 10^3-point grid of every history at once evaluates each
distinct (risk, k) activation cell once per (alpha, beta) pair and each
risk's continuation once per gamma, and each history sums its own terms
with 10^2 + 10 dot products.  The simplexes of every start of every
history in a ``fit_many`` call step in one lockstep search as array code:
each pass evaluates one trial point per live simplex in a single call
over the histories' stacked statistics, _ROWS rows at a time, and a
simplex leaves the batch when it stops.  Each simplex takes exactly the
steps it would take alone, so a fit does not depend on the batch around
it.  The search settings are the module constants below; only
``fix_beta`` is chosen per call.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelParams
from .errors import ConvergenceError, DataError
from .risks import HistoryMatrix, RiskNetwork, check_states


# Search settings: a log-spaced grid of _GRID_POINTS values per axis over
# [_GRID_MIN, _GRID_MAX] seeds a simplex from each of the _STARTS best grid
# points; the simplex stays in the box [_LOWER, _UPPER] and stops when its
# best and worst vertices agree to within _FATOL, or after _MAX_ITER steps.
_GRID_MIN, _GRID_MAX, _GRID_POINTS = 1e-4, 10.0, 10
_STARTS = 5
_LOWER, _UPPER = 0.0, 10.0
_FATOL = 1e-8
_MAX_ITER = 2000
# TransitionSummary counts, and fit_many ranks the start grids of, this many
# histories at a time, which bounds their memory.
_BLOCK = 16
# _Terms.sums evaluates this many rows at a time, which bounds the objective's
# memory however many simplexes are live.
_ROWS = 128


@dataclass(frozen=True)
class FitResult:
    params: ModelParams
    log_likelihood: float
    iterations: int
    converged: bool
    boundary_flags: tuple[str, ...]


def _state_cube(states, n_risks: int) -> np.ndarray:
    """``states`` as a uint8 (H, R, T) array, checked before the cast:
    R = ``n_risks``, T >= 2 and every entry 0 or 1."""
    states = np.asarray(states)
    if states.ndim != 3 or states.shape[1] != n_risks or states.shape[2] < 2:
        raise DataError(f"need an (H, {n_risks}, T) stack of states with T >= 2, "
                        f"got shape {states.shape}")
    return check_states(states).astype(np.uint8, copy=False)


class TransitionSummary:
    """Grouped sufficient statistics of an (H, R, T) stack of histories on one
    network, one row per history, read off the count tensor ``n[h, r, kind,
    k]`` of months in which risk r of history h makes transition ``kind``
    (0: 0->0, 1: 0->1, 2: 1->0, 3: 1->1) with k active neighbors.  Row h
    holds ``c00_l`` and ``c00_kl`` (the 0->0 sums of ln(1-L) and k ln(1-L)),
    ``s10_l`` (the 1->0 sum of ln(1-L)), the activation terms (the nonzero
    0->1 cells), the 1->1 months by risk and the counts behind the fit's
    data flags, each reduced from row h alone: a summary of history h alone.
    """

    def __init__(self, states, network: RiskNetwork):
        S = _state_cube(states, network.n_risks)
        H, R, _ = S.shape
        log1m = np.log1p(-network.likelihoods)
        adjacency = network.adjacency.astype(np.float32)
        sums, activations, continuations = [], [], []
        # one block's count tensor at a time bounds the memory; an empty stack is one empty block
        for lo in range(0, max(H, 1), _BLOCK):
            block = S[lo:lo + _BLOCK]
            h = len(block)
            # active neighbors in each source month: integers that float32 holds exactly
            K = np.matmul(adjacency, block[:, :, :-1], dtype=np.float32)
            span = int(K.max(initial=0)) + 1
            size = h * R * 4 * span  # sets a cell index dtype that cannot wrap
            cell = np.arange(0, 4 * h * R, 4, dtype=np.int32 if size <= 2**31 else np.int64)
            cell = cell.reshape(h, R, 1) + (2 * block[:, :, :-1] + block[:, :, 1:])  # 4*(h*R + r) + kind
            cell *= span
            cell += K.astype(cell.dtype)
            del K  # bounds the memory of the count
            n = np.bincount(cell.ravel(), minlength=size).reshape(h, R, 4, span)
            del cell
            months = n.sum(axis=3)  # (h, R, kind)

            # each history's sums reduce its own row, whatever the batch
            sums.append((
                (months[:, :, 0] * log1m).sum(axis=1),
                ((n[:, :, 0] @ np.arange(span)) * log1m).sum(axis=1),
                (months[:, :, 2] * log1m).sum(axis=1),
                *months[:, :, 1:3].sum(axis=1).T,
                months[:, :, 2:].sum(axis=(1, 2)),
                n[:, :, :2, 1:].any(axis=(1, 2, 3)),
            ))

            # the activations and the 1->1 months: the nonzero cells, in (h, r, k) order
            n01 = n[:, :, 1].ravel()
            key = np.flatnonzero(n01)  # (h*R + r)*span + k
            activations.append((lo + key // span // R, n01[key].astype(float),
                                (key // span % R).astype(np.int32), (key % span).astype(np.int32)))
            n11 = months[:, :, 3].ravel()
            key = np.flatnonzero(n11)  # h*R + r
            continuations.append((lo + key // R, n11[key].astype(float),
                                  (key % R).astype(np.int32)))

        (self.c00_l, self.c00_kl, self.s10_l, self.n_activations, self.n_recoveries,
         self.n_active_source, self.external_exposure) = map(np.concatenate, zip(*sums))
        self.activations = _Terms(H, log1m, *map(np.concatenate, zip(*activations)))
        self.continuations = _Terms(H, log1m, *map(np.concatenate, zip(*continuations)))

    def loglik(self, rows, alpha, beta, gamma) -> np.ndarray:
        """Log-likelihood of history ``rows[i]`` at the i-th (alpha, beta,
        gamma); ``-inf`` where an observed transition is impossible."""
        total = alpha * self.c00_l[rows] + beta * self.c00_kl[rows]
        with np.errstate(divide="ignore"):
            total += self.activations.sums(rows, alpha, beta)
            total += gamma * self.s10_l[rows]
            total += self.continuations.sums(rows, gamma)
        return total

    def grid(self, alphas, betas, gammas) -> np.ndarray:
        """``loglik`` of every history, bit for bit, at every point of three
        axes: an (H, alpha, beta, gamma) array.  The terms separate, so the
        activations are evaluated once per (alpha, beta) pair and the
        continuations once per gamma, each distinct cell once for all rows."""
        a, b, g = (np.asarray(axis, dtype=float) for axis in (alphas, betas, gammas))
        a, b = np.broadcast_arrays(a[:, None], b)
        total = a * self.c00_l[:, None, None] + b * self.c00_kl[:, None, None]
        with np.errstate(divide="ignore"):
            total += self.activations.grid(a.ravel(), b.ravel()).reshape(total.shape)
            total = total[..., None] + g * self.s10_l[:, None, None, None]
            total += self.continuations.grid(g)[:, None, None]
        return total


class _Terms:
    """One group of log-likelihood terms of several histories, one row each.

    Row i sums ``w * log(1 - exp((a + b*k) * l))`` over its terms, for a
    point's (a, b): alpha and beta for the activations by (risk, k), and
    gamma (with no k) for the risks' active -> active months; l is the
    risk's ``log1m``.  The terms come flat, sorted by ``row``; rows are
    zero-padded to the longest, and the padding is left out of every sum.
    ``cells`` holds the l (and k) of each distinct (risk, k) cell, and
    ``cell`` numbers the cell of each padded term.
    """

    def __init__(self, n_rows, log1m, row, w, risk, k=None):
        self.sizes = np.bincount(row, minlength=n_rows)
        col = np.arange(row.size) - (np.cumsum(self.sizes) - self.sizes)[row]
        values = (w, log1m[risk]) if k is None else (w, log1m[risk], k)
        padded = np.zeros((len(values), n_rows, self.sizes.max(initial=0)))
        padded[:, row, col] = values
        self.w, self.l, self.k = (*padded, None)[:3]  # no k for the continuations
        # a term's cell is its (risk, k), keyed k*R + risk; cells are numbered in key order
        key = risk if k is None else k * len(log1m) + risk
        cells = np.flatnonzero(np.bincount(key))
        self.cell = np.zeros(padded.shape[1:], dtype=np.intp)
        self.cell[row, col] = np.searchsorted(cells, key)
        self.cells = (log1m[cells % len(log1m)],
                      None if k is None else (cells // len(log1m)).astype(float))

    @staticmethod
    def _values(e, l, a, b=None):
        """``e``, a new array of the terms' k (their l with no b), overwritten
        with ``log(1 - exp((a + b*k) * l))`` (``log(1 - exp(l * a))``): the one
        arithmetic of every term, so that ``sums`` and ``grid`` agree bit for bit."""
        if b is None:
            e *= a
        else:
            e *= b
            e += a
            e *= l
        return np.log(np.negative(np.expm1(e, out=e), out=e), out=e)

    def sums(self, rows, a, b=None) -> np.ndarray:
        """Row ``rows[i]``'s sum at ``(a[i], b[i])``, as ``w @ log(-expm1(e))``
        with ``e = (a + b*k) * l`` on its unpadded terms.

        Rows are taken in order of their number of terms, _ROWS at a time,
        each chunk only as wide as its widest row, so the memory does not grow
        with the number of rows.  Each length is one ``np.vecdot`` call over a
        slice: the same BLAS dot product, row by row, as ``w @ values``.
        ``log(1 - exp(0))`` is ``-inf`` and every weight is a positive count,
        so a row with an impossible transition (``e == 0``) sums to ``-inf``.
        A row with no terms sums to -0.0, which adds nothing to a total.  Call
        under ``np.errstate(divide="ignore")``.
        """
        order = self.sizes[rows].argsort(kind="stable")
        rows, a, b = rows[order], a[order][:, None], None if b is None else b[order][:, None]
        sizes = self.sizes[rows].tolist()
        first = bisect.bisect_right(sizes, 0)
        out = np.empty(len(rows))
        out[:first] = -0.0
        for lo in range(first, len(rows), _ROWS):
            hi = min(lo + _ROWS, len(rows))
            chunk, width = rows[lo:hi], sizes[hi - 1]
            # in place in the gathered copy, so a chunk holds two arrays of terms at a time
            if b is None:
                e = self._values(_gather(self.l, chunk, width), None, a[lo:hi])
            else:
                e = self._values(_gather(self.k, chunk, width), _gather(self.l, chunk, width),
                                 a[lo:hi], b[lo:hi])
            w = _gather(self.w, chunk, width)
            for n in set(sizes[lo:hi]):
                i, j = bisect.bisect_left(sizes, n, lo, hi), bisect.bisect_right(sizes, n, lo, hi)
                np.vecdot(w[i - lo:j - lo, :n], e[i - lo:j - lo, :n], out=out[i:j])
        result = np.empty(len(rows))
        result[order] = out
        return result

    def grid(self, a, b=None) -> np.ndarray:
        """Every row's sum at every point ``(a[j], b[j])``: an (n_rows,
        points) array, each value equal to ``sums`` bit for bit.

        Each distinct cell is evaluated once per point, into a (points,
        cells) table; row i then sums its own columns of the table, in its
        term order, with one ``np.vecdot``.  ``np.take`` gathers them
        C-contiguous, so each sum is the same unit-stride BLAS dot as in
        ``sums`` (``table[:, ids]`` is strided, and changes the bits).  Call
        under ``np.errstate(divide="ignore")``.
        """
        l, k = self.cells
        table = np.broadcast_to(l if b is None else k, (len(a), len(l))).copy()
        table = self._values(table, l, a[:, None], None if b is None else b[:, None])
        out = np.full((len(self.sizes), len(a)), -0.0)
        for i, n in enumerate(self.sizes.tolist()):
            if n:
                np.vecdot(self.w[i, :n], np.take(table, self.cell[i, :n], axis=1), out=out[i])
        return out


def _gather(x, rows, width):
    """Rows ``rows`` of ``x``, cut to their first ``width`` columns.  ``take``
    gathers faster than fancy indexing, but it first copies a cut view, so it
    serves only rows taken whole."""
    return x.take(rows, axis=0) if width == x.shape[1] else x[rows, :width]


def _nelder_mead_many(fn, x0):
    """Minimize ``fn`` from every start ``x0[s]`` with deterministic Nelder-Mead
    simplexes in the box [_LOWER, _UPPER], run in lockstep as array code.

    ``fn(points, s)`` evaluates point ``points[i]`` for simplex ``s[i]``.  Each
    simplex takes exactly the steps that it would take alone: stable vertex
    order, a centroid summed vertex by vertex, and trial points
    ``base + t*(x - base)``, clipped to the box; t = -1 and -2 give the
    reflection and the expansion, and negation rounds nothing.  A simplex
    stops when the objective spread across it falls below _FATOL, when it
    collapses geometrically, or after _MAX_ITER steps, and then leaves the
    active set.  Returns each simplex's best vertex, its value, its step count
    and whether it converged.
    """
    n_simplex, ndim = x0.shape

    def clip(x):
        return np.minimum(np.maximum(x, _LOWER, out=x), _UPPER, out=x)

    simplex = np.empty((n_simplex, ndim + 1, ndim))
    simplex[:, 0] = clip(x0.copy())
    step = 0.05 * np.maximum(np.abs(x0), 0.1)
    for d in range(ndim):
        v = x0.copy()
        up = v[:, d] + step[:, d]
        v[:, d] = np.where(up <= _UPPER, up, v[:, d] - step[:, d])
        simplex[:, d + 1] = clip(v)
    live = np.arange(n_simplex)
    fvals = np.stack([fn(simplex[:, j], live) for j in range(ndim + 1)], axis=1)

    # Every simplex starts together and steps once per pass while it is
    # live, so its step count is the pass at which it stopped.
    iterations = np.full(n_simplex, _MAX_ITER)
    converged = np.zeros(n_simplex, dtype=bool)
    for done_steps in range(_MAX_ITER):
        # The vertices are not stored sorted: a stable sort keeps the first
        # of equal vertices first, so argmin finds the same best vertex.
        order = fvals[live].argsort(axis=1, kind="stable")  # fvals is never NaN
        x, f = simplex[live[:, None], order], fvals[live[:, None], order]
        spread = np.maximum.reduce(np.abs(x - x[:, :1]), axis=(1, 2))
        done = (f[:, -1] - f[:, 0] < _FATOL) | (spread < 1e-12)
        if done.any():
            converged[live[done]] = True
            iterations[live[done]] = done_steps
            live, x, f = live[~done], x[~done], f[~done]
        if not live.size:
            break

        centroid = x[:, 0] + x[:, 1]
        for j in range(2, ndim):
            centroid += x[:, j]
        centroid /= ndim
        worst = x[:, -1].copy()
        reflected = clip(centroid - (worst - centroid))
        f_r = fn(reflected, live)
        expand = f_r < f[:, 0]
        inside = f_r < f[:, -1]  # expand implies inside
        contract = ~(expand | (f_r < f[:, -2]))
        # the second trial point: the expansion, or a contraction toward the
        # reflection (inside) or the worst vertex
        toward_worst = (expand | ~inside)[:, None]
        t = np.where(expand, -2.0, 0.5)[:, None]
        second = clip(centroid + t * (np.where(toward_worst, worst, reflected) - centroid))
        tried = (expand | contract).nonzero()[0]
        f_2 = np.full(live.size, np.inf)
        f_2[tried] = fn(second[tried], live[tried])
        take = f_2 < np.where(inside, f_r, f[:, -1])  # never where nothing was tried
        shrink = contract & ~take

        x[:, -1] = np.where(take[:, None], second, reflected)
        f[:, -1] = np.where(take, f_2, f_r)
        if shrink.any():  # every vertex but the best moves halfway toward it
            shrink = shrink.nonzero()[0]
            x[shrink, -1] = worst[shrink]
            x[shrink, 1:] = clip(x[shrink, :1] + 0.5 * (x[shrink, 1:] - x[shrink, :1]))
            f[shrink, 1:] = fn(x[shrink, 1:].reshape(-1, ndim),
                               np.repeat(live[shrink], ndim)).reshape(-1, ndim)
        simplex[live], fvals[live] = x, f

    best = fvals.argmin(axis=1)  # the first of equal vertices, as in a lone simplex
    every = np.arange(n_simplex)
    return simplex[every, best], fvals[every, best], iterations, converged


def fit_many(
    states, network: RiskNetwork, *, fix_beta: float | None = None
) -> list[FitResult | ConvergenceError]:
    """``fit`` of every history of an (H, R, T) stack of 0/1 state matrices,
    each in the risk order of ``network``.

    Entry h equals ``fit`` of a history with states ``states[h]`` bit for
    bit, or is the ConvergenceError that call raises, returned, not raised,
    so one failed history does not stop the rest.  The start grids of every
    history are one call, and their simplexes step together in one lockstep
    search as array code, so a batch makes far fewer numpy calls than one
    ``fit`` per history.  Raises DataError for a bad ``fix_beta``, or for a
    stack that is not 3-D, has other than ``network.n_risks`` rows or fewer
    than two months, or holds a value other than 0 and 1.
    """
    if fix_beta is not None and not (math.isfinite(fix_beta) and fix_beta >= 0):
        raise DataError(f"fix_beta must be finite and non-negative, got {fix_beta}")
    stack = TransitionSummary(states, network)
    n_histories = len(stack.c00_l)
    ndim = 3 if fix_beta is None else 2
    axis = np.geomspace(_GRID_MIN, _GRID_MAX, _GRID_POINTS)
    grids = np.meshgrid(*([axis] * ndim), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    betas = axis if fix_beta is None else [fix_beta]
    grid = stack.grid(axis, betas, axis).reshape(n_histories, len(points))
    starts = np.concatenate([  # an empty stack is one empty block
        points[np.argsort(-grid[lo:lo + _BLOCK], axis=1, kind="stable")[:, :_STARTS]]
        for lo in range(0, max(n_histories, 1), _BLOCK)
    ]).reshape(-1, ndim)
    del grid  # the search runs without it
    owner = np.repeat(np.arange(n_histories), _STARTS)

    def neg_loglik(x, simplexes):
        beta = x[:, 1] if fix_beta is None else np.full(len(x), float(fix_beta))
        return -stack.loglik(owner[simplexes], x[:, 0], beta, x[:, -1])

    best_x, best_f, iterations, converged = _nelder_mead_many(neg_loglik, starts)

    results = []
    for h in range(n_histories):
        own = slice(h * _STARTS, (h + 1) * _STARTS)
        best = own.start + int(np.argmin(best_f[own]))  # the first start of equal optima
        if not np.isfinite(best_f[best]):
            results.append(ConvergenceError("every simplex start ended at an impossible-data point"))
            continue
        if not converged[own].any():
            results.append(ConvergenceError(f"no simplex start converged within {_MAX_ITER} iterations"))
            continue
        alpha, *_, gamma = best_x[best].tolist()
        beta = best_x[best, 1] if fix_beta is None else fix_beta
        params = ModelParams(alpha=alpha, beta=float(beta), gamma=gamma)

        flags = [flag for flag, on in (
            ("no_activations", stack.n_activations[h] == 0),
            ("no_recoveries", stack.n_recoveries[h] == 0),
            ("beta_unidentified", not stack.external_exposure[h]),
            ("gamma_unidentified", stack.n_active_source[h] == 0),
        ) if on]
        for name, value in zip(("alpha", "beta", "gamma"), params.as_tuple()):
            if name == "beta" and fix_beta is not None:
                continue
            if value <= _LOWER + 1e-3:
                flags.append(f"{name}_at_lower_bound")
            elif value >= _UPPER - 1e-3:
                flags.append(f"{name}_at_upper_bound")

        results.append(FitResult(
            params=params,
            log_likelihood=float(-best_f[best]),
            iterations=int(iterations[own].sum()),
            converged=bool(converged[best]),
            boundary_flags=tuple(flags),
        ))
    return results


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
    flags).  Raises ConvergenceError if every simplex start ends at a point
    where the observed data are impossible, or if no start converges within
    ``_MAX_ITER`` steps.
    """
    if history.risk_ids != network.ids:
        raise DataError("history risks are not aligned to the network")
    result, = fit_many(history.states[None], network, fix_beta=fix_beta)
    if isinstance(result, ConvergenceError):
        raise result
    return result
