"""Mean-field steady state of the cascade dynamics.

Replacing each neighbor's random activity with its long-run activation
probability turns the stationary condition into a fixed-point problem

    p_i = num_i / (num_i + rec_i),
    num_i = 1 - (1-L_i)**(alpha + beta * sum_j A_ij p_j),
    rec_i = (1-L_i)**gamma,

whose right-hand side F is monotone in p, so iterating from the all-zero
vector climbs to the least fixed point.  The Jacobian J(p) = diag(F') beta A
only falls as p rises, so an M-matrix test of I - J at an iterate l from 0
proves that fixed point unique and bounds the distance to it of any point
above l (Berman & Plemmons, ch. 6).  A slow sweep is tested every
``_CHECK_EVERY`` sweeps and, once proven, finishes with Newton steps from
above; a solve that fails the test never starts Newton and is reported.
"""
from __future__ import annotations

import warnings
from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelParams, check_likelihoods
from .errors import ConvergenceError, DataError
from .risks import RiskNetwork

_TOL, _MAX_ITER = 1e-12, 1_000_000  # sup-norm residual that ends a solve; budget of steps
_CHECK_EVERY, _CHUNK = 64, 8  # sweeps between M-matrix tests; columns per stacked LU


@dataclass(frozen=True)
class SteadyState:
    """The steady state ``p_hat`` reached from the all-passive vector, and its certificate.

    ``unique`` is True when the M-matrix test proves there is one fixed point
    p*; ``error_bound`` >= max|p_hat - p*| then.  Otherwise ``error_bound`` is
    inf and ``p_hat`` is the least of several fixed points, or a critical one;
    that needs alpha = 0, as p* is unique for alpha > 0 (Kennan, Econ. Lett. 2001).
    ``residual`` is max|F(p_hat) - p_hat| and ``iterations`` counts sweeps plus
    Newton steps.  ``monotone`` covers the sweep from 0 only: Newton iterates
    fall to p* from above.
    """

    p_hat: np.ndarray
    residual: float
    iterations: int
    monotone: bool
    unique: bool
    error_bound: float


def _sweep(p, A, abg, log1m, rec):
    """The mean-field map, unchecked, at (alpha, beta, gamma) ``abg``: one triple
    for a vector ``p``, or a (3, K) array, one column per column of ``p``."""
    num = -np.expm1((abg[0] + abg[1] * (A @ p)) * log1m)
    denom = num + rec
    return np.divide(num, denom, out=np.zeros_like(num), where=denom > 0)


def fixed_point_map(p, params: ModelParams, network: RiskNetwork, L=None):
    """One application of the mean-field map to activation vector ``p``."""
    L = network.likelihoods if L is None else check_likelihoods(L, network.n_risks)
    p = np.asarray(p, dtype=float)
    if p.shape != L.shape:
        raise DataError(f"p must have shape {L.shape}, got {p.shape}")
    log1m = np.log1p(-L)
    return _sweep(p, network.adjacency_float, params.as_tuple(), log1m, np.exp(params.gamma * log1m))


def _slope(P, A, abg, log1m, rec):
    """F' at each column of ``P``: J(p) = diag(slope) A."""
    xlog = (abg[0] + abg[1] * (A @ P)) * log1m
    return abg[1] * rec * -log1m * np.exp(xlog) / (rec - np.expm1(xlog)) ** 2


def _solve_linear(slope, A, *rhs):
    """(I - J)^-1 b per column of each (R, K) array b, in stacked LUs of ``_CHUNK`` columns.

    A chunk with an exactly singular I - J gives NaN, which fails every test.
    """
    B = np.stack(rhs).transpose(2, 1, 0)
    U = np.full_like(B, np.nan)
    for c in (slice(s, s + _CHUNK) for s in range(0, len(B), _CHUNK)):
        with suppress(np.linalg.LinAlgError):
            U[c] = np.linalg.solve(np.eye(len(A)) - slope[:, c].T[:, :, None] * A, B[c])
    return U.transpose(2, 1, 0)


def _certificate(y, slope, A):
    """max(y) and min(z), z = (I - J)y, per column; min(z) > 0 only if y > 0 and z > 0."""
    z = y - slope * (A @ y)
    return y.max(axis=0), np.where((y > 0).all(axis=0), z.min(axis=0), 0.0)


def _prove_and_polish(lo, r, A, abg, log1m, rec, start: int):
    """Test columns at iterates ``lo`` from 0, r = F(lo) - lo, and Newton-polish the proven.

    One solve of (I - J(lo)) [d y] = [r, 1] gives the test's y and the first
    Newton step d.  Above a proven ``lo``, p - F(p) is convex and I - J(p) an
    M-matrix, so Newton steps clipped to [lo, 1] fall to p* (Ortega &
    Rheinboldt, 13.3).  Once below ``_TOL`` a column takes one more step and
    keeps the better point.  Returns the proven mask and, for those columns,
    the point, residual, step count (on from ``start``), max(y) and min(z).
    """
    slope = _slope(lo, A, abg, log1m, rec)
    d, y = _solve_linear(slope, A, r, np.ones_like(lo))
    ymax, zmin = _certificate(y, slope, A)
    ok = zmin > 0
    lo, abg, log1m, rec, active = lo[:, ok], abg[:, ok], log1m[:, ok], rec[:, ok], np.arange(ok.sum())
    X = np.clip(lo + d[:, ok], lo, 1.0)
    out, residual, steps = np.empty_like(X), np.full(len(active), np.inf), np.empty_like(active)
    for it in range(start + 1, _MAX_ITER + 1):
        r = _sweep(X, A, abg, log1m, rec) - X
        res, last = np.max(np.abs(r), axis=0), residual[active] < _TOL
        better = res < residual[active]
        out[:, active[better]], residual[active[better]] = X[:, better], res[better]
        steps[active[last]] = it
        if last.all():
            return ok, out, residual, steps, ymax[ok], zmin[ok]
        active, X, r, lo, abg, log1m, rec = (
            v[..., ~last] for v in (active, X, r, lo, abg, log1m, rec))
        X = np.clip(X + _solve_linear(_slope(X, A, abg, log1m, rec), A, r)[0], lo, 1.0)
    raise ConvergenceError(f"mean-field residual stayed above {_TOL} after {_MAX_ITER} steps")


def _iterate(P, A, abg, log1m, rec):
    """Sweep the columns of ``P`` until each residual |F(p) - p| is below ``_TOL``.

    A small residual ends a column only where it is exactly 0 or where y = p
    passes the M-matrix test, z = p - J(p)p > 0 on the rows with L > 0.  F is
    concave, so z >= F(0) - r, positive near a fixed point when alpha > 0;
    at p = 0, where a tiny alpha leaves r = F(0) below ``_TOL``, z is 0.  A
    column freezes at that pre-map iterate, so its residual is its
    stationarity defect; later sweeps map only the active columns, and every
    ``_CHECK_EVERY`` sweeps those that :func:`_prove_and_polish` proves leave.
    Also returns each column's step count, most negative sweep step, and
    max(y), min(z) of a passed test (else 0).
    """
    K = P.shape[1]
    out, residual = np.empty_like(P), np.empty(K)
    steps, worst = np.empty(K, dtype=np.int64), np.empty(K)
    ymax, zmin = np.zeros(K), np.zeros(K)
    active, drop = np.arange(K), np.zeros(K)
    for it in range(1, _MAX_ITER + 1):
        nxt = _sweep(P, A, abg, log1m, rec)
        step = nxt - P
        res = np.max(np.abs(step), axis=0)
        drop = np.minimum(drop, np.min(step, axis=0))
        leave = done = res < _TOL
        if (near := np.flatnonzero(done & (res > 0))).size:
            p = P[:, near]
            z = p - _slope(p, A, abg[:, near], log1m[:, near], rec[:, near]) * (A @ p)
            done[near] = ((z > 0) | (log1m[:, near] == 0)).all(axis=0)
        if done.any():
            cols = active[done]
            out[:, cols] = P[:, done]
            residual[cols], steps[cols], worst[cols] = res[done], it, drop[done]
        if it % _CHECK_EVERY == 0 and not done.all():
            test = np.flatnonzero(~done)
            ok, *polished = _prove_and_polish(P[:, test], step[:, test], A, abg[:, test],
                                              log1m[:, test], rec[:, test], it)
            test, leave = test[ok], done.copy()
            leave[test] = True
            cols = active[test]
            out[:, cols], residual[cols], steps[cols], ymax[cols], zmin[cols] = polished
            worst[cols] = drop[test]
        if leave.any():
            keep = ~leave
            if not keep.any():
                return out, residual, steps, worst, ymax, zmin
            active, drop, nxt, abg, log1m, rec = (
                v[..., keep] for v in (active, drop, nxt, abg, log1m, rec))
        P = nxt
    raise ConvergenceError(f"mean-field residual stayed above {_TOL} after {_MAX_ITER} steps")


def _solve(abg, network: RiskNetwork, Ls):
    """Solve and certify the steady state of each row of the checked (K, R) stack at ``abg``.

    J(p) falls as p rises, so if some y > 0 has z = (I - J(l))y > 0 at an
    iterate l from 0, the fixed point p* >= l is unique and any q >= l has
    max|q - p*| <= residual(q) max(y) / min(z).  A column that converges by
    sweeping is tested at its limit with the trial y = 1, or y = (I - J)^-1 1
    where a row sum of J reaches 1; a polished one keeps the test that let it
    leave the sweep.  For rounding, the residual gains R + 10 ulps of max(q).
    """
    A, log1m = network.adjacency_float, np.log1p(-Ls.T)
    rec = np.exp(abg[2] * log1m)
    p_hat, residual, iterations, worst, ymax, zmin = _iterate(
        np.zeros(log1m.shape), A, abg, log1m, rec)
    swept = np.flatnonzero(zmin == 0)
    slope = _slope(p_hat[:, swept], A, abg[:, swept], log1m[:, swept], rec[:, swept])
    y = np.ones_like(slope)
    solve = np.flatnonzero((slope * A.sum(axis=1)[:, None] >= 1).any(axis=0))
    y[:, solve] = _solve_linear(slope[:, solve], A, y[:, solve])[0]
    ymax[swept], zmin[swept] = _certificate(y, slope, A)
    slack = (len(A) + 10) * np.finfo(float).eps * p_hat.max(axis=0)
    bounds = np.divide((residual + slack) * ymax, zmin,
                       out=np.full(len(residual), np.inf), where=zmin > 0)
    for _ in np.flatnonzero(zmin <= 0):  # warn at the caller of the public solver
        warnings.warn("the steady state is not unique or critical: I - J fails the M-matrix "
                      "test at the limit from p=0; p_hat is the least fixed point", stacklevel=3)
    return [
        SteadyState(p_hat=p_hat[:, k].copy(), residual=float(residual[k]),
                    iterations=int(iterations[k]), monotone=bool(worst[k] >= -1e-15),
                    unique=bool(zmin[k] > 0), error_bound=float(bounds[k]))
        for k in range(len(bounds))
    ]


def solve_steady_state(params: ModelParams, network: RiskNetwork) -> SteadyState:
    """Sweep the mean-field map up from 0, polish with Newton once proven unique, and certify.

    Convergence means the sup-norm residual ``|F(p) - p|`` falls below
    ``_TOL``; ``_MAX_ITER`` bounds sweeps plus Newton steps, and an overrun
    raises ConvergenceError.  ``monotone`` records that no sweep iterate fell
    (up to 1e-15), as iterates from 0 must.  A steady state that is not
    proven unique warns.
    """
    return _solve(np.array(params.as_tuple())[:, None], network, network.likelihoods[None, :])[0]


def solve_steady_states(params: ModelParams | Sequence[ModelParams], network: RiskNetwork,
                        Ls) -> list[SteadyState]:
    """:func:`solve_steady_state` for each row of the non-empty (K, R) stack ``Ls``, at one
    ``params`` for every row or at a sequence of K, one per row (else DataError).

    Entries of ``Ls`` may be exactly zero -- such a risk never activates and
    gets ``p_hat = 0`` -- which knockout experiments rely on.  The K solves
    share one ``A @ P`` per sweep and each stops where it would alone, so
    every field keeps its meaning; only the product's summation order
    differs (about 1e-16).  Any solve out of budget raises.
    """
    stack = np.array([check_likelihoods(L, network.n_risks) for L in Ls])
    if not len(stack):
        raise DataError(f"need a non-empty (K, {network.n_risks}) stack, got shape {np.shape(Ls)}")
    rows = [params] * len(stack) if isinstance(params, ModelParams) else list(params)
    if len(rows) != len(stack):
        raise DataError(f"need one ModelParams or one per row of Ls ({len(stack)}), got {len(rows)}")
    return _solve(np.array([p.as_tuple() for p in rows], dtype=float).T, network, stack)
