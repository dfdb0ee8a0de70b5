"""Slow, independent reference implementations used to cross-check carpnet.

Nothing in this module imports from the package under test.  Everything
is a direct transcription of the model definition with plain loops, so a
test can compare two separately derived answers instead of the package
against itself.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np


def exact_transition_matrix(adjacency, L, alpha, beta, gamma):
    """Transition matrix of the full 2^R-state chain, built cell by cell.

    State s encodes risk i as bit i.  Given the current state, risks
    update independently: an active risk stays active with
    1 - (1-L)^gamma, a passive risk activates with
    1 - (1-L)^(alpha + beta*k) where k counts its active neighbours.
    """
    adjacency = np.asarray(adjacency)
    L = np.asarray(L, dtype=float)
    R = len(L)
    n = 1 << R
    T = np.zeros((n, n))
    for s in range(n):
        bits = [(s >> i) & 1 for i in range(R)]
        p_one = []
        for i in range(R):
            if bits[i]:
                p_one.append(1.0 - (1.0 - L[i]) ** gamma)
            else:
                k = sum(adjacency[i, j] * bits[j] for j in range(R))
                p_one.append(1.0 - (1.0 - L[i]) ** (alpha + beta * k))
        for d in range(n):
            prob = 1.0
            for i in range(R):
                pi = p_one[i]
                prob *= pi if (d >> i) & 1 else 1.0 - pi
            T[s, d] = prob
    return T


def stationary_distribution(T):
    """Stationary distribution of a row-stochastic matrix by linear solve."""
    n = T.shape[0]
    A = np.vstack([T.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()


def cascade_step(active, adjacency, L, alpha, beta, gamma, u):
    """One synchronous month of the cascade, driven by given uniforms.

    ``u`` has shape (2, R), as drawn by ``rng.random((2, R))``.  An active
    risk recovers when u[0, i] < (1-L)^gamma.  A passive risk activates
    when u[0, i] < 1 - (1-L)^alpha (internally) or u[1, i] <
    1 - (1-L)^(beta*k) (externally), where k counts its active neighbours
    in the current month.
    """
    adjacency = np.asarray(adjacency)
    L = np.asarray(L, dtype=float)
    R = len(L)
    nxt = np.zeros(R, dtype=bool)
    for i in range(R):
        if active[i]:
            nxt[i] = not u[0, i] < (1.0 - L[i]) ** gamma
        else:
            k = sum(adjacency[i, j] * active[j] for j in range(R))
            internal = u[0, i] < 1.0 - (1.0 - L[i]) ** alpha
            external = u[1, i] < 1.0 - (1.0 - L[i]) ** (beta * k)
            nxt[i] = internal or external
    return nxt


def naive_log_likelihood(states, adjacency, L, alpha, beta, gamma):
    """Cell-by-cell log-likelihood of a (R, T) 0/1 history, plain loops."""
    states = np.asarray(states)
    adjacency = np.asarray(adjacency)
    L = np.asarray(L, dtype=float)
    R, T = states.shape
    total = 0.0
    for t in range(1, T):
        for i in range(R):
            src, dst = states[i, t - 1], states[i, t]
            if src == 1:
                p_stay = 1.0 - (1.0 - L[i]) ** gamma
                p = p_stay if dst == 1 else 1.0 - p_stay
            else:
                k = sum(adjacency[i, j] * states[j, t - 1] for j in range(R))
                p_act = 1.0 - (1.0 - L[i]) ** (alpha + beta * k)
                p = p_act if dst == 1 else 1.0 - p_act
            if p <= 0.0:
                return float("-inf")
            total += math.log(p)
    return total


def summary_log_likelihood(summary, h, alpha, beta, gamma):
    """Log-likelihood of history ``h`` from a stack's grouped sufficient
    statistics, one point.

    ``summary`` carries the fields of carpnet's ``TransitionSummary``: the
    per-history sums ``c00_l``, ``c00_kl`` and ``s10_l``, and the term groups
    ``activations`` (counts ``w``, ln(1-L) ``l`` and neighbor counts ``k``) and
    ``continuations`` (``w`` and ``l``), whose row h holds ``sizes[h]`` terms
    and then zero padding.  The float operations and their order are those
    that carpnet's stacked evaluation must reproduce bit for bit: each term
    group is one BLAS dot product of the counts with ``log(-expm1(e))``, and
    an impossible transition returns ``-inf`` before any logarithm is taken.
    """
    acts, cont = summary.activations, summary.continuations
    n01, n11 = acts.sizes[h], cont.sizes[h]
    total = alpha * summary.c00_l[h] + beta * summary.c00_kl[h]
    if n01:
        e01 = (alpha + beta * acts.k[h, :n01]) * acts.l[h, :n01]
        if (e01 == 0.0).any():
            return -np.inf
        total += float(acts.w[h, :n01] @ np.log(-np.expm1(e01)))
    total += gamma * summary.s10_l[h]
    if n11:
        if gamma == 0.0:
            return -np.inf
        total += float(cont.w[h, :n11] @ np.log(-np.expm1(gamma * cont.l[h, :n11])))
    return total


def newton_fixed_point(adjacency, L, alpha, beta, gamma, start, dps=50):
    """The mean-field fixed point nearest ``start``, Newton-polished in mpmath.

    Solves p = F(p) with F_i(p) = num_i / (num_i + rec_i), num_i =
    1 - (1-L_i)^(alpha + beta*(A p)_i) and rec_i = (1-L_i)^gamma, at ``dps``
    digits.  Returns the fixed point as a list of mpf.
    """
    with mpmath.workdps(dps):
        A = mpmath.matrix([[int(a) for a in row] for row in np.asarray(adjacency)])
        base = [1 - mpmath.mpf(float(x)) for x in L]
        rec = [b ** gamma for b in base]
        R = len(base)
        p = mpmath.matrix([mpmath.mpf(float(x)) for x in start])
        for _ in range(100):
            x = [alpha + beta * sum(A[i, j] * p[j] for j in range(R)) for i in range(R)]
            num = [1 - b ** xi for b, xi in zip(base, x)]
            F = [n / (n + r) for n, r in zip(num, rec)]
            dF = [r * -mpmath.log(b) * b ** xi / (n + r) ** 2
                  for b, xi, n, r in zip(base, x, num, rec)]
            G = mpmath.matrix([F[i] - p[i] for i in range(R)])
            DG = mpmath.matrix(R, R)
            for i in range(R):
                for j in range(R):
                    DG[i, j] = dF[i] * beta * A[i, j] - (i == j)
            step = mpmath.lu_solve(DG, -G)
            p += step
            if mpmath.norm(step, mpmath.inf) < mpmath.mpf(10) ** (-dps + 5):
                return list(p)
        raise ArithmeticError("Newton did not converge")


def brute_force_max_clique(adjacency):
    """Exhaustive maximum-clique size; fine for a dozen nodes or so."""
    adjacency = np.asarray(adjacency)
    n = adjacency.shape[0]
    best = 1 if n else 0
    nodes = range(n)
    for size in range(n, 1, -1):
        for combo in itertools.combinations(nodes, size):
            if all(adjacency[u, v] for u, v in itertools.combinations(combo, 2)):
                return size
    return best


def reference_nelder_mead(fn, x0, lower, upper, fatol, max_iter):
    """The box-clipped Nelder-Mead simplex on numpy vectors.

    Returns (x_best, f_best, iterations, converged).  carpnet's simplex runs
    the same steps on lists of floats and must match this one bit for bit.
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


def reference_fit(loglik, fix_beta=None):
    """carpnet's grid-plus-simplex search with one ``loglik`` call per grid point.

    ``loglik(alpha, beta, gamma)`` is the objective.  The grid is 10
    log-spaced values in [1e-4, 10] per fitted parameter; the 5 best points
    (stable order) seed simplices in the box [0, 10] with fatol 1e-8 and
    2,000 steps each.  Returns ((alpha, beta, gamma), log_likelihood,
    iterations, converged, bound_flags); raises ArithmeticError where the
    fit raises ConvergenceError.
    """
    lower, upper = 0.0, 10.0
    if fix_beta is None:
        expand = lambda x: (x[0], x[1], x[2])
        ndim = 3
    else:
        expand = lambda x: (x[0], fix_beta, x[1])
        ndim = 2
    neg = lambda x: -loglik(*expand(x))

    axis = np.geomspace(1e-4, 10.0, 10)
    grids = np.meshgrid(*([axis] * ndim), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    grid_vals = np.array([neg(p) for p in points])
    starts = points[np.argsort(grid_vals, kind="stable")[:5]]

    best_x, best_f, best_converged = None, np.inf, False
    total_iters, any_converged = 0, False
    for x0 in starts:
        x, f, iters, conv = reference_nelder_mead(neg, x0, lower, upper, 1e-8, 2000)
        total_iters += iters
        any_converged = any_converged or conv
        if f < best_f:
            best_x, best_f, best_converged = x, f, conv
    if best_x is None or not np.isfinite(best_f) or not any_converged:
        raise ArithmeticError("no usable simplex start")

    params = tuple(float(v) for v in expand(best_x))
    flags = []
    for name, value in zip(("alpha", "beta", "gamma"), params):
        if name == "beta" and fix_beta is not None:
            continue
        if value <= lower + 1e-3:
            flags.append(f"{name}_at_lower_bound")
        elif value >= upper - 1e-3:
            flags.append(f"{name}_at_upper_bound")
    return params, -best_f, total_iters, best_converged, tuple(flags)
