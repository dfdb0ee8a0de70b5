"""Slow, independent reference implementations used to cross-check carpnet.

Nothing in this module imports from the package under test.  Everything
is a direct transcription of the model definition with plain loops, so a
test can compare two separately derived answers instead of the package
against itself.
"""

from __future__ import annotations

import itertools
import math

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
