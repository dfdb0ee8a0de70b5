"""Descriptive statistics of a risk network's topology."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .risks import RiskNetwork


@dataclass(frozen=True)
class NetworkProperties:
    node_count: int
    edge_count: int
    density: float
    average_degree: float
    degree_assortativity: float
    average_clustering: float
    diameter: int
    average_shortest_path: float
    max_clique_size: int
    connected: bool
    n_components: int
    largest_component_size: int


def _max_clique_size(adjacency: np.ndarray) -> int:
    """Bron–Kerbosch with pivoting (CACM 16, 1973), pruned by the best size so far."""
    neighbors = [set(np.flatnonzero(row).tolist()) for row in adjacency]
    best = 0

    def expand(size: int, candidates: set, excluded: set) -> None:
        nonlocal best
        if size + len(candidates) <= best:
            return
        if not candidates:
            best = size
            return
        pivot = max(candidates | excluded, key=lambda u: len(candidates & neighbors[u]))
        for v in candidates - neighbors[pivot]:
            expand(size + 1, candidates & neighbors[v], excluded & neighbors[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    expand(0, set(range(len(adjacency))), set())
    return best


def compute_properties(network: RiskNetwork) -> NetworkProperties:
    """Summary statistics of the topology, read from ``network.adjacency``.

    Path-based quantities (diameter, average shortest path) are computed
    on the largest connected component, so they stay defined for
    fragmented networks; for a single-node component both are 0.  Of
    equally large components, the one holding the lowest-indexed risk
    counts as the largest.  Degree assortativity is the Pearson
    correlation of the degrees at the two ends of every edge (Newman,
    PRL 89, 2002); it is NaN when there are no edges or the degrees have
    no variance.  The maximum clique is found exactly by a Bron–Kerbosch
    search, which is fine at the scale of these networks.
    """
    A = network.adjacency
    n = network.n_risks
    m = network.n_edges
    degrees = network.degrees()

    # Python integers keep the moments exact, so the one division rounds once.
    ends = 2 * m
    s1 = int(degrees @ degrees)
    variance = ends * int((degrees**3).sum()) - s1 * s1
    covariance = ends * int(degrees @ A @ degrees) - s1 * s1
    assort = covariance / variance if variance else float("nan")

    # diag(A^3) counts each triangle at a node twice
    twice_triangles = ((A.astype(np.int64) @ A) * A).sum(axis=1)
    pairs = degrees * (degrees - 1)
    clustering = np.divide(twice_triangles, pairs, out=np.zeros(n), where=pairs > 0)

    # Breadth-first search from every node at once, one frontier per row.
    reached = np.eye(n, dtype=bool)
    frontier = reached.copy()
    distance_sums = np.zeros(n, dtype=np.int64)
    eccentricity = np.zeros(n, dtype=np.int64)
    step = 0
    while frontier.any():
        step += 1
        frontier = (frontier @ A) & ~reached
        reached |= frontier
        distance_sums += step * frontier.sum(axis=1)
        eccentricity[frontier.any(axis=1)] = step

    # A component is labelled by its lowest-indexed member.
    labels = reached.argmax(axis=1)
    sizes = np.bincount(labels, minlength=n)
    largest = labels == np.argmax(sizes)
    k = int(sizes.max())
    n_components = int(np.count_nonzero(sizes))

    return NetworkProperties(
        node_count=n,
        edge_count=m,
        density=2 * m / (n * (n - 1)) if n > 1 else 0.0,
        average_degree=2.0 * m / n,
        degree_assortativity=assort,
        average_clustering=sum(clustering.tolist()) / n,
        diameter=int(eccentricity[largest].max()),
        average_shortest_path=int(distance_sums[largest].sum()) / (k * (k - 1)) if k > 1 else 0.0,
        max_clique_size=_max_clique_size(A),
        connected=n_components == 1,
        n_components=n_components,
        largest_component_size=k,
    )
