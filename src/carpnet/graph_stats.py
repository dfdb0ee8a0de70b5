"""Descriptive statistics of a risk network's topology."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import networkx as nx
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


def to_networkx(network: RiskNetwork) -> nx.Graph:
    """Undirected graph on risk ids with expert co-mention counts on the edges."""
    g = nx.Graph()
    for risk in network.risks:
        g.add_node(risk.id, category=risk.category, likelihood=risk.normalized_likelihood)
    rows, cols = np.nonzero(np.triu(network.adjacency, k=1))
    for i, j in zip(rows, cols):
        g.add_edge(network.ids[i], network.ids[j], count=int(network.pair_counts[i, j]))
    return g


def compute_properties(network: RiskNetwork) -> NetworkProperties:
    """Summary statistics of the topology.

    Path-based quantities (diameter, average shortest path) are computed
    on the largest connected component, so they stay defined for
    fragmented networks; for a single-node component both are 0.  Degree
    assortativity is NaN when degrees have no variance.  The maximum
    clique is found exactly (branch and bound), which is fine at the
    scale of these networks.
    """
    g = to_networkx(network)
    n = g.number_of_nodes()
    m = g.number_of_edges()

    if n < 2:
        assort = float("nan")
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                assort = float(nx.degree_assortativity_coefficient(g))
            except (ValueError, ZeroDivisionError):
                assort = float("nan")

    components = list(nx.connected_components(g))
    largest = max(components, key=len)
    sub = g.subgraph(largest)
    if len(largest) < 2:
        diameter = 0
        avg_path = 0.0
    else:
        diameter = int(nx.diameter(sub))
        avg_path = float(nx.average_shortest_path_length(sub))

    clique, _ = nx.max_weight_clique(g, weight=None)

    return NetworkProperties(
        node_count=n,
        edge_count=m,
        density=float(nx.density(g)),
        average_degree=2.0 * m / n,
        degree_assortativity=assort,
        average_clustering=float(nx.average_clustering(g)),
        diameter=diameter,
        average_shortest_path=avg_path,
        max_clique_size=len(clique),
        connected=len(components) == 1,
        n_components=len(components),
        largest_component_size=len(largest),
    )
