import itertools
import math
import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carpnet import compute_properties
from conftest import make_network
from oracles import brute_force_max_clique


def test_triangle_is_maximally_tight():
    props = compute_properties(make_network([0.2, 0.3, 0.4], edges=[(0, 1), (1, 2), (0, 2)]))
    assert props.node_count == 3 and props.edge_count == 3
    assert props.density == pytest.approx(1.0)
    assert props.average_clustering == pytest.approx(1.0)
    assert props.diameter == 1
    assert props.max_clique_size == 3
    assert props.average_shortest_path == pytest.approx(1.0)
    assert props.connected and props.n_components == 1
    assert math.isnan(props.degree_assortativity)  # regular graph: undefined


def test_path_of_three_is_perfectly_disassortative():
    props = compute_properties(make_network([0.2, 0.3, 0.4], edges=[(0, 1), (1, 2)]))
    assert props.degree_assortativity == pytest.approx(-1.0)
    assert props.average_degree == pytest.approx(4 / 3)


def test_star_has_no_triangles():
    props = compute_properties(
        make_network([0.2] * 5, edges=[(0, 1), (0, 2), (0, 3), (0, 4)])
    )
    assert props.average_clustering == 0.0
    assert props.diameter == 2
    assert props.max_clique_size == 2


def test_disconnected_network_reports_components():
    props = compute_properties(make_network([0.2] * 5, edges=[(0, 1), (1, 2), (3, 4)]))
    assert not props.connected
    assert props.n_components == 2
    assert props.largest_component_size == 3
    assert props.diameter == 2  # measured on the largest component


def test_single_node_degenerates_gracefully():
    props = compute_properties(make_network([0.2]))
    assert props.node_count == 1 and props.edge_count == 0
    assert props.diameter == 0
    assert props.average_shortest_path == 0.0
    assert props.max_clique_size == 1


def test_construction_order_is_irrelevant():
    edges = [(0, 2), (1, 3), (2, 3), (0, 1)]
    a = compute_properties(make_network([0.2, 0.3, 0.25, 0.35], edges=edges))
    b = compute_properties(make_network([0.35, 0.25, 0.3, 0.2], edges=[(3 - u, 3 - v) for u, v in edges]))
    assert a.density == b.density
    assert a.average_clustering == pytest.approx(b.average_clustering)
    assert a.max_clique_size == b.max_clique_size
    assert a.diameter == b.diameter


@given(n=st.integers(4, 9), seed=st.integers(0, 200))
@settings(max_examples=40)
def test_clique_size_matches_brute_force(n, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < 0.45, k=1)
    edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(upper))]
    net = make_network([0.2] * n, edges=edges)
    props = compute_properties(net)
    assert props.max_clique_size == brute_force_max_clique(net.adjacency)


@given(n=st.integers(3, 8), seed=st.integers(0, 100))
@settings(max_examples=25)
def test_density_and_degree_bookkeeping(n, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < 0.5, k=1)
    edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(upper))]
    props = compute_properties(make_network([0.3] * n, edges=edges))
    m = len(edges)
    assert props.edge_count == m
    assert props.density == pytest.approx(2 * m / (n * (n - 1)))
    assert props.average_degree == pytest.approx(2 * m / n)


@st.composite
def graphs(draw):
    """Random graphs with isolated nodes, sometimes followed by a second random
    graph of the same size, so that the largest components can tie."""
    n = draw(st.integers(1, 9))
    parts = draw(st.integers(1, 2))
    edges = [
        pair
        for start in range(0, parts * n, n)
        for pair in itertools.combinations(range(start, start + n), 2)
        if draw(st.booleans())
    ]
    return parts * n, edges


TRIANGLE, PATH = [(0, 1), (1, 2), (0, 2)], [(0, 1), (1, 2)]


@given(graphs())
@example((1, []))
@example((2, []))
@example((2, [(0, 1)]))
@example((6, TRIANGLE + [(u + 3, v + 3) for u, v in PATH]))  # equal components, diameters 1 and 2
@example((6, PATH + [(u + 3, v + 3) for u, v in TRIANGLE]))
@settings(max_examples=150, deadline=None)
def test_matches_networkx(graph):
    n, edges = graph
    props = compute_properties(make_network([0.2] * n, edges=edges))
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    largest = g.subgraph(max(nx.connected_components(g), key=len))
    assert props.node_count == g.number_of_nodes()
    assert props.edge_count == g.number_of_edges()
    assert props.density == nx.density(g)
    assert props.average_degree == sum(d for _, d in g.degree()) / n
    assert props.average_clustering == nx.average_clustering(g)
    assert props.diameter == nx.diameter(largest)
    assert props.average_shortest_path == nx.average_shortest_path_length(largest)
    assert props.max_clique_size == len(nx.max_weight_clique(g, weight=None)[0])
    assert props.connected == nx.is_connected(g)
    assert props.n_components == nx.number_connected_components(g)
    assert props.largest_component_size == len(largest)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 0/0 when there is no degree variance
        expected = nx.degree_assortativity_coefficient(g)
    if math.isnan(expected):
        assert math.isnan(props.degree_assortativity)
    else:
        assert props.degree_assortativity == pytest.approx(expected, rel=0, abs=1e-12)
