import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from carpnet import (
    DataError,
    ExpertPairCount,
    Risk,
    RiskNetwork,
    build_history,
    build_network,
    load_history,
    load_network,
    month_sequence,
    normalize_likelihood,
    save_history,
    save_network,
)
from conftest import make_network


def test_normalize_top_of_scale_stays_below_one():
    assert normalize_likelihood(5.0, 5.0) == 5.0 / 5.5
    assert normalize_likelihood(5.0, 5.0) == pytest.approx(0.9090909090909091, abs=0)


def test_normalize_rejects_out_of_range():
    with pytest.raises(DataError):
        normalize_likelihood(0.0, 5.0)
    with pytest.raises(DataError):
        normalize_likelihood(5.1, 5.0)
    with pytest.raises(DataError):
        normalize_likelihood(2.0, 5.0, epsilon=0.0)


@given(
    raw=st.floats(0.01, 5.0),
    other=st.floats(0.01, 5.0),
    epsilon=st.floats(0.01, 2.0),
)
def test_normalize_is_monotone_and_open(raw, other, epsilon):
    a = normalize_likelihood(raw, 5.0, epsilon=epsilon)
    b = normalize_likelihood(other, 5.0, epsilon=epsilon)
    assert 0.0 < a < 1.0
    if raw < other:
        assert a < b


def test_month_sequence_wraps_december():
    assert month_sequence("2010-11", 4) == ("2010-11", "2010-12", "2011-01", "2011-02")


def test_network_is_symmetric_and_hollow():
    net = make_network([0.2, 0.3, 0.4], edges=[(0, 1), (1, 2)], counts=[4, 1])
    i, j, k = (net.index_of(r) for r in ("r1", "r2", "r3"))
    assert net.pair_counts[i, j] == net.pair_counts[j, i] == 4
    assert net.adjacency[i, j] == 1 and net.adjacency[i, k] == 0
    assert (net.adjacency == net.adjacency.T).all()
    assert (np.diag(net.adjacency) == 0).all()
    assert net.n_edges == 2
    assert tuple(net.degrees()) == (1, 2, 1)


@pytest.mark.parametrize("counts, message", [
    (np.zeros((2, 3), dtype=int), "shape"),
    (np.array([[0, 1], [0, 0]]), "symmetric"),
    (np.array([[1, 0], [0, 0]]), "diagonal"),
    (np.array([[0, -2], [-2, 0]]), "non-negative integers"),
    (np.array([[0, 0.5], [0.5, 0]]), "non-negative integers"),
])
def test_network_rejects_bad_pair_counts(counts, message):
    risks = tuple(Risk(f"r{i}", str(i), "x", "economic", 1.0, 0.2) for i in range(2))
    with pytest.raises(DataError, match=message):
        RiskNetwork("y", risks, counts)
    # the pair counts are the only edge data; the adjacency is derived from them
    assert [f.name for f in dataclasses.fields(RiskNetwork)] == ["year", "risks", "pair_counts"]
    net = RiskNetwork("y", risks, np.array([[0, 3], [3, 0]]))
    for arr in (net.pair_counts, net.adjacency):
        with pytest.raises(ValueError):
            arr[0, 1] = 0


def test_duplicate_risk_ids_rejected():
    r = Risk("a", "01", "x", "economic", 1.0, 0.2)
    with pytest.raises(DataError):
        build_network([r, r], [])


def test_pair_referencing_unknown_risk_rejected():
    net_risks = [Risk("a", "01", "x", "economic", 1.0, 0.2)]
    with pytest.raises(DataError):
        build_network(net_risks, [ExpertPairCount("a", "ghost", 1)])


def test_self_pair_rejected():
    with pytest.raises(DataError):
        ExpertPairCount("a", "a", 3)


def test_network_roundtrip(tmp_path):
    net = make_network([0.2, 0.35, 0.5], edges=[(0, 1), (0, 2)], counts=[2, 5], year="y")
    save_network(net, tmp_path / "risks.csv", tmp_path / "pairs.csv")
    back = load_network(
        tmp_path / "risks.csv", tmp_path / "pairs.csv", year="y", likelihood_scale=5.0
    )
    assert back.ids == net.ids
    assert np.allclose(back.likelihoods, net.likelihoods, atol=1e-15)
    assert (back.adjacency == net.adjacency).all()
    assert (back.pair_counts == net.pair_counts).all()


@pytest.mark.parametrize("form", ["wide", "long"])
def test_history_roundtrip(tmp_path, form):
    net = make_network([0.2, 0.3], edges=[(0, 1)])
    states = np.array([[0, 1, 1, 0], [1, 0, 0, 0]], dtype=np.uint8)
    hist = build_history(net, month_sequence("2011-01", 4), states)
    save_history(hist, tmp_path / "h.csv", form=form)
    back = load_history(tmp_path / "h.csv", net)
    assert back.months == hist.months
    assert (back.states == states).all()


def test_history_must_cover_network(tmp_path):
    net = make_network([0.2, 0.3], edges=[(0, 1)])
    other = make_network([0.2, 0.3, 0.4], edges=[(0, 1)])
    hist = build_history(other, month_sequence("2011-01", 2), np.zeros((3, 2), np.uint8))
    save_history(hist, tmp_path / "h.csv")
    with pytest.raises(DataError):
        load_history(tmp_path / "h.csv", net)


def test_with_states_replaces_only_states():
    net = make_network([0.2, 0.3])
    hist = build_history(net, month_sequence("2011-01", 3), np.zeros((2, 3), np.uint8))
    swapped = hist.with_states(np.ones((2, 3), np.uint8))
    assert swapped.months == hist.months
    assert swapped.states.all() and not hist.states.any()
