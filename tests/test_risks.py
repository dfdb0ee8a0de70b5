import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given
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
)
from conftest import load_generator, make_network

make_fixture = load_generator()


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
    i, j, k = (net.ids.index(r) for r in ("r1", "r2", "r3"))
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
        RiskNetwork(risks, counts)
    # the pair counts are the only edge data; the adjacency is derived from them
    assert [f.name for f in dataclasses.fields(RiskNetwork)] == ["risks", "pair_counts"]
    net = RiskNetwork(risks, np.array([[0, 3], [3, 0]]))
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
    net = make_network([0.2, 0.35, 0.5], edges=[(0, 1), (0, 2)], counts=[2, 5])
    make_fixture.save_network(net, tmp_path / "risks.csv", tmp_path / "pairs.csv")
    back = load_network(tmp_path / "risks.csv", tmp_path / "pairs.csv", likelihood_scale=5.0)
    assert back.ids == net.ids
    assert np.allclose(back.likelihoods, net.likelihoods, atol=1e-15)
    assert (back.adjacency == net.adjacency).all()
    assert (back.pair_counts == net.pair_counts).all()


@st.composite
def histories(draw):
    """A random 0/1 matrix of 1-5 risks by 2-30 months and its start month."""
    n_risks, n_months = draw(st.integers(1, 5)), draw(st.integers(2, 30))
    start = f"{draw(st.integers(1990, 2030)):04d}-{draw(st.integers(1, 12)):02d}"
    cells = draw(st.lists(st.integers(0, 1), min_size=n_risks * n_months,
                          max_size=n_risks * n_months))
    return start, np.array(cells, dtype=np.uint8).reshape(n_risks, n_months)


@pytest.mark.parametrize("form", ["wide", "long"])
@given(drawn=histories())
@example(drawn=("2011-12", np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)))
def test_history_roundtrip(tmp_path_factory, form, drawn):
    start, states = drawn
    net = make_network([0.2] * states.shape[0])
    hist = build_history(net, month_sequence(start, states.shape[1]), states)
    path = tmp_path_factory.mktemp("history") / "h.csv"
    if form == "wide":
        make_fixture.save_history(hist, path)
    else:  # one row per cell, risk by risk, latest month first
        path.write_text("month,risk_id,state\n" + "".join(
            f"{m},{rid},{states[i, t]}\n"
            for i, rid in enumerate(hist.risk_ids)
            for t, m in reversed(list(enumerate(hist.months)))
        ), encoding="utf-8")
    back = load_history(path, net)
    assert back.months == hist.months
    assert (back.states == states).all()


@pytest.mark.parametrize("value", [256, 0.5, 1.7, -1, np.nan])
def test_built_history_rejects_states_other_than_0_and_1(value):
    """Checked before the cast to uint8, which would store 256 as 0 and 1.7 as 1."""
    states = np.zeros((2, 3))
    states[1, 2] = value
    with pytest.raises(DataError, match="0 or 1"):
        build_history(make_network([0.2, 0.3]), month_sequence("2011-01", 3), states)


def test_history_must_cover_network(tmp_path):
    net = make_network([0.2, 0.3], edges=[(0, 1)])
    other = make_network([0.2, 0.3, 0.4], edges=[(0, 1)])
    hist = build_history(other, month_sequence("2011-01", 2), np.zeros((3, 2), np.uint8))
    make_fixture.save_history(hist, tmp_path / "h.csv")
    with pytest.raises(DataError):
        load_history(tmp_path / "h.csv", net)


WIDE = "month,r1,r2\n"
LONG = "month,risk_id,state\n"


# Each malformed file, and a pattern for what its error message must name:
# the offending id, month label or line number.  "<file>" stands for the
# file's path, for faults that belong to no single cell.
@pytest.mark.parametrize("text, names", [
    pytest.param("", "<file>", id="wide-empty"),
    pytest.param(WIDE, r"\b0\b", id="wide-header-only"),
    pytest.param("date,r1,r2\n2010-01,0,1\n2010-02,1,0\n", "date", id="wide-first-column"),
    pytest.param("month,r1,r1,r2\n2010-01,0,1,1\n2010-02,1,0,0\n", "<file>",
                 id="wide-duplicate-column"),
    pytest.param(WIDE + "2010-01,0,1\n2010-02,1\n", r"line 3\b", id="wide-field-count"),
    pytest.param(WIDE + "2010-01,0,1\n2010-01,1,0\n2010-02,1,0\n", r"line 3\b",
                 id="wide-duplicate-month"),
    pytest.param(WIDE + "2010-01,0,1\n2010-02,0,2\n", "2010-02", id="wide-state-2"),
    pytest.param("month,r1,r2,r9\n2010-01,0,1,0\n2010-02,1,0,0\n", "r9",
                 id="wide-unknown-risk"),
    pytest.param("month,r1\n2010-01,0\n2010-02,1\n", "r2", id="wide-missing-risk"),
    pytest.param(WIDE + "2010-12,0,1\n2010-13,1,0\n", "2010-13", id="wide-month-13"),
    pytest.param(WIDE + "2010-01,0,1\n2010-03,1,0\n", "2010-03", id="wide-gap"),
    pytest.param(WIDE + "2010-01,0,1\n", r"\b1\b", id="wide-single-month"),
    pytest.param(LONG + "2010-01,r1,0\n2010-01,r2,1\n2010-01,r1,1\n"
                 "2010-02,r1,0\n2010-02,r2,0\n", r"line 4\b", id="long-duplicate-cell"),
    pytest.param(LONG + "2010-01,r1,0\n2010-01,r2,1\n2010-02,r1,0\n", "r2",
                 id="long-missing-cell"),
    pytest.param(LONG + "2010-01,r1,0\n2010-01,r2,1\n2010-01,r9,1\n"
                 "2010-02,r1,0\n2010-02,r2,0\n", "r9", id="long-unknown-risk"),
    pytest.param(LONG + "2010-01,r1,0\n2010-01,r2,x\n2010-02,r1,0\n2010-02,r2,0\n",
                 r"line 3\b", id="long-state-x"),
    pytest.param(LONG + "2010-01,r1,0\n2010-01,r2\n2010-02,r1,0\n2010-02,r2,0\n",
                 r"line 3\b", id="long-two-fields"),
    pytest.param(LONG + "2010-01,r1,0\n2010-01,r2,1\n2010-03,r1,0\n2010-03,r2,0\n",
                 "2010-03", id="long-gap"),
    pytest.param(LONG + "2010-1,r1,0\n2010-1,r2,1\n2010-02,r1,0\n2010-02,r2,0\n",
                 "'2010-1'", id="long-month-label"),
])
def test_malformed_history_is_rejected(tmp_path, text, names):
    path = tmp_path / "h.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as excinfo:
        load_history(path, make_network([0.2, 0.3]))
    assert re.search(names, str(excinfo.value).replace(str(path), "<file>"))


def test_csv_inputs_skip_blank_lines(tmp_path):
    net = make_network([0.2, 0.35, 0.5], edges=[(0, 1), (0, 2)], counts=[2, 5])
    hist = build_history(net, month_sequence("2011-01", 3), np.eye(3, dtype=np.uint8))
    paths = [tmp_path / name for name in ("risks.csv", "pairs.csv", "history.csv")]
    make_fixture.save_network(net, *paths[:2])
    make_fixture.save_history(hist, paths[2])
    for path in paths:  # a trailing blank line, and one after the header
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join([header, "\n", *rows, "\n"]), encoding="utf-8")
    back = load_network(*paths[:2], likelihood_scale=5.0)
    assert (back.pair_counts == net.pair_counts).all()
    assert (load_history(paths[2], back).states == hist.states).all()


def test_short_row_names_its_line_after_a_blank_line(tmp_path):
    path = tmp_path / "risks.csv"
    path.write_text("id,numeric_code,name,category,likelihood\n\n"
                    "r1,01,a,economic,2\nr2,02,b,economic\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"line 4: expected 5 fields, got 4"):
        load_network(path, path, likelihood_scale=5.0)
