"""Acceptance gate: one test per advertised guarantee of the package.

Each test prints a single summary line with the measured value and its
limit, then asserts.  Everything here is seeded and deterministic; the
whole module is budgeted to run in a couple of minutes on a laptop.
"""

import itertools
import json
import math
import time
import warnings

import networkx as nx
import numpy as np
import pytest

from carpnet import (
    ExpertPairCount,
    ModelParams,
    Risk,
    build_history,
    build_network,
    category_influence,
    default_checkpoints,
    fit,
    forward_error_bounds,
    month_sequence,
    network_effect_comparison,
    normalize_likelihood,
    process_probabilities,
    recovery_experiment,
    risk_influence,
    run_cascades,
    sensitivity_suite,
    solve_steady_state,
)
from carpnet.cli import main as cli_main
from carpnet.rng import derive_rng
from conftest import CATEGORIES, FIXTURE_PARAMS, ROOT, deletion_influence, make_network
from oracles import exact_transition_matrix, stationary_distribution
from test_cli import rebuild_argv, toy_args

SMALL_GRAPHS = {
    "K1": (1, []),
    "K2": (2, [(0, 1)]),
    "P3": (3, [(0, 1), (1, 2)]),
    "K3": (3, [(0, 1), (1, 2), (0, 2)]),
    "P4": (4, [(0, 1), (1, 2), (2, 3)]),
    "star4": (4, [(0, 1), (0, 2), (0, 3)]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "paw": (4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "diamond": (4, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)]),
    "K4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
}
SMALL_L = np.array([0.2, 0.35, 0.3, 0.25])
PARAM_GRID = list(itertools.product([0.1, 0.3, 0.7], [0.05, 0.15, 0.4], [0.4, 1.0, 2.0]))


def report(n, ok, detail):
    print(f"[criterion {n:>2}] {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def recovery_report(fixture_network, fixture_history):
    t0 = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = recovery_experiment(
            fixture_network, fixture_history, FIXTURE_PARAMS,
            n_replicates=125, master_seed=2013,
        )
    return rep, time.monotonic() - t0


def test_01_conservation_identity():
    rng = np.random.default_rng(20130101)
    L = rng.uniform(1e-9, 1 - 1e-9, 10_000)
    gamma = 10.0 ** rng.uniform(-2, 1, 10_000)
    defect = 0.0
    for Li, gi in zip(L, gamma):
        p = process_probabilities(Li, ModelParams(0.5, 0.5, gi))
        defect = max(defect, abs(p.p_con + p.p_rec - 1.0))
    ok = defect <= 1e-15
    report(1, ok, f"worst |p_con + p_rec - 1| = {defect:.2e} (limit 1e-15) over 10^4 draws")
    assert ok


def test_02_steady_state_matches_exact_chain():
    """Fixed point vs the exact stationary distribution of the full 2^R chain."""
    t0 = time.monotonic()
    graphs = [(name, R, edges, 0.05) for name, (R, edges) in SMALL_GRAPHS.items()]
    # edgeless family: the approximation is exact
    graphs += [(f"edgeless{R}", R, [], 0.005) for R in (1, 2, 3, 4)]

    worst_connected, worst_edgeless, failures = 0.0, 0.0, []
    for name, R, edges, tol in graphs:
        net = make_network(SMALL_L[:R], edges=edges)
        bits = (np.arange(1 << R)[:, None] >> np.arange(R)) & 1
        for a, b, g in PARAM_GRID:
            T = exact_transition_matrix(net.adjacency, SMALL_L[:R], a, b, g)
            exact = stationary_distribution(T) @ bits
            ss = solve_steady_state(ModelParams(a, b, g), net)
            err = float(np.abs(ss.p_hat - exact).max())
            if name.startswith("edgeless"):
                worst_edgeless = max(worst_edgeless, err)
            else:
                worst_connected = max(worst_connected, err)
            if err > tol:
                failures.append((name, a, b, g, err))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed <= 120
    report(
        2, ok,
        f"worst gap {worst_connected:.4f} (limit 0.05) on {len(SMALL_GRAPHS)} connected graphs"
        f" x {len(PARAM_GRID)} triples; {worst_edgeless:.1e} (limit 0.005) edgeless;"
        f" {elapsed:.0f}s (limit 120s)",
    )
    assert not failures, failures
    assert elapsed <= 120


def test_03_residual_and_monotone_everywhere(toy_network, fixture_network):
    nets = [toy_network, fixture_network, toy_network.without_edges()]
    for R, edges in SMALL_GRAPHS.values():
        nets.append(make_network(SMALL_L[:R], edges=edges))
    worst = 0.0
    for net in nets:
        for a, b, g in ((0.1, 0.05, 0.4), (0.3, 0.15, 1.0), (0.7, 0.4, 2.0)):
            ss = solve_steady_state(ModelParams(a, b, g), net)
            worst = max(worst, ss.residual)
            assert ss.monotone
    ok = worst <= 1e-12
    report(3, ok, f"worst residual {worst:.2e} (limit 1e-12), monotone from 0 on {len(nets)} networks")
    assert ok


def test_04_recovery_bounds_on_fixture(recovery_report):
    rep, elapsed = recovery_report
    ok = (
        rep.activation_bound <= 0.30
        and rep.recovery_bound <= 0.20
        and rep.n_failed == 0
        and len(rep.retained) == 83
        and elapsed <= 1800
    )
    report(
        4, ok,
        f"125 replicates: activation bound {rep.activation_bound:.3f} (limit 0.30), "
        f"recovery bound {rep.recovery_bound:.3f} (limit 0.20), {elapsed:.0f}s (limit 1800s)",
    )
    assert ok


def test_05_recovery_error_shrinks_with_history(fixture_network):
    truth = np.array(FIXTURE_PARAMS.as_tuple())

    def one_error(T, seed):
        batch = run_cascades(
            fixture_network, FIXTURE_PARAMS,
            np.zeros(50, bool), T + 240, master_seed=seed,
            run_indices=np.array([0]), rng_path_prefix=(20,), keep_states=True,
        )
        hist = build_history(
            fixture_network, month_sequence("2000-01", T),
            batch.states[0][:, 241:],
        )
        fitted = fit(hist, fixture_network).params
        return np.abs(np.array(fitted.as_tuple()) / truth - 1).max()

    medians = []
    for T in (100, 400, 1600):
        medians.append(float(np.median([one_error(T, s) for s in range(12)])))
    ok = medians[0] > medians[1] > medians[2]
    report(5, ok, "median recovery error " + " > ".join(f"{m:.3f}" for m in medians)
           + " over T = 100, 400, 1600")
    assert ok


def _hub_network(seed=314):
    """Preferential-attachment graph: hubs make cascades visibly bursty."""
    g = nx.barabasi_albert_graph(50, 2, seed=seed)
    raw = np.round(derive_rng(seed, 0).uniform(0.9, 2.4, 50), 2)
    risks = [
        Risk(f"r{i + 1:02d}", f"{i + 1:02d}", f"Risk {i + 1}", CATEGORIES[i // 10],
             float(raw[i]), normalize_likelihood(float(raw[i]), 5.0))
        for i in range(50)
    ]
    crng = derive_rng(seed, 1)
    pairs = [
        ExpertPairCount(risks[u].id, risks[v].id, int(crng.integers(1, 7)))
        for u, v in sorted(g.edges())
    ]
    return build_network(risks, pairs)


def test_06_network_model_covers_its_own_histories_tighter():
    net = _hub_network()
    gen = ModelParams(0.05, 0.4, 1.0)
    wins, margins = 0, []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(10):
            batch = run_cascades(
                net, gen, np.zeros(50, bool), 600 + 240,
                master_seed=1000 + trial, run_indices=np.array([0]),
                rng_path_prefix=(21,), keep_states=True,
            )
            hist = build_history(
                net, month_sequence("2000-01", 600),
                batch.states[0][:, 241:],
            )
            rep = network_effect_comparison(net, hist, gen, runs=100, master_seed=500 + trial)
            wins += rep.m_network < rep.m_independent
            margins.append(rep.m_independent - rep.m_network)
    ok = wins >= 9
    report(6, ok, f"network model wins {wins}/10 trials (need >= 9); "
           f"median margin {np.median(margins):+.2f} std-multiples")
    assert ok


def test_07_forward_error_bounds(fixture_network, fixture_history, recovery_report):
    rep, _ = recovery_report
    sets = [ModelParams(*rep.params[i].tolist()) for i in rep.retained]
    fwd = forward_error_bounds(
        fixture_network, FIXTURE_PARAMS, sets,
        initial=fixture_history.states[:, -1].astype(bool),
        months=12, runs=100, master_seed=2013,
    )
    ok = fwd.worst_deviation <= 0.35
    report(7, ok, f"worst 12-month deviation {fwd.worst_deviation:.3f} (limit 0.35) "
           f"over {len(sets)} retained parameter sets")
    assert ok


def test_08_likelihood_cuts_outweigh_history_cuts(fixture_network, fixture_history):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sens = sensitivity_suite(
            fixture_network, fixture_history, FIXTURE_PARAMS,
            perturbation=0.1, master_seed=2013,
        )
    dominance = float(np.mean(np.abs(sens.single_likelihood) > np.abs(sens.single_history)))
    weakly_down = bool((sens.all_likelihood <= 1e-12).all())
    ok = dominance >= 0.80 and weakly_down
    report(8, ok, f"likelihood cut dominates for {dominance:.0%} of risks (need 80%); "
           f"all-likelihood cut weakly lowers every risk: {weakly_down}")
    assert ok


def test_09_influence_sanity(toy_network):
    params = ModelParams(0.4, 0.3, 1.2)

    bare = risk_influence(toy_network.without_edges(), params)
    off = ~np.eye(toy_network.n_risks, dtype=bool)
    edgeless_zero = bool((bare.values[off] == 0.0).all())

    disable = risk_influence(toy_network, params).values
    delete = deletion_influence(toy_network, params)
    path_gap = float(np.abs(disable[off] - delete[off]).max())

    cats = [CATEGORIES[0]] * 3 + [CATEGORIES[1]] * 3
    blocks = make_network(
        [0.25] * 6,
        edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        categories=cats,
    )
    cat = category_influence(risk_influence(blocks, params), blocks)
    a = cat.categories.index(CATEGORIES[0])
    b = cat.categories.index(CATEGORIES[1])
    cross_zero = cat.raw[a, b] == 0.0 and cat.raw[b, a] == 0.0

    ok = edgeless_zero and path_gap <= 1e-10 and cross_zero
    report(9, ok, f"edgeless influence all zero: {edgeless_zero}; knockout vs deletion "
           f"gap {path_gap:.1e} (limit 1e-10); disconnected categories cross-zero: {cross_zero}")
    assert ok


def test_10_trajectories_saturate_at_the_fixed_point(fixture_network):
    ss = solve_steady_state(FIXTURE_PARAMS, fixture_network)
    batch = run_cascades(
        fixture_network, FIXTURE_PARAMS, np.zeros(50, bool), 10_000,
        master_seed=2013, run_indices=range(1000), checkpoints=default_checkpoints(10_000),
    )
    cps = list(batch.checkpoints)
    freq = batch.checkpoint_frequency  # (checkpoint, run, risk)
    mean = freq.mean(axis=1)
    f3 = mean[cps.index(1000)]
    f4 = mean[cps.index(10_000)]
    drift = float(np.abs(f4 - f3).max())
    se = freq.std(axis=1, ddof=1)[cps.index(10_000)] / math.sqrt(1000)
    z = float((np.abs(f4 - ss.p_hat) / (3 * se)).max())
    ok = drift <= 0.02 and z <= 1.0
    report(10, ok, f"max drift 10^3 -> 10^4 steps {drift:.4f} (limit 0.02); "
           f"worst gap to fixed point {z:.2f} x its 3-SE budget at 1000 runs")
    assert ok


def test_11_manifest_reruns_are_byte_identical(tmp_path):
    sim = ["simulate", *toy_args("--params", "0.4,0.3,1.2", "--seed", "11",
                                 "--runs", "48", "--horizon", "300", out=tmp_path / "a")]
    assert cli_main([str(a) for a in sim]) == 0

    again = [str(a).replace(str(tmp_path / "a"), str(tmp_path / "b")) for a in sim]
    assert cli_main(again) == 0

    jobs8 = [str(a).replace(str(tmp_path / "a"), str(tmp_path / "c")) for a in sim]
    assert cli_main(jobs8 + ["--jobs", "8"]) == 0

    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert cli_main([str(a) for a in rebuild_argv(manifest, tmp_path / "d")]) == 0

    val = ["validate", "--experiment", "recovery",
           *toy_args("--history", ROOT / "data/toy/history.csv",
                     "--params", "0.4,0.3,1.2", "--seed", "5", "--replicates", "6",
                     out=tmp_path / "va")]
    assert cli_main([str(a) for a in val]) == 0
    val2 = [str(a).replace(str(tmp_path / "va"), str(tmp_path / "vb")) for a in val]
    assert cli_main(val2) == 0

    mismatches = []
    for first, second in (("a", "b"), ("a", "c"), ("a", "d"), ("va", "vb")):
        lhs, rhs = tmp_path / first, tmp_path / second
        names = sorted(p.name for p in lhs.iterdir())
        if names != sorted(p.name for p in rhs.iterdir()):
            mismatches.append((first, second, "file sets differ"))
            continue
        for name in names:
            if (lhs / name).read_bytes() != (rhs / name).read_bytes():
                mismatches.append((first, second, name))
    ok = not mismatches
    report(11, ok, "rerun, --jobs 8, manifest-rebuild, and validate rerun all byte-identical"
           if ok else f"mismatches: {mismatches}")
    assert ok
