#!/usr/bin/env python3
"""Regenerate the committed datasets under data/.

Two datasets are produced:

* data/toy: six risks, hand-picked likelihoods and edges, 36 months of
  simulated history.  Small enough to eyeball; used in the README and the
  CLI tests.
* data/synthetic_2013: a 50-risk network with 10 risks per category and
  average degree of about 8, plus 156 months (13 years) of history
  simulated from known ground-truth parameters after a 240-month burn-in.
  The validation-protocol tests and several acceptance checks run on it.

Everything is deterministic; a drift-guard test regenerates both datasets
and compares them byte-for-byte against the committed files, so any edit
here must be intentional and committed together with the data.
"""
from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from carpnet import (
    CATEGORIES,
    ExpertPairCount,
    HistoryMatrix,
    ModelParams,
    Risk,
    RiskNetwork,
    build_history,
    build_network,
    compute_properties,
    month_sequence,
    normalize_likelihood,
    run_cascades,
)
from carpnet.artifacts import write_csv, write_json
from carpnet.rng import derive_rng

FIXTURE_SEED = 20130101
FIXTURE_PARAMS = ModelParams(alpha=0.3, beta=0.02, gamma=1.0)
FIXTURE_SCALE = 5.0
FIXTURE_MONTHS = 156
FIXTURE_BURNIN = 240
FIXTURE_DEGREE = 8.0

TOY_SEED = 77
TOY_PARAMS = ModelParams(alpha=0.4, beta=0.3, gamma=1.2)
TOY_MONTHS = 36
TOY_BURNIN = 60


def save_network(network: RiskNetwork, risks_path, pairs_path) -> None:
    """Write a network back to the risks/pairs CSV formats.

    The likelihood column holds the raw scores, so a reload with the same
    normalization settings reproduces the network exactly.
    """
    ids, risks = np.array(network.ids), network.risks
    write_csv(risks_path, {
        "id": ids,
        "numeric_code": [r.numeric_code for r in risks],
        "name": [r.name for r in risks],
        "category": network.categories,
        "likelihood": np.array([r.raw_likelihood for r in risks], dtype=float),
    })
    a, b = np.nonzero(np.triu(network.pair_counts))
    write_csv(pairs_path, {"risk_a": ids[a], "risk_b": ids[b], "count": network.pair_counts[a, b]})


def save_history(history: HistoryMatrix, path) -> None:
    """Write a history in wide form: a ``month`` column plus one column per risk."""
    write_csv(path, {"month": history.months, **dict(zip(history.risk_ids, history.states))})


def _simulated_history(network, params, seed, months, burnin):
    initial = np.zeros(network.n_risks, dtype=bool)
    burn = run_cascades(
        network, params, initial, burnin, seed, [0],
        rng_path_prefix=(10,),
    )
    start = burn.final_active[0]
    rest = run_cascades(
        network, params, start, months - 1, seed, [0],
        rng_path_prefix=(11,), keep_states=True,
    )
    labels = month_sequence("2000-01", months)
    return build_history(network, labels, rest.states[0])


def make_synthetic_2013(root: Path) -> None:
    out = root / "data" / "synthetic_2013"
    out.mkdir(parents=True, exist_ok=True)

    rng = derive_rng(FIXTURE_SEED, 0)
    raws = np.round(rng.uniform(0.9, 2.4, size=50), 2)
    risks = []
    for i in range(50):
        category = CATEGORIES[i // 10]
        risks.append(
            Risk(
                id=f"r{i + 1:02d}",
                numeric_code=f"{i + 1:02d}",
                name=f"{category.capitalize()} risk {i % 10 + 1}",
                category=category,
                raw_likelihood=float(raws[i]),
                normalized_likelihood=normalize_likelihood(float(raws[i]), FIXTURE_SCALE),
            )
        )

    p_edge = FIXTURE_DEGREE / 49.0
    for attempt in range(100):
        g = derive_rng(FIXTURE_SEED, 1, attempt)
        upper = g.random((50, 50)) < p_edge
        adjacency = np.triu(upper, k=1)
        adjacency = adjacency | adjacency.T
        if compute_properties(RiskNetwork(tuple(risks), adjacency.astype(int))).connected:
            break
    else:
        raise RuntimeError("no connected graph found in 100 attempts")
    counts = derive_rng(FIXTURE_SEED, 2).integers(1, 7, size=(50, 50))

    pairs = []
    for i in range(50):
        for j in range(i + 1, 50):
            if adjacency[i, j]:
                pairs.append(
                    ExpertPairCount(risks[i].id, risks[j].id, int(counts[i, j]))
                )

    network = build_network(tuple(risks), tuple(pairs))
    history = _simulated_history(
        network, FIXTURE_PARAMS, FIXTURE_SEED, FIXTURE_MONTHS, FIXTURE_BURNIN
    )

    save_network(network, out / "risks.csv", out / "pairs.csv")
    save_history(history, out / "history.csv")
    write_json(out / "fixture.json", {
        "seed": FIXTURE_SEED,
        "params": {
            "alpha": FIXTURE_PARAMS.alpha,
            "beta": FIXTURE_PARAMS.beta,
            "gamma": FIXTURE_PARAMS.gamma,
        },
        "likelihood_scale": FIXTURE_SCALE,
        "epsilon": 0.5,
        "n_risks": network.n_risks,
        "n_edges": network.n_edges,
        "months": FIXTURE_MONTHS,
        "burnin_months": FIXTURE_BURNIN,
        "generator": "scripts/make_fixture.py",
    })
    active = history.states.mean()
    print(f"synthetic_2013: {network.n_edges} edges, "
          f"mean degree {2 * network.n_edges / 50:.2f}, "
          f"active fraction {active:.3f}")


def make_toy(root: Path) -> None:
    out = root / "data" / "toy"
    out.mkdir(parents=True, exist_ok=True)

    spec = [
        ("r01", "01", "Trade imbalance", "economic", 1.8),
        ("r02", "02", "Asset bubble", "economic", 2.6),
        ("r03", "03", "Extreme weather", "environmental", 3.1),
        ("r04", "04", "Regional conflict", "geopolitical", 2.2),
        ("r05", "05", "Health crisis", "societal", 1.4),
        ("r06", "06", "Infrastructure failure", "technological", 2.9),
    ]
    risks = tuple(
        Risk(
            id=rid, numeric_code=code, name=name, category=cat,
            raw_likelihood=raw,
            normalized_likelihood=normalize_likelihood(raw, FIXTURE_SCALE),
        )
        for rid, code, name, cat, raw in spec
    )
    pairs = (
        ExpertPairCount("r01", "r02", 3),
        ExpertPairCount("r01", "r04", 2),
        ExpertPairCount("r02", "r03", 1),
        ExpertPairCount("r02", "r05", 2),
        ExpertPairCount("r03", "r06", 4),
        ExpertPairCount("r04", "r05", 2),
        ExpertPairCount("r05", "r06", 1),
    )
    network = build_network(risks, pairs)
    history = _simulated_history(network, TOY_PARAMS, TOY_SEED, TOY_MONTHS, TOY_BURNIN)
    history = build_history(
        network, month_sequence("2010-01", TOY_MONTHS), history.states
    )

    save_network(network, out / "risks.csv", out / "pairs.csv")
    save_history(history, out / "history.csv")
    print(f"toy: {network.n_edges} edges, active fraction {history.states.mean():.3f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", default=str(Path(__file__).resolve().parent.parent),
        help="repository root (default: the checkout containing this script)",
    )
    args = parser.parse_args()
    root = Path(args.root)
    make_toy(root)
    make_synthetic_2013(root)


if __name__ == "__main__":
    main()
