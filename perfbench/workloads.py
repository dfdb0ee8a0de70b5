"""The benchmark's four workloads: the carpnet command each one runs and the
checks its output must pass.

Every workload runs on the bundled fixture ``data/synthetic_2013`` (50
risks, 209 edges, 156 months).  The stochastic workloads (``recovery`` and
``cascade``) take their carpnet ``--seed`` from a bank of ``SEED_BANK``
seeds: the benchmark seed picks one (``seed % SEED_BANK``), so every input
the benchmark can generate has a reference output recorded in
``reference.json`` (written by ``record.py``).  ``pipeline`` and
``influence_critical`` have no randomness; their inputs are the same for
every benchmark seed.

This module uses only the standard library, so the parent process can
import it without loading numpy.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

NAMES = ("recovery", "cascade", "influence_critical", "pipeline")

FIXTURE = "data/synthetic_2013"
INPUT_FILES = tuple(f"{FIXTURE}/{name}.csv" for name in ("risks", "pairs", "history"))
SCALE = 5  # survey scale of the fixture's likelihood column (fixture.json)
PARAMS = "0.3,0.02,1.0"  # the parameters the fixture history was generated with
CRITICAL_PARAMS = "0.00001,0.08,3"  # just below the contagion threshold
SEED_BANK = 8

# Fitted parameters may move by this much relative to the reference: the
# gate an exact MLE must meet against the current grid-plus-simplex fit.
FIT_RTOL = 1e-5
# Influence values near the threshold may move by this much.  The current
# solver's own error there is about 2.4e-9 in influence (against
# Newton-polished fixed points; limit gaps reach 2e-10), so this is about
# 20 times that error, not tighter than it.
INFLUENCE_ATOL = 5e-8

REFERENCE = Path(__file__).with_name("reference.json")


def cli_seed(seed: int) -> int:
    return seed % SEED_BANK


def uses_history(workload: str) -> bool:
    return workload in ("recovery", "pipeline")


def argv(workload: str, seed: int) -> list[str]:
    """The carpnet command line of one repetition, without ``--out``."""
    net = ["--risks", f"{FIXTURE}/risks.csv", "--pairs", f"{FIXTURE}/pairs.csv",
           "--scale", str(SCALE)]
    history = ["--history", f"{FIXTURE}/history.csv"]
    seeded = ["--seed", str(cli_seed(seed)), "--jobs", "1"]
    if workload == "recovery":
        return ["validate", "--experiment", "recovery", *net, *history,
                "--params", PARAMS, "--replicates", "125", *seeded]
    if workload == "cascade":
        return ["simulate", *net, "--params", PARAMS,
                "--runs", "1000", "--horizon", "2000", *seeded]
    if workload == "influence_critical":
        return ["influence", *net, "--params", CRITICAL_PARAMS]
    if workload == "pipeline":
        return ["pipeline", *net, *history]
    raise ValueError(f"unknown workload {workload!r}")


def reference_key(workload: str, seed: int) -> str:
    if workload in ("recovery", "cascade"):
        return f"{workload}/seed{cli_seed(seed)}"
    return workload


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_dir(out: Path) -> dict[str, str]:
    """SHA-256 of every file in an output directory, by file name."""
    return {p.name: sha256(p) for p in sorted(out.iterdir())}


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _fit_params(payload: dict) -> dict[str, float]:
    return {name: float(payload[name]) for name in ("alpha", "beta", "gamma")}


def observe(workload: str, out: Path) -> dict:
    """The checked quantities of one repetition's output directory."""
    if workload == "recovery":
        summary = json.loads((out / "recovery.json").read_text())
        rows = _rows(out / "recovery_replicates.csv")
        return {
            "n_replicates": summary["n_replicates"],
            "n_failed": summary["n_failed"],
            **{name: [float(r[name]) for r in rows] for name in ("alpha", "beta", "gamma")},
        }
    if workload == "cascade":
        return {name: sha256(out / name) for name in ("trajectory.csv", "statistics.csv")}
    if workload == "influence_critical":
        return {"influence": [float(r["influence"]) for r in _rows(out / "influence.csv")]}
    if workload == "pipeline":
        return _fit_params(json.loads((out / "fit.json").read_text()))
    raise ValueError(f"unknown workload {workload!r}")


def _rel_err(got: float, want: float) -> float:
    if got == want:
        return 0.0
    err = abs(got - want) / abs(want) if want else math.inf
    return math.inf if math.isnan(err) else err


def check(workload: str, got: dict, want: dict) -> list[str]:
    """Differences between an observation and its reference, as messages."""
    if workload == "cascade":
        return [f"{name} differs from the recorded digest"
                for name in want if got[name] != want[name]]
    if workload == "influence_critical":
        got_v, want_v = got["influence"], want["influence"]
        if len(got_v) != len(want_v):
            return [f"influence.csv has {len(got_v)} values, expected {len(want_v)}"]
        worst = max(abs(g - w) for g, w in zip(got_v, want_v))
        if not worst <= INFLUENCE_ATOL:
            return [f"influence values differ by up to {worst:.3g} (tolerance {INFLUENCE_ATOL:g})"]
        return []
    failures = []
    if workload == "recovery":
        if got["n_failed"] != 0:
            failures.append(f"{got['n_failed']} replicate refits failed")
        pairs = [(name, g, w) for name in ("alpha", "beta", "gamma")
                 for g, w in zip(got[name], want[name])]
        if len(got["alpha"]) != len(want["alpha"]):
            failures.append(f"{len(got['alpha'])} replicates, expected {len(want['alpha'])}")
    else:
        pairs = [(name, got[name], want[name]) for name in ("alpha", "beta", "gamma")]
    worst = max((_rel_err(g, w), name) for name, g, w in pairs)
    if not worst[0] <= FIT_RTOL:
        failures.append(
            f"fitted {worst[1]} differs by {worst[0]:.3g} relative (tolerance {FIT_RTOL:g})"
        )
    return failures


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
