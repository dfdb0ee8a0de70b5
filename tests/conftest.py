from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from carpnet import (
    CATEGORIES,
    ExpertPairCount,
    ModelParams,
    Risk,
    RiskNetwork,
    TransitionSummary,
    build_network,
    load_history,
    load_network,
    solve_steady_states,
)
from carpnet.influence import _external_share

ROOT = Path(__file__).resolve().parent.parent

# Generator settings frozen alongside the bundled datasets (see
# scripts/make_fixture.py; regenerating with these values must reproduce
# the committed files byte for byte).
FIXTURE_PARAMS = ModelParams(alpha=0.3, beta=0.02, gamma=1.0)
TOY_PARAMS = ModelParams(alpha=0.4, beta=0.3, gamma=1.2)

settings.register_profile(
    "carpnet",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("carpnet")


def make_network(
    likelihoods,
    edges=(),
    counts=None,
    categories=None,
) -> RiskNetwork:
    """Build a small in-memory network with explicit normalized likelihoods."""
    likelihoods = list(likelihoods)
    n = len(likelihoods)
    risks = []
    for i, L in enumerate(likelihoods):
        cat = categories[i] if categories else CATEGORIES[i % len(CATEGORIES)]
        risks.append(
            Risk(
                id=f"r{i + 1}",
                numeric_code=f"{i + 1:02d}",
                name=f"risk {i + 1}",
                category=cat,
                raw_likelihood=float(L) * 5.5,
                normalized_likelihood=float(L),
            )
        )
    pairs = []
    for j, (u, v) in enumerate(edges):
        c = counts[j] if counts else 1
        pairs.append(ExpertPairCount(f"r{u + 1}", f"r{v + 1}", int(c)))
    return build_network(risks, pairs)


def row_loglik(summary: TransitionSummary, h: int = 0):
    """Row ``h`` of ``summary.loglik`` as a scalar function of one
    (alpha, beta, gamma) point."""
    def loglik(alpha, beta, gamma):
        point = (np.array([v], dtype=float) for v in (alpha, beta, gamma))
        return float(summary.loglik(np.array([h]), *point)[0])
    return loglik


def history_loglik(history, params: ModelParams, network: RiskNetwork) -> float:
    """The log-likelihood of one history at ``params``."""
    return row_loglik(TransitionSummary(history.states[None], network))(*params.as_tuple())


def load_generator():
    """Import ``scripts/make_fixture.py``, which holds the data writers."""
    spec = importlib.util.spec_from_file_location(
        "make_fixture", ROOT / "scripts" / "make_fixture.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def external_fraction(params: ModelParams, network: RiskNetwork, *, L=None) -> np.ndarray:
    """Per-risk external share of steady-state transitions, one solve at a time.

    The reference for ``risk_influence``'s batched shares: the library's
    share of the single steady state solved with ``L`` (the network's
    likelihoods by default), NaN where a risk makes no transitions.
    """
    L = network.likelihoods if L is None else np.asarray(L)
    p = solve_steady_states(params, network, [L])[0].p_hat
    return _external_share(p[None, :], params, network, L[None, :])[0]


def deletion_influence(network: RiskNetwork, params: ModelParams) -> np.ndarray:
    """Influence matrix with each risk deleted from the network outright.

    The reference for ``risk_influence``, which instead disables a risk by
    zeroing its likelihood; the two provably coincide.  NaN diagonal.
    """
    R = network.n_risks
    base = external_fraction(params, network)
    values = np.full((R, R), np.nan)
    for i in range(R):
        keep = [j for j in range(R) if j != i]
        sub = RiskNetwork(
            risks=tuple(network.risks[j] for j in keep),
            pair_counts=network.pair_counts[np.ix_(keep, keep)],
        )
        values[i, keep] = base[keep] - external_fraction(params, sub)
    return values


@pytest.fixture(scope="session")
def toy_network():
    return load_network(
        ROOT / "data/toy/risks.csv",
        ROOT / "data/toy/pairs.csv",
        likelihood_scale=5.0,
    )


@pytest.fixture(scope="session")
def toy_history(toy_network):
    return load_history(ROOT / "data/toy/history.csv", toy_network)


@pytest.fixture(scope="session")
def fixture_network():
    return load_network(
        ROOT / "data/synthetic_2013/risks.csv",
        ROOT / "data/synthetic_2013/pairs.csv",
        likelihood_scale=5.0,
    )


@pytest.fixture(scope="session")
def fixture_history(fixture_network):
    return load_history(ROOT / "data/synthetic_2013/history.csv", fixture_network)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
