"""Cascade dynamics: per-risk transition probabilities, synchronous state
updates, and batched Monte Carlo simulation.

Each risk alternates between passive (0) and active (1).  With normalized
likelihood L and rate exponents (alpha, beta, gamma), over one month a
passive risk activates internally with probability ``1 - (1-L)**alpha`` and
through each active neighbor with probability ``1 - (1-L)**beta``; with k
active neighbors the combined activation probability is therefore
``1 - (1-L)**(alpha + beta*k)``.  An active risk stays active with
probability ``1 - (1-L)**gamma`` and recovers with ``(1-L)**gamma``.
Updates are synchronous: every risk transitions based on the previous
month's active set.

The engine's one input is a :class:`RiskNetwork` snapshot: it reads the
co-mention adjacency and the likelihoods from the network, and draws
against the probabilities :func:`process_probabilities` returns for them.
Mean being-active frequencies over many runs come from
``trajectory_from_batch(run_cascades(..., checkpoints=...))``.

Randomness: internal and external activation are drawn separately (so the
cause of each activation is observable) and the risk activates if either
fired, which leaves the combined transition probability unchanged.  Each
run consumes exactly two uniforms per risk per step in a fixed order from
its own stream derived from (master seed, run index), so results never
depend on batching or worker count.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .rng import derive_rng
from .risks import RiskNetwork

_REFILL_STEPS = 64  # uniforms are drawn per run in blocks of this many steps


@dataclass(frozen=True)
class ModelParams:
    """Rate exponents for internal activation, amplification, and continuation."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise DataError(f"{name} must be finite and non-negative, got {v!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)


@dataclass(frozen=True)
class ProcessProbabilities:
    """Monthly event probabilities for one risk (or a vector of risks).

    ``p_con + p_rec == 1`` exactly: continuation is defined as the
    complement of recovery.
    """

    p_int: float | np.ndarray
    p_ext: float | np.ndarray
    p_con: float | np.ndarray
    p_rec: float | np.ndarray


def check_likelihoods(L, n_risks: int | None = None, *, allow_zero: bool = True) -> np.ndarray:
    """``L`` as a float array, checked to lie in [0, 1) -- (0, 1) without
    ``allow_zero`` -- and, given ``n_risks``, to have shape ``(n_risks,)``.

    Zero is the knockout value: a risk with ``L = 0`` can never activate.
    """
    arr = np.asarray(L, dtype=float)
    if n_risks is not None and arr.shape != (n_risks,):
        raise DataError(f"likelihood vector has shape {arr.shape}, expected ({n_risks},)")
    # NaN fails both comparisons, so this rejects every non-finite entry too.
    lo_ok = (arr >= 0.0) if allow_zero else (arr > 0.0)
    if not (lo_ok & (arr < 1.0)).all():
        bound = "[0, 1)" if allow_zero else "(0, 1)"
        raise DataError(f"normalized likelihood must lie in {bound}, got {L!r}")
    return arr


def process_probabilities(L, params: ModelParams) -> ProcessProbabilities:
    """Event probabilities for likelihood ``L`` (scalar or array) in (0, 1)."""
    arr = check_likelihoods(L, allow_zero=False)
    log1m = np.log1p(-arr)
    p_rec = np.exp(params.gamma * log1m)
    probs = ProcessProbabilities(
        p_int=-np.expm1(params.alpha * log1m),
        p_ext=-np.expm1(params.beta * log1m),
        p_con=1.0 - p_rec,
        p_rec=p_rec,
    )
    if np.ndim(L) == 0:
        return ProcessProbabilities(
            float(probs.p_int), float(probs.p_ext), float(probs.p_con), float(probs.p_rec)
        )
    return probs


@dataclass(frozen=True)
class CascadeBatch:
    """Results of a batch of independent simulation runs."""

    run_indices: tuple[int, ...]
    n_steps: int
    final_active: np.ndarray  # bool (n_runs, R)
    active_months: np.ndarray  # int (n_runs, R): months spent active
    activation_counts: np.ndarray  # int (n_runs, R): passive->active flips
    checkpoints: tuple[int, ...]
    checkpoint_frequency: np.ndarray | None  # float (n_cp, n_runs, R)
    states: np.ndarray | None  # uint8 (n_runs, R, n_steps)
    cause_counts: np.ndarray | None  # int (n_runs, 3): internal-only, external-only, both


def run_cascades(
    network: RiskNetwork,
    params: ModelParams,
    initial,
    n_steps: int,
    master_seed: int,
    run_indices: Sequence[int],
    *,
    rng_path_prefix: tuple[int, ...] = (),
    checkpoints: Sequence[int] | None = None,
    keep_states: bool = False,
    track_causes: bool = False,
) -> CascadeBatch:
    """Simulate many independent runs of the cascade on ``network``.

    Every run starts from the same ``(R,)`` state ``initial`` and steps
    the adjacency and likelihoods of ``network`` for ``n_steps`` months.
    Run ``r`` draws from the stream ``(master_seed, *rng_path_prefix, r)``
    and its output is a function of that stream alone, so splitting the runs
    across any number of workers reproduces identical results.
    ``checkpoints`` are distinct steps in ``[1, n_steps]``.
    """
    A = network.adjacency_float
    R = network.n_risks
    if n_steps < 1:
        raise DataError("n_steps must be >= 1")
    run_indices = tuple(int(r) for r in run_indices)
    n = len(run_indices)
    if n == 0:
        raise DataError("run_indices is empty")

    initial = np.asarray(initial, dtype=bool)
    if initial.shape != (R,):
        raise DataError(f"initial state must have shape ({R},), got {initial.shape}")
    active = np.broadcast_to(initial, (n, R)).copy()

    probs = process_probabilities(network.likelihoods, params)
    p_int, p_rec = probs.p_int, probs.p_rec
    beta_log1m = params.beta * np.log1p(-network.likelihoods)  # per-neighbor log-survival

    checkpoints = tuple(int(c) for c in (checkpoints or ()))
    if any(c < 1 or c > n_steps for c in checkpoints):
        raise DataError(f"checkpoints must lie in [1, {n_steps}], got {checkpoints}")
    if len(set(checkpoints)) != len(checkpoints):
        raise DataError(f"checkpoints must be distinct, got {checkpoints}")
    cp_lookup = {c: k for k, c in enumerate(checkpoints)}
    cp_freq = (
        np.zeros((len(checkpoints), n, R), dtype=float) if checkpoints else None
    )

    active_months = np.zeros((n, R), dtype=np.int64)
    activation_counts = np.zeros((n, R), dtype=np.int64)
    states = np.zeros((n, R, n_steps), dtype=np.uint8) if keep_states else None
    cause_counts = np.zeros((n, 3), dtype=np.int64) if track_causes else None

    gens = [derive_rng(master_seed, *rng_path_prefix, r) for r in run_indices]
    buf = np.empty((n, _REFILL_STEPS, 2, R), dtype=float)

    for t in range(n_steps):
        slot = t % _REFILL_STEPS
        if slot == 0:
            fill = min(_REFILL_STEPS, n_steps - t)
            for r in range(n):
                buf[r, :fill] = gens[r].random((fill, 2, R))
        u_a = buf[:, slot, 0, :]
        u_b = buf[:, slot, 1, :]

        k = active.astype(float) @ A
        ext_agg = -np.expm1(k * beta_log1m)
        int_fire = u_a < p_int
        ext_fire = u_b < ext_agg
        fired = int_fire | ext_fire
        activated = ~active & fired
        recovered = active & (u_a < p_rec)
        active = (active & ~recovered) | activated

        active_months += active
        activation_counts += activated
        if states is not None:
            states[:, :, t] = active
        if cause_counts is not None:
            both = activated & int_fire & ext_fire
            cause_counts[:, 0] += (activated & int_fire & ~ext_fire).sum(axis=1)
            cause_counts[:, 1] += (activated & ext_fire & ~int_fire).sum(axis=1)
            cause_counts[:, 2] += both.sum(axis=1)
        if cp_freq is not None and (t + 1) in cp_lookup:
            cp_freq[cp_lookup[t + 1]] = active_months / (t + 1)

    return CascadeBatch(
        run_indices=run_indices,
        n_steps=n_steps,
        final_active=active,
        active_months=active_months,
        activation_counts=activation_counts,
        checkpoints=checkpoints,
        checkpoint_frequency=cp_freq,
        states=states,
        cause_counts=cause_counts,
    )


def _run_cascades_worker(kwargs):
    return run_cascades(**kwargs)


def _merge_batches(parts: Sequence[CascadeBatch]) -> CascadeBatch:
    def cat(attr):
        vals = [getattr(p, attr) for p in parts]
        if vals[0] is None:
            return None
        axis = 1 if attr == "checkpoint_frequency" else 0
        return np.concatenate(vals, axis=axis)

    return CascadeBatch(
        run_indices=tuple(r for p in parts for r in p.run_indices),
        n_steps=parts[0].n_steps,
        final_active=cat("final_active"),
        active_months=cat("active_months"),
        activation_counts=cat("activation_counts"),
        checkpoints=parts[0].checkpoints,
        checkpoint_frequency=cat("checkpoint_frequency"),
        states=cat("states"),
        cause_counts=cat("cause_counts"),
    )


def run_cascades_parallel(
    network: RiskNetwork,
    params: ModelParams,
    initial,
    n_steps: int,
    master_seed: int,
    run_indices: Sequence[int],
    *,
    jobs: int = 1,
    **kwargs,
) -> CascadeBatch:
    """:func:`run_cascades`, optionally split over ``jobs`` worker processes.

    Each worker receives the network itself.  Output is identical for every
    ``jobs`` value: runs are partitioned into contiguous index blocks and
    reassembled in order.  At most one worker starts per usable CPU.
    """
    run_indices = tuple(int(r) for r in run_indices)
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:  # macOS and Windows cannot tell which CPUs the process may use
        usable = os.cpu_count() or 1
    jobs = min(jobs, len(run_indices), usable)
    if jobs <= 1:
        return run_cascades(
            network, params, initial, n_steps, master_seed, run_indices, **kwargs
        )
    from concurrent.futures import ProcessPoolExecutor  # ~30 ms to import; only pools need it
    splits = np.array_split(np.asarray(run_indices), jobs)
    tasks = [
        dict(
            network=network,
            params=params,
            initial=initial,
            n_steps=n_steps,
            master_seed=master_seed,
            run_indices=tuple(int(r) for r in chunk),
            **kwargs,
        )
        for chunk in splits
        if len(chunk)
    ]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(_run_cascades_worker, tasks))
    return _merge_batches(parts)


def default_checkpoints(horizon: int) -> tuple[int, ...]:
    """Powers of ten up to the horizon, plus the horizon itself."""
    cps = []
    p = 10
    while p <= horizon:
        cps.append(p)
        p *= 10
    if horizon not in cps:
        cps.append(horizon)
    return tuple(sorted(cps))


@dataclass(frozen=True)
class Trajectory:
    """Being-active frequencies f_i(t) at checkpoints, aggregated over runs.

    ``f_i(t)`` is the fraction of the first t simulated months risk i spent
    active; mean and sample standard deviation are across runs.
    """

    checkpoints: tuple[int, ...]
    mean_frequency: np.ndarray  # float (n_checkpoints, R)
    std_frequency: np.ndarray  # float (n_checkpoints, R), ddof=1


def trajectory_from_batch(batch: CascadeBatch) -> Trajectory:
    if batch.checkpoint_frequency is None:
        raise DataError("batch was run without checkpoints")
    freq = batch.checkpoint_frequency
    n = freq.shape[1]
    std = freq.std(axis=1, ddof=1) if n > 1 else np.zeros_like(freq[:, 0, :])
    return Trajectory(
        checkpoints=batch.checkpoints,
        mean_frequency=freq.mean(axis=1),
        std_frequency=std,
    )


@dataclass(frozen=True)
class ActivityStatistics:
    """Activity summaries of one or more binary risk-by-month trajectories."""

    freq_active: np.ndarray  # float (R,): fraction of months active, averaged over runs
    activations: np.ndarray  # float (R,): passive->active flips per run, averaged over runs
    mean_freq_active: float  # scalar: over risks and months (and runs)
    mean_activations: float  # scalar: flips per risk per run


def statistics_from_batch(batch: CascadeBatch) -> ActivityStatistics:
    """Activity statistics of a simulation batch (without storing states)."""
    freq_active = (batch.active_months / batch.n_steps).mean(axis=0)
    return ActivityStatistics(
        freq_active=freq_active,
        activations=batch.activation_counts.mean(axis=0),
        mean_freq_active=float((batch.active_months / batch.n_steps).mean()),
        mean_activations=float(batch.activation_counts.mean()),
    )
