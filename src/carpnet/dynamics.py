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
Mean being-active frequencies over many runs at each checkpoint are
``run_cascades(..., checkpoints=...).checkpoint_frequency.mean(axis=1)``.

Randomness: internal and external activation are drawn separately (so the
cause of each activation is observable) and the risk activates if either
fired, which leaves the combined transition probability unchanged.  Each
run consumes exactly two uniforms per risk per step in a fixed order from
its own stream derived from (master seed, run index), so results never
depend on batching or worker count.

Paired parameter sets share each run's draws: run ``r`` of every set reads
the same uniforms, drawn once.  A block of at most ``_RUN_BLOCK`` (set, run)
rows reuses one set of step buffers.  A run's uniforms are drawn
``_REFILL_STEPS`` steps at a time, so the uniform buffer holds at most
``_RUN_BLOCK * _REFILL_STEPS * 2 * R`` doubles (3.3 MB at R = 50) whatever
the number of runs or sets.  The blocks change no result.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .errors import DataError
from .rng import check_integer, derive_rng
from .risks import RiskNetwork, check_states

# Uniforms are drawn per run in blocks of this many steps.  The uint8 month
# counters are flushed at every refill, so it must stay below 256.
_REFILL_STEPS = 16
_RUN_BLOCK = 256  # (set, run) rows stepped at a time, which bounds the uniform buffer


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
    """Event probabilities for likelihood ``L`` (scalar or array) in (0, 1).

    A scalar ``L`` gives numpy float64 scalars, a subclass of ``float``.
    """
    log1m = np.log1p(-check_likelihoods(L, allow_zero=False))
    p_rec = np.exp(params.gamma * log1m)
    return ProcessProbabilities(
        p_int=-np.expm1(params.alpha * log1m),
        p_ext=-np.expm1(params.beta * log1m),
        p_con=1.0 - p_rec,
        p_rec=p_rec,
    )


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
    states: np.ndarray | None  # uint8 (n_runs, R, n_steps + 1); month 0 is ``initial``
    cause_counts: np.ndarray | None  # int (n_runs, 3): internal-only, external-only, both


def run_cascades(
    network: RiskNetwork,
    params: ModelParams | Sequence[ModelParams],
    initial,
    n_steps: int,
    master_seed: int,
    run_indices: Sequence[int],
    *,
    rng_path_prefix: tuple[int, ...] = (),
    checkpoints: Sequence[int] | None = None,
    keep_states: bool = False,
    track_causes: bool = False,
) -> CascadeBatch | list[CascadeBatch]:
    """Simulate many independent runs of the cascade on ``network``.

    Every run starts from the same ``(R,)`` state ``initial`` and steps
    the adjacency and likelihoods of ``network`` for ``n_steps`` months.
    Run ``r`` draws from the stream ``(master_seed, *rng_path_prefix, r)``
    and its output is a function of that stream alone, so splitting the runs
    across any number of workers reproduces identical results.
    ``checkpoints`` are distinct steps in ``[1, n_steps]``.

    ``params`` is one :class:`ModelParams`, giving one batch, or a sequence
    of S, giving a list of S batches that step on the same draws: batch
    ``s`` equals a lone call at ``params[s]``, paired with the others.
    """
    sets = [params] if isinstance(params, ModelParams) else list(params)
    if not sets:
        raise DataError("params is an empty sequence")
    R = network.n_risks
    n_steps = check_integer(n_steps, "n_steps")
    if n_steps < 1:
        raise DataError("n_steps must be >= 1")
    run_indices = tuple(check_integer(r, "run index") for r in run_indices)
    n = len(run_indices)
    if n == 0:
        raise DataError("run_indices is empty")

    initial = np.asarray(initial)
    if initial.shape != (R,):
        raise DataError(f"initial state must have shape ({R},), got {initial.shape}")
    initial = check_states(initial).astype(bool)

    # one (1, R) row of each rate per set, broadcast over a block's runs;
    # beta_log1m is the per-neighbor log-survival
    probs = [process_probabilities(network.likelihoods, p) for p in sets]
    p_int = np.array([q.p_int for q in probs])[:, None]
    p_rec = np.array([q.p_rec for q in probs])[:, None]
    beta_log1m = np.array([p.beta for p in sets])[:, None, None] * np.log1p(-network.likelihoods)

    checkpoints = () if checkpoints is None else tuple(
        check_integer(c, "checkpoint") for c in checkpoints)
    if any(c < 1 or c > n_steps for c in checkpoints):
        raise DataError(f"checkpoints must lie in [1, {n_steps}], got {checkpoints}")
    if len(set(checkpoints)) != len(checkpoints):
        raise DataError(f"checkpoints must be distinct, got {checkpoints}")
    cp_lookup = {c: k for k, c in enumerate(checkpoints)}

    # every output is set-major, so each set's part is one contiguous array
    shape = (len(sets), n, R)
    cp_freq = np.zeros((len(sets), len(checkpoints), n, R)) if checkpoints else None
    final_active = np.broadcast_to(initial, shape).copy()
    active_months = np.zeros(shape, dtype=np.int64)
    activation_counts = np.zeros(shape, dtype=np.int64)
    states = np.zeros((*shape, n_steps + 1), dtype=np.uint8) if keep_states else None
    cause_counts = np.zeros((len(sets), n, 3), dtype=np.int64) if track_causes else None
    if states is not None:
        states[..., 0] = initial

    # Neighbour counts are integers <= R, which float32 holds exactly below
    # 2**24, so a float32 matmul gives the same k as a float64 one.
    A32 = network.adjacency.astype(np.float32)
    block = max(1, _RUN_BLOCK // len(sets))
    for lo in range(0, n, block):
        rows = slice(lo, lo + block)
        _step_block(
            [derive_rng(master_seed, *rng_path_prefix, r) for r in run_indices[rows]],
            n_steps, A32, p_int, p_rec, beta_log1m, cp_lookup,
            final_active[:, rows], active_months[:, rows], activation_counts[:, rows],
            None if cp_freq is None else cp_freq[:, :, rows],
            None if states is None else states[:, rows],
            None if cause_counts is None else cause_counts[:, rows],
        )

    arrays = dict(final_active=final_active, active_months=active_months,
                  activation_counts=activation_counts, checkpoint_frequency=cp_freq,
                  states=states, cause_counts=cause_counts)
    batches = [
        CascadeBatch(run_indices=run_indices, n_steps=n_steps, checkpoints=checkpoints,
                     **{name: None if a is None else a[s] for name, a in arrays.items()})
        for s in range(len(sets))
    ]
    return batches[0] if isinstance(params, ModelParams) else batches


def _step_block(
    gens, n_steps, A32, p_int, p_rec, beta_log1m, cp_lookup,
    active, active_months, activation_counts, cp_freq, states, cause_counts,
) -> None:
    """Step the runs of ``gens`` under every set for ``n_steps`` months,
    writing in place.

    The arrays from ``active`` on are this block's (set, run) rows of
    :func:`run_cascades`' outputs (``None`` where not asked for); ``active``
    holds the initial state on entry and the final state on return.  Every
    set reads each run's uniforms, and every step reuses the same buffers.

    The rates are copied to full (S, b, R) shape once: numpy steps a
    contiguous operand faster than a broadcast row, and a float64 copy of
    the float32 neighbour counts (exact) skips a buffered cast in the
    multiply.  Months, activations and their causes are counted in uint8
    windows, flushed into the int64 outputs at every refill and before every
    checkpoint.
    """
    S, b, R = active.shape
    buf = np.empty((b, _REFILL_STEPS, 2, R), dtype=float)
    p_int, p_rec, beta_log1m = (np.broadcast_to(x, (S, b, R)).copy()
                                for x in (p_int, p_rec, beta_log1m))
    act32 = np.empty((S, b, R), dtype=np.float32)
    k = np.empty((S, b, R), dtype=np.float32)
    ext_agg = np.empty((S, b, R), dtype=float)
    int_fire, ext_fire, fired, activated, stay = np.empty((5, S, b, R), dtype=bool)
    months_window, activations_window = np.zeros((2, S, b, R), dtype=np.uint8)
    if cause_counts is not None:  # internal only, external only, both
        causes = np.empty((3, S, b, R), dtype=bool)
        causes_window = np.zeros((3, S, b, R), dtype=np.uint8)

    for t in range(n_steps):
        slot = t % _REFILL_STEPS
        if slot == 0:
            fill = min(_REFILL_STEPS, n_steps - t)
            for r, gen in enumerate(gens):
                gen.random(out=buf[r, :fill])
        u_a = buf[:, slot, 0, :]
        u_b = buf[:, slot, 1, :]

        np.copyto(act32, active)
        np.matmul(act32, A32, out=k)
        np.copyto(ext_agg, k)
        np.multiply(ext_agg, beta_log1m, out=ext_agg)
        np.negative(np.expm1(ext_agg, out=ext_agg), out=ext_agg)
        np.less(u_a, p_int, out=int_fire)
        np.less(u_b, ext_agg, out=ext_fire)
        np.logical_or(int_fire, ext_fire, out=fired)
        np.greater(fired, active, out=activated)  # fired while passive
        np.greater_equal(u_a, p_rec, out=stay)  # an active risk does not recover
        np.logical_and(active, stay, out=active)
        np.logical_or(active, activated, out=active)

        months_window += active.view(np.uint8)
        activations_window += activated.view(np.uint8)
        if cause_counts is not None:  # an activation fired internally, externally or both
            np.greater(activated, ext_fire, out=causes[0])
            np.greater(activated, int_fire, out=causes[1])
            np.logical_and(activated, int_fire, out=causes[2])
            np.logical_and(causes[2], ext_fire, out=causes[2])
            causes_window += causes.view(np.uint8)
        if slot == _REFILL_STEPS - 1 or t + 1 == n_steps or t + 1 in cp_lookup:
            active_months += months_window
            activation_counts += activations_window
            months_window.fill(0)
            activations_window.fill(0)
            if cause_counts is not None:
                cause_counts += causes_window.sum(axis=-1, dtype=np.int64).transpose(1, 2, 0)
                causes_window.fill(0)
        if states is not None:
            states[..., t + 1] = active
        if cp_freq is not None and (t + 1) in cp_lookup:
            np.divide(active_months, t + 1, out=cp_freq[:, cp_lookup[t + 1]])


def _merge_batches(parts: Sequence[CascadeBatch]) -> CascadeBatch:
    """The runs of ``parts`` as one batch, in order: every per-run array is
    stacked along its run axis (1 for ``checkpoint_frequency``, else 0)."""
    stacked = {
        f.name: np.concatenate([getattr(p, f.name) for p in parts],
                               axis=int(f.name == "checkpoint_frequency"))
        for f in fields(CascadeBatch)
        if isinstance(getattr(parts[0], f.name), np.ndarray)
    }
    run_indices = tuple(r for p in parts for r in p.run_indices)
    return replace(parts[0], run_indices=run_indices, **stacked)


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
    reassembled in order.  At most one worker starts per usable CPU; ``jobs``
    must be an integer of at least 1 (else DataError).
    """
    if (jobs := check_integer(jobs, "jobs")) < 1:
        raise DataError(f"jobs must be at least 1, got {jobs}")
    run_indices = tuple(check_integer(r, "run index") for r in run_indices)
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:  # macOS and Windows cannot tell which CPUs the process may use
        usable = os.cpu_count() or 1
    jobs = min(jobs, len(run_indices), usable)
    runs = functools.partial(run_cascades, network, params, initial, n_steps, master_seed,
                             **kwargs)
    if jobs <= 1:
        return runs(run_indices)
    from concurrent.futures import ProcessPoolExecutor  # ~30 ms to import; only pools need it
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return _merge_batches(list(pool.map(runs, np.array_split(run_indices, jobs))))


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
class ActivityStatistics:
    """Activity summaries of one or more binary risk-by-month trajectories."""

    freq_active: np.ndarray  # float (R,): fraction of months active, averaged over runs
    activations: np.ndarray  # float (R,): passive->active flips per run, averaged over runs
    mean_freq_active: float  # scalar: over risks and months (and runs)
    mean_activations: float  # scalar: flips per risk per run


def statistics_from_batch(batch: CascadeBatch) -> ActivityStatistics:
    """Activity statistics of a simulation batch (without storing states)."""
    freq = batch.active_months / batch.n_steps
    return ActivityStatistics(
        freq_active=freq.mean(axis=0),
        activations=batch.activation_counts.mean(axis=0),
        mean_freq_active=float(freq.mean()),
        mean_activations=float(batch.activation_counts.mean()),
    )
