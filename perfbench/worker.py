"""Benchmark worker: runs one workload in-process through carpnet.cli.main.

run.py starts it in a fresh interpreter with the BLAS thread counts pinned
and the checkout's ``src`` first on ``PYTHONPATH``:

    python3 perfbench/worker.py setup WORKLOAD
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE WORKDIR

``setup`` imports carpnet, loads the workload's network (and history)
and prints the time on the monotonic clock, which run.py compares with
the time it started the interpreter.  ``run`` makes one warm-up
repetition, then repeats the workload's command, each time into a fresh
``--out``, until SECONDS have passed.  With TRACE 1 it alternates untraced
and traced repetitions.  Every repetition's output is checked, and the
last line printed is one JSON object with the measurements.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import workloads

RNG_BLOCK_STEPS = 64  # run_cascades draws each run's uniforms in blocks of this many steps
MIN_TRACED_RUNS = 2


def setup(workload: str) -> None:
    import carpnet

    network = carpnet.load_network(
        f"{workloads.FIXTURE}/risks.csv", f"{workloads.FIXTURE}/pairs.csv",
        likelihood_scale=workloads.SCALE,
    )
    if workloads.uses_history(workload):
        carpnet.load_history(f"{workloads.FIXTURE}/history.csv", network)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def draw_streams(streams) -> float:
    """Seconds to draw the uniforms of ``streams`` without the cascade kernel.

    Each stream is drawn from the same ``derive_rng`` generators, in the same
    block shape, as ``run_cascades`` draws it.
    """
    import numpy as np
    from carpnet.rng import derive_rng

    start = time.perf_counter()
    for master_seed, prefix, runs, n_steps, n_risks in streams:
        gens = [derive_rng(master_seed, *prefix, r) for r in runs]
        buf = np.empty((len(runs), RNG_BLOCK_STEPS, 2, n_risks))
        for t in range(0, n_steps, RNG_BLOCK_STEPS):
            fill = min(RNG_BLOCK_STEPS, n_steps - t)
            for r, gen in enumerate(gens):
                buf[r, :fill] = gen.random((fill, 2, n_risks))
    return time.perf_counter() - start


class Runner:
    """Runs and checks the repetitions of one workload."""

    def __init__(self, workload: str, seed: int, work: Path, tracer):
        import carpnet.cli

        self.cli = carpnet.cli
        self.workload = workload
        self.argv = workloads.argv(workload, seed)
        self.reference = workloads.load_reference()[workloads.reference_key(workload, seed)]
        self.work = work
        self.tracer = tracer
        self.first_digest = None
        self.attempted = 0
        self.failed = 0
        self.nonunique_warnings = 0
        self.artifact_bytes = 0

    def repeat(self, k: int, traced: bool) -> float:
        """Run repetition ``k`` into a fresh directory, check it, return its wall time."""
        out = self.work / f"rep{k}"
        argv = [*self.argv, "--out", str(out)]
        if traced:
            self.tracer.install(run_id=k)
        crash = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # a crash is one failed operation, not the end of the run
                code, crash = None, traceback.format_exc()
            wall = time.perf_counter() - start
        if traced:
            self.tracer.uninstall()
        self.nonunique_warnings += sum("not unique" in str(w.message) for w in caught)
        self._check(k, out, code, crash)
        shutil.rmtree(out, ignore_errors=True)
        return wall

    def _check(self, k: int, out: Path, code, crash) -> None:
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(crash or f"carpnet exited with code {code}")
        else:
            digest = workloads.digest_dir(out)
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                changed = sorted(n for n in digest.keys() | self.first_digest.keys()
                                 if digest.get(n) != self.first_digest.get(n))
                problems.append(f"output differs from the first repetition's: {changed}")
            got = workloads.observe(self.workload, out)
            problems += workloads.check(self.workload, got, self.reference)
            if self.workload == "recovery":
                self.attempted += got["n_replicates"]
                self.failed += got["n_failed"]
            self.artifact_bytes = sum(p.stat().st_size for p in out.iterdir())
        if problems:
            self.failed += 1
            print(f"repetition {k} failed: " + "; ".join(problems), file=sys.stderr)


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from tracing import Tracer

    tracer = Tracer() if trace else None
    runner = Runner(workload, seed, work, tracer)
    runner.repeat(0, traced=False)  # warm-up

    walls, traced_walls, traced_runs = [], [], []
    k = 1
    begin = time.perf_counter()
    while True:
        if trace:
            # alternate which of the pair goes first
            for traced in (False, True) if len(walls) % 2 == 0 else (True, False):
                (traced_walls if traced else walls).append(runner.repeat(k, traced))
                if traced:
                    traced_runs.append(k)
                k += 1
        else:
            walls.append(runner.repeat(k, traced=False))
            k += 1
        if time.perf_counter() - begin >= seconds and (
            not trace or len(traced_runs) >= MIN_TRACED_RUNS
        ):
            break

    result = {
        "walls": walls,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "nonunique_warnings": runner.nonunique_warnings,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "env": environment(),
    }
    if trace:
        first = traced_runs[0]
        draw_s = draw_streams([s[1:] for s in tracer.streams if s[0] == first])
        result["traced_walls"] = traced_walls
        result["layers"] = tracer.metrics(
            traced_runs,
            rng_draw_s=draw_s,
            artifact_bytes=runner.artifact_bytes,
            overhead_frac=statistics.median(traced_walls) / statistics.median(walls) - 1.0,
        )
        tracer.dump(work.parent / f"spans-{workload}-seed{seed}.jsonl")
    return result


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        setup(argv[1])
        print(time.monotonic())
        return 0
    workload, seed, seconds, trace, work = argv[1:]
    result = run(workload, int(seed), float(seconds), trace == "1", Path(work))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
