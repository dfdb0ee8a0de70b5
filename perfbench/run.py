"""carpnet benchmark: times each workload end to end, or layer by layer.

Run from the root of a carpnet checkout:

    python3 perfbench/run.py --workload recovery --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` reports the per-layer metrics of a
separate traced run.  ``--workload all`` runs every workload both ways.
The last line printed is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md beside this file for what each
workload and metric is for.

This process uses only the standard library.  The workload itself runs in
a child interpreter (worker.py) whose BLAS and OpenMP thread counts are
pinned to 1.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import UNITS

HERE = Path(__file__).resolve().parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7
DEADLINE_S = 170.0  # a run must end within 180 s
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict[str, str]:
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, **PINNED, "PYTHONPATH": path}


def worker(args: list[str], env, deadline: float, **kwargs) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          timeout=remaining, **kwargs)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args[:2])} exited with code {proc.returncode}")
    return proc


def setup_seconds(workload: str, env, deadline: float) -> list[float]:
    """Seconds from starting fresh interpreters until each has imported carpnet
    and loaded the workload's inputs.

    The probe prints when it finished on the system-wide monotonic clock.
    Timing its exit from here instead would add the up-to-50 ms polling step
    of ``subprocess.run(timeout=...)``.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = worker(["setup", workload], env, deadline, stdout=subprocess.PIPE, text=True)
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> dict:
    env = child_env(root)
    base = root / ".perfbench_work"
    work = base / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = [] if trace else setup_seconds(workload, env, deadline)
        proc = worker(["run", workload, str(seed), str(seconds), str(int(trace)), str(work)],
                      env, deadline, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in UNITS.items()}
    else:
        values = {"wall_s": statistics.median(result["walls"]),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {"result": result, "setup": setup, "metrics": metrics}


def report(workload: str, seed: int, trace: bool, m: dict) -> None:
    """Print the human-readable lines that precede the JSON result."""
    r = m["result"]
    walls = r["walls"]
    print(f"env: {json.dumps(r['env'], sort_keys=True)}")
    print(f"workload {workload}, seed {seed} (carpnet --seed {workloads.cli_seed(seed)}"
          f" where seeded), trace {int(trace)}: "
          f"{' '.join(workloads.argv(workload, seed))}")
    if trace:
        print(f"  {len(r['traced_walls'])} traced and {len(walls)} untraced repetitions "
              f"after one warm-up; spans in .perfbench_work/spans-{workload}-seed{seed}.jsonl")
    else:
        tail = ""
        if len(walls) >= 100:  # at least ten samples beyond the 90th percentile
            tail = f", p90 {statistics.quantiles(walls, n=10)[-1]:.6g} s"
        print(f"  wall_s: median of {len(walls)} repetitions after one warm-up{tail}")
        print(f"  setup_s: median of {len(m['setup'])} fresh interpreters")
    for name, metric in m["metrics"].items():
        print(f"  {name:32s} {metric['value']:<14.6g} {metric['unit']}")
    print(f"  {'error_rate':32s} {r['failed'] / r['attempted']:<14.6g} 1"
          f"   ({r['failed']} failed of {r['attempted']} operations)")
    if r["nonunique_warnings"]:
        print(f"  steady-state non-uniqueness warnings: {r['nonunique_warnings']}"
              f" over {r['attempted']} operations")


def summary(runs: list[dict], metrics: dict) -> str:
    attempted = sum(m["result"]["attempted"] for m in runs)
    failed = sum(m["result"]["failed"] for m in runs)
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    missing = [p for p in ("src/carpnet/__init__.py", *workloads.INPUT_FILES)
               if not (root / p).is_file()]
    if missing:
        print(f"error: run from the root of a carpnet checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        plan = [(w, t) for w in workloads.NAMES for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    runs, metrics = [], {}
    try:
        for workload, trace in plan:
            # each workload run gets the full per-run deadline
            m = measure(root, workload, args.seed, args.seconds, trace,
                        time.monotonic() + DEADLINE_S)
            report(workload, args.seed, trace, m)
            runs.append(m)
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + name: v for name, v in m["metrics"].items()})
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary(runs, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
