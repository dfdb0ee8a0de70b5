"""Record the reference outputs the benchmark checks every repetition against.

Run from the root of a carpnet checkout:

    python3 perfbench/record.py

It runs ``recovery`` and ``cascade`` once for each seed of the bank
(``workloads.SEED_BANK``) and the two unseeded workloads once, and writes
``perfbench/reference.json``.  Re-record only for a change that is meant to
move carpnet's outputs beyond the checks' tolerances, and say so in that
change.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import workloads

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.path.insert(0, "src")


def rounded(workload: str, observed: dict) -> dict:
    """Drop digits far below the checks' tolerances to keep the file small."""
    if workload == "influence_critical":
        return {"influence": [round(v, 12) for v in observed["influence"]]}
    return {key: _ten_digits(value) for key, value in observed.items()}


def _ten_digits(value):
    if isinstance(value, list):
        return [_ten_digits(v) for v in value]
    return float(f"{value:.10g}") if isinstance(value, float) else value


def main() -> int:
    import carpnet.cli

    reference = {}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for workload in workloads.NAMES:
            seeded = workload in ("recovery", "cascade")
            for seed in range(workloads.SEED_BANK) if seeded else (0,):
                out = Path(tmp) / f"{workload}-{seed}"
                code = carpnet.cli.main([*workloads.argv(workload, seed), "--out", str(out)])
                if code != 0:
                    print(f"{workload} seed {seed}: carpnet exited with {code}", file=sys.stderr)
                    return 1
                observed = workloads.observe(workload, out)
                reference[workloads.reference_key(workload, seed)] = rounded(workload, observed)
                print(f"recorded {workloads.reference_key(workload, seed)}")
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(reference.items())]
    workloads.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
