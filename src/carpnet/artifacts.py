"""Deterministic output serialization: CSV/JSON writers and run manifests.

Every float is written so that it reads back exactly and the bytes are
the same across reruns and platforms.  CSV floats carry 17 significant
digits.  JSON is the standard library's, with sorted keys, no whitespace
and Python's shortest round-trip float form (an integral float stays a
float, ``1.0``); non-finite floats become ``null``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np


def _plain(obj: Any) -> Any:
    """``obj`` as the dicts, lists and Python scalars that ``json`` writes.

    Mappings become dicts and tuples lists, numpy scalars their Python
    values, and non-finite floats ``None``.
    """
    if isinstance(obj, Mapping):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(item) for item in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_json(path, obj: Any) -> None:
    text = json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def _format_column(column: np.ndarray) -> list[str]:
    if column.dtype.kind == "f":
        return [format(x, ".17g") for x in column.tolist()]
    if column.dtype.kind == "b":
        return ["true" if x else "false" for x in column.tolist()]
    return [str(x) for x in column.tolist()]


def write_csv(path, columns: Mapping[str, Any]) -> None:
    """One CSV row per index of the equal-length ``columns``, headed by their names.

    Each column is converted once by its dtype: floats with 17 significant
    digits (``nan``, ``inf``, ``-inf`` for the non-finite ones), booleans
    as ``true``/``false``, everything else with ``str``.
    """
    cells = [_format_column(np.asarray(column)) for column in columns.values()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(zip(*cells, strict=True))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(
    out_dir,
    *,
    command: str,
    config: Mapping[str, Any],
    inputs: Mapping[str, Any],
    outputs: Iterable[str],
    seed: int | None,
    version: str,
) -> None:
    """Write ``manifest.json`` describing a CLI run.

    ``config`` holds every semantic option (execution details like the
    output directory or worker count are excluded so that reruns into a
    fresh directory produce byte-identical manifests); ``inputs`` maps role
    names to file paths, recorded together with their content hashes.
    """
    manifest = {
        "tool": "carpnet",
        "version": version,
        "command": command,
        "seed": seed,
        "config": dict(config),
        "inputs": {
            role: {"path": str(path), "sha256": sha256_file(path)}
            for role, path in inputs.items()
        },
        "outputs": sorted(outputs),
    }
    write_json(Path(out_dir) / "manifest.json", manifest)
