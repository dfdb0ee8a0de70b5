"""Deterministic output serialization: CSV/JSON writers and run manifests.

Every float is written with 17 significant digits so artifacts are
byte-stable across reruns and platforms and values round-trip exactly.
JSON is emitted with sorted keys and no whitespace variation; non-finite
floats become ``null``.
"""
from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np


def _json_fragment(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_json_string(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append("null" if not math.isfinite(obj) else format(obj, ".17g"))
    elif isinstance(obj, Mapping):
        out.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if not first:
                out.append(",")
            first = False
            out.append(_json_string(key))
            out.append(":")
            _json_fragment(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _json_fragment(item, out)
        out.append("]")
    else:
        # numpy scalars and similar: fall back on their python equivalents
        if hasattr(obj, "item"):
            _json_fragment(obj.item(), out)
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _json_string(s: str) -> str:
    parts = ['"']
    for ch in s:
        if ch in _ESCAPES:
            parts.append(_ESCAPES[ch])
        elif ord(ch) < 0x20:
            parts.append(f"\\u{ord(ch):04x}")
        else:
            parts.append(ch)
    parts.append('"')
    return "".join(parts)


def dump_json(obj: Any) -> str:
    out: list[str] = []
    _json_fragment(obj, out)
    out.append("\n")
    return "".join(out)


def write_json(path, obj: Any) -> None:
    Path(path).write_text(dump_json(obj), encoding="utf-8", newline="\n")


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
