"""Risk catalogs, expert-pair networks, and historical event matrices.

CSV contracts (all UTF-8, comma-separated, one header row):

* risks:   ``id,numeric_code,name,category,likelihood``
* pairs:   ``risk_a,risk_b,count`` -- undirected expert co-mention counts
* history: long form ``month,risk_id,state`` (one row per cell) or wide form
  ``month,<id1>,<id2>,...`` (one row per month).  Either way each
  (month, risk) cell appears exactly once, states are ``0`` or ``1``, months
  are contiguous ``YYYY-MM`` labels in any row order, and the risks are
  exactly the network's

A network is one year's snapshot.  Its only edge data is the symmetric
``pair_counts`` matrix: any positive count makes an unweighted edge
(``adjacency``), and the dynamics never read the counts themselves.
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

CATEGORIES = ("economic", "environmental", "geopolitical", "societal", "technological")

_MONTH_RE = re.compile(r"^(\d{4})-(0[1-9]|1[0-2])$")


def normalize_likelihood(raw: float, scale_max: float, epsilon: float = 0.5) -> float:
    """Map a survey likelihood score onto the open interval (0, 1).

    Returns ``raw / (scale_max + epsilon)``.  The positive epsilon keeps the
    result strictly below 1 so that powers of ``1 - L`` and their logarithms
    stay finite for every risk, including one scored at the top of the scale.

    Raises:
        DataError: if ``epsilon <= 0``, ``scale_max <= 0``, or ``raw`` falls
            outside ``(0, scale_max]``.
    """
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise DataError(f"epsilon must be positive and finite, got {epsilon!r}")
    if not math.isfinite(scale_max) or scale_max <= 0.0:
        raise DataError(f"scale_max must be positive and finite, got {scale_max!r}")
    if not math.isfinite(raw) or raw <= 0.0 or raw > scale_max:
        raise DataError(
            f"likelihood score {raw!r} outside the admissible range (0, {scale_max}]"
        )
    return raw / (scale_max + epsilon)


def month_sequence(start: str, n_months: int) -> tuple[str, ...]:
    """Return ``n_months`` consecutive YYYY-MM labels beginning at ``start``."""
    m = _MONTH_RE.match(start)
    if m is None:
        raise DataError(f"month label {start!r} is not of the form YYYY-MM")
    if n_months < 1:
        raise DataError("month_sequence needs n_months >= 1")
    year, month = int(m.group(1)), int(m.group(2))
    labels = []
    for _ in range(n_months):
        labels.append(f"{year:04d}-{month:02d}")
        month += 1
        if month == 13:
            month = 1
            year += 1
    return tuple(labels)


@dataclass(frozen=True)
class Risk:
    """One survey risk for a given year."""

    id: str
    numeric_code: str
    name: str
    category: str
    raw_likelihood: float
    normalized_likelihood: float

    def __post_init__(self):
        if not self.id:
            raise DataError("risk id must be non-empty")
        if self.category not in CATEGORIES:
            raise DataError(
                f"risk {self.id!r} has unknown category {self.category!r}; "
                f"expected one of {CATEGORIES}"
            )
        L = self.normalized_likelihood
        if not math.isfinite(L) or not 0.0 < L < 1.0:
            raise DataError(
                f"risk {self.id!r} normalized likelihood {L!r} outside the open interval (0, 1)"
            )


@dataclass(frozen=True)
class ExpertPairCount:
    """Number of expert surveys naming an (undirected) pair of risks together."""

    risk_a: str
    risk_b: str
    count: int

    def __post_init__(self):
        if self.risk_a == self.risk_b:
            raise DataError(f"pair count for {self.risk_a!r} paired with itself")
        if self.count < 0:
            raise DataError(
                f"pair ({self.risk_a!r}, {self.risk_b!r}) has negative count {self.count}"
            )


@dataclass(frozen=True, eq=False)
class RiskNetwork:
    """Immutable snapshot of one year's risks and their co-mention network."""

    risks: tuple[Risk, ...]
    pair_counts: np.ndarray  # int (R, R)

    def __post_init__(self):
        n = len(self.risks)
        if n == 0:
            raise DataError("risk catalog is empty")
        counts = self.pair_counts
        if counts.shape != (n, n):
            raise DataError(f"pair_counts must have shape ({n}, {n}), got {counts.shape}")
        if counts.dtype.kind not in "iu" or (counts < 0).any():
            raise DataError(f"pair_counts must be non-negative integers, got dtype "
                            f"{counts.dtype} with minimum {counts.min()}")
        if not np.array_equal(counts, counts.T):
            raise DataError("pair_counts must be symmetric")
        if np.diagonal(counts).any():
            raise DataError("pair_counts must have a zero diagonal")
        counts.setflags(write=False)

    @property
    def n_risks(self) -> int:
        return len(self.risks)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.risks)

    @cached_property
    def categories(self) -> tuple[str, ...]:
        return tuple(r.category for r in self.risks)

    @cached_property
    def likelihoods(self) -> np.ndarray:
        v = np.array([r.normalized_likelihood for r in self.risks], dtype=float)
        v.setflags(write=False)
        return v

    @cached_property
    def adjacency(self) -> np.ndarray:
        a = self.pair_counts > 0
        a.setflags(write=False)
        return a

    @cached_property
    def adjacency_float(self) -> np.ndarray:
        a = self.adjacency.astype(float)
        a.setflags(write=False)
        return a

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1).astype(int)

    @property
    def n_edges(self) -> int:
        return int(self.adjacency.sum()) // 2

    def without_edges(self) -> "RiskNetwork":
        """Copy of this network with every edge removed."""
        return RiskNetwork(self.risks, np.zeros_like(self.pair_counts))


def build_network(risks: Sequence[Risk], pairs: Iterable[ExpertPairCount]) -> RiskNetwork:
    """Assemble a RiskNetwork from parsed rows, validating referential integrity."""
    risks = tuple(risks)
    if not risks:
        raise DataError("risk catalog is empty")
    ids = [r.id for r in risks]
    dup = {i for i in ids if ids.count(i) > 1}
    if dup:
        raise DataError(f"duplicate risk ids: {sorted(dup)}")
    index = {rid: i for i, rid in enumerate(ids)}

    n = len(risks)
    counts = np.zeros((n, n), dtype=int)
    seen: set[tuple[int, int]] = set()
    for pc in pairs:
        for rid in (pc.risk_a, pc.risk_b):
            if rid not in index:
                raise DataError(f"pair references unknown risk id {rid!r}")
        i, j = index[pc.risk_a], index[pc.risk_b]
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DataError(f"duplicate pair ({pc.risk_a!r}, {pc.risk_b!r})")
        seen.add(key)
        counts[i, j] = counts[j, i] = pc.count
    return RiskNetwork(risks=risks, pair_counts=counts)


def _read_csv(
    path, kind: str, expected: tuple[str, ...] | None = None
) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header of a CSV input and its ``(line, row)`` pairs.

    The header must equal ``expected`` when that is given.  Blank lines are
    skipped, every other row must have as many fields as the header, and
    ``line`` is the row's last line in the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{kind} file {path} is empty")
            if expected is not None and tuple(header) != expected:
                raise DataError(
                    f"{kind} file {path} has header {header}, expected {list(expected)}"
                )
            rows = []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{kind} file {path} line {reader.line_num}: "
                                    f"expected {len(header)} fields, got {len(row)}")
                rows.append((reader.line_num, row))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {kind} file {path}: {exc}") from exc
    return header, rows


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"{what}: {text!r} is not a number") from None


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataError(f"{what}: {text!r} is not an integer") from None


def load_risks(
    path, *, likelihood_scale: float | None = None, epsilon: float = 0.5
) -> tuple[Risk, ...]:
    """Read a risk catalog CSV.

    With ``likelihood_scale`` given, the likelihood column holds raw survey
    scores that are normalized via :func:`normalize_likelihood`.  With
    ``likelihood_scale=None`` the column is taken as already normalized and
    must lie strictly inside (0, 1).
    """
    _, rows = _read_csv(path, "risks", ("id", "numeric_code", "name", "category", "likelihood"))
    risks = []
    for _, (rid, numeric_code, name, category, likelihood) in rows:
        raw = _parse_float(likelihood, f"risk {rid!r} likelihood")
        if likelihood_scale is None:
            normalized = raw
        else:
            normalized = normalize_likelihood(raw, likelihood_scale, epsilon)
        risks.append(
            Risk(
                id=rid,
                numeric_code=numeric_code,
                name=name,
                category=category,
                raw_likelihood=raw,
                normalized_likelihood=normalized,
            )
        )
    return tuple(risks)


def load_pairs(path) -> tuple[ExpertPairCount, ...]:
    _, rows = _read_csv(path, "pairs", ("risk_a", "risk_b", "count"))
    return tuple(
        ExpertPairCount(a, b, _parse_int(count, f"pair ({a}, {b}) count"))
        for _, (a, b, count) in rows
    )


def load_network(
    risks_path, pairs_path, *, likelihood_scale: float | None = None, epsilon: float = 0.5
) -> RiskNetwork:
    risks = load_risks(risks_path, likelihood_scale=likelihood_scale, epsilon=epsilon)
    return build_network(risks, load_pairs(pairs_path))


@dataclass(frozen=True, eq=False)
class HistoryMatrix:
    """Binary risk-by-month activity matrix over contiguous months."""

    risk_ids: tuple[str, ...]
    months: tuple[str, ...]
    states: np.ndarray  # uint8 (R, T)

    def __post_init__(self):
        R, T = len(self.risk_ids), len(self.months)
        if T < 2:
            raise DataError(f"history needs at least 2 months, got {T}")
        if self.states.shape != (R, T):
            raise DataError(f"states must have shape ({R}, {T}), got {self.states.shape}")
        check_states(self.states)
        expected = month_sequence(self.months[0], T)
        if tuple(self.months) != expected:
            t = next(t for t, (a, b) in enumerate(zip(self.months, expected)) if a != b)
            raise DataError(
                f"months must be contiguous YYYY-MM labels: {self.months[t]!r} follows "
                f"{self.months[t - 1]!r}, expected {expected[t]!r} "
                "(gaps are rejected, not imputed)"
            )
        self.states.setflags(write=False)

    @property
    def n_risks(self) -> int:
        return len(self.risk_ids)

    @property
    def n_months(self) -> int:
        return len(self.months)


def build_history(
    network: RiskNetwork, months: Sequence[str], states: np.ndarray
) -> HistoryMatrix:
    """Construct a history aligned to ``network``'s risk order."""
    return HistoryMatrix(network.ids, tuple(months), check_states(states).astype(np.uint8))


def check_states(states) -> np.ndarray:
    """``states`` as an array, checked to hold only 0 and 1: call it before a
    cast to uint8 or bool, which would wrap 256 to 0 or read 0.5 as 1.  It
    checks 32 slices of the first axis at a time, which bounds the memory."""
    states = np.atleast_1d(states)
    blocks = (states[lo:lo + 32] for lo in range(0, len(states), 32))
    if not all(((block == 0) | (block == 1)).all() for block in blocks):
        raise DataError("states must be 0 or 1")
    return states


def load_history(path, network: RiskNetwork) -> HistoryMatrix:
    """Read a history CSV (long or wide form) and align it to ``network``.

    Both forms are read into one ``month -> {risk_id: state}`` table.  A
    cell given twice, a row with the wrong field count or a state other
    than ``0``/``1`` is rejected at its line (blank lines are skipped, as
    in every CSV input); each month must then cover
    exactly the network's risks.  The months may come in any row order;
    :class:`HistoryMatrix` checks that they are contiguous ``YYYY-MM``
    labels.
    """
    header, rows = _read_csv(path, "history")
    if header[:1] != ["month"]:
        raise DataError(f"history file {path}: first column must be 'month', got {header[:1]}")
    long_form = header[1:] == ["risk_id", "state"]

    table: dict[str, dict[str, bool]] = {}
    for line, row in rows:
        where = f"history file {path} line {line}"
        month = row[0]
        cells = table.setdefault(month, {})
        for risk_id, state in [row[1:]] if long_form else zip(header[1:], row[1:]):
            if risk_id in cells:
                raise DataError(f"{where}: duplicate cell for {risk_id!r} in {month}")
            if state not in ("0", "1"):
                raise DataError(
                    f"{where}: state of {risk_id!r} in {month} must be 0 or 1, got {state!r}"
                )
            cells[risk_id] = state == "1"

    months = tuple(sorted(table))
    ids = set(network.ids)
    for month in months:
        if table[month].keys() != ids:
            unknown = sorted(table[month].keys() - ids)
            missing = [rid for rid in network.ids if rid not in table[month]]
            raise DataError(
                f"history file {path}: month {month} must cover exactly the network's "
                f"risks; unknown {unknown}, missing {missing}"
            )
    states = np.array([[table[m][rid] for m in months] for rid in network.ids], dtype=np.uint8)
    return HistoryMatrix(network.ids, months, states)
