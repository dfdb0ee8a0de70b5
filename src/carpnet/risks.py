"""Risk catalogs, expert-pair networks, and historical event matrices.

CSV contracts (all UTF-8, comma-separated, one header row):

* risks:   ``id,numeric_code,name,category,likelihood``
* pairs:   ``risk_a,risk_b,count`` -- undirected expert co-mention counts
* history: long form ``month,risk_id,state`` with month as ``YYYY-MM`` and
  state in {0,1}, or wide form ``month,<id1>,<id2>,...`` with one row per
  month

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


def _next_month(label: str) -> str:
    return month_sequence(label, 2)[1]


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

    year: str
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

    @cached_property
    def _index(self) -> dict[str, int]:
        return {r.id: i for i, r in enumerate(self.risks)}

    def index_of(self, risk_id: str) -> int:
        try:
            return self._index[risk_id]
        except KeyError:
            raise DataError(f"unknown risk id {risk_id!r}") from None

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1).astype(int)

    @property
    def n_edges(self) -> int:
        return int(self.adjacency.sum()) // 2

    def without_edges(self) -> "RiskNetwork":
        """Copy of this network with every edge removed."""
        return RiskNetwork(self.year, self.risks, np.zeros_like(self.pair_counts))


def build_network(
    risks: Sequence[Risk], pairs: Iterable[ExpertPairCount], year: str = ""
) -> RiskNetwork:
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
    return RiskNetwork(year=year, risks=risks, pair_counts=counts)


def _read_rows(path, expected_fields: tuple[str, ...], kind: str) -> list[dict[str, str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames
            if header is None:
                raise DataError(f"{kind} file {path} is empty")
            if tuple(header) != expected_fields:
                raise DataError(
                    f"{kind} file {path} has header {header}, expected {list(expected_fields)}"
                )
            rows = []
            for line_no, row in enumerate(reader, start=2):
                if any(v is None for v in row.values()) or None in row:
                    raise DataError(f"{kind} file {path} line {line_no}: wrong field count")
                rows.append(row)
            return rows
    except OSError as exc:
        raise DataError(f"cannot read {kind} file {path}: {exc}") from exc


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
    rows = _read_rows(path, ("id", "numeric_code", "name", "category", "likelihood"), "risks")
    risks = []
    for row in rows:
        raw = _parse_float(row["likelihood"], f"risk {row['id']!r} likelihood")
        if likelihood_scale is None:
            normalized = raw
        else:
            normalized = normalize_likelihood(raw, likelihood_scale, epsilon)
        risks.append(
            Risk(
                id=row["id"],
                numeric_code=row["numeric_code"],
                name=row["name"],
                category=row["category"],
                raw_likelihood=raw,
                normalized_likelihood=normalized,
            )
        )
    return tuple(risks)


def load_pairs(path) -> tuple[ExpertPairCount, ...]:
    rows = _read_rows(path, ("risk_a", "risk_b", "count"), "pairs")
    return tuple(
        ExpertPairCount(
            risk_a=row["risk_a"],
            risk_b=row["risk_b"],
            count=_parse_int(row["count"], f"pair ({row['risk_a']}, {row['risk_b']}) count"),
        )
        for row in rows
    )


def load_network(
    risks_path,
    pairs_path,
    *,
    year: str = "",
    likelihood_scale: float | None = None,
    epsilon: float = 0.5,
) -> RiskNetwork:
    risks = load_risks(risks_path, likelihood_scale=likelihood_scale, epsilon=epsilon)
    pairs = load_pairs(pairs_path)
    return build_network(risks, pairs, year=year)


def save_network(network: RiskNetwork, risks_path, pairs_path) -> None:
    """Write a network back to the risks/pairs CSV formats.

    The likelihood column holds the raw scores, so a reload with the same
    normalization settings reproduces the network exactly.
    """
    with open(risks_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "numeric_code", "name", "category", "likelihood"])
        for r in network.risks:
            writer.writerow(
                [r.id, r.numeric_code, r.name, r.category, format(r.raw_likelihood, ".17g")]
            )
    with open(pairs_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["risk_a", "risk_b", "count"])
        ids = network.ids
        counts = network.pair_counts
        for i in range(network.n_risks):
            for j in range(i + 1, network.n_risks):
                if counts[i, j] > 0:
                    writer.writerow([ids[i], ids[j], str(int(counts[i, j]))])


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
        if not np.isin(self.states, (0, 1)).all():
            raise DataError("history states must be 0 or 1")
        for label in self.months:
            if _MONTH_RE.match(label) is None:
                raise DataError(f"month label {label!r} is not of the form YYYY-MM")
        for a, b in zip(self.months, self.months[1:]):
            if _next_month(a) != b:
                raise DataError(
                    f"months must be contiguous: {b!r} does not follow {a!r} "
                    "(gaps are rejected, not imputed)"
                )
        self.states.setflags(write=False)

    @property
    def n_risks(self) -> int:
        return len(self.risk_ids)

    @property
    def n_months(self) -> int:
        return len(self.months)

    def with_states(self, states: np.ndarray) -> "HistoryMatrix":
        return HistoryMatrix(self.risk_ids, self.months, np.array(states, dtype=np.uint8))


def build_history(
    network: RiskNetwork, months: Sequence[str], states: np.ndarray
) -> HistoryMatrix:
    """Construct a history aligned to ``network``'s risk order."""
    return HistoryMatrix(network.ids, tuple(months), np.array(states, dtype=np.uint8))


def _parse_state(text: str, where: str) -> int:
    if text == "0":
        return 0
    if text == "1":
        return 1
    raise DataError(f"{where}: state must be 0 or 1, got {text!r}")


def load_history(path, network: RiskNetwork) -> HistoryMatrix:
    """Read a history CSV (long or wide form) and align it to ``network``.

    The matrix must be complete: every (month, risk) cell present exactly
    once, months contiguous, every column id known to the network and every
    network risk covered.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"history file {path} is empty") from None
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read history file {path}: {exc}") from exc

    if not header or header[0] != "month":
        raise DataError(f"history file {path}: first column must be 'month', got {header[:1]}")
    if header[1:] == ["risk_id", "state"]:
        return _history_from_long(path, rows, network)
    return _history_from_wide(path, header, rows, network)


def _history_from_long(path, rows, network: RiskNetwork) -> HistoryMatrix:
    cells: dict[tuple[str, str], int] = {}
    months_seen: dict[str, None] = {}
    for line_no, row in enumerate(rows, start=2):
        if len(row) != 3:
            raise DataError(f"history file {path} line {line_no}: expected 3 fields")
        month, risk_id, state = row
        if _MONTH_RE.match(month) is None:
            raise DataError(f"history file {path} line {line_no}: bad month {month!r}")
        if risk_id not in network._index:
            raise DataError(
                f"history file {path} line {line_no}: risk {risk_id!r} absent from network"
            )
        key = (month, risk_id)
        if key in cells:
            raise DataError(
                f"history file {path} line {line_no}: duplicate cell for {risk_id!r} in {month}"
            )
        cells[key] = _parse_state(state, f"history file {path} line {line_no}")
        months_seen.setdefault(month, None)

    months = tuple(sorted(months_seen))
    missing = [
        (m, rid) for m in months for rid in network.ids if (m, rid) not in cells
    ]
    if missing:
        m, rid = missing[0]
        raise DataError(
            f"history file {path}: missing cell for risk {rid!r} in {m} "
            f"({len(missing)} missing cells in total)"
        )
    states = np.zeros((network.n_risks, len(months)), dtype=np.uint8)
    for t, m in enumerate(months):
        for i, rid in enumerate(network.ids):
            states[i, t] = cells[(m, rid)]
    return HistoryMatrix(network.ids, months, states)


def _history_from_wide(path, header, rows, network: RiskNetwork) -> HistoryMatrix:
    col_ids = header[1:]
    if len(set(col_ids)) != len(col_ids):
        raise DataError(f"history file {path}: duplicate risk columns")
    unknown = [c for c in col_ids if c not in network._index]
    if unknown:
        raise DataError(f"history file {path}: unknown risk columns {unknown}")
    absent = [rid for rid in network.ids if rid not in col_ids]
    if absent:
        raise DataError(f"history file {path}: missing columns for risks {absent}")

    months = []
    by_month: dict[str, list[str]] = {}
    for line_no, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataError(f"history file {path} line {line_no}: wrong field count")
        month = row[0]
        if _MONTH_RE.match(month) is None:
            raise DataError(f"history file {path} line {line_no}: bad month {month!r}")
        if month in by_month:
            raise DataError(f"history file {path} line {line_no}: duplicate month {month!r}")
        by_month[month] = row[1:]
        months.append(month)

    months = sorted(months)
    states = np.zeros((network.n_risks, len(months)), dtype=np.uint8)
    col_of = {c: k for k, c in enumerate(col_ids)}
    for t, m in enumerate(months):
        vals = by_month[m]
        for i, rid in enumerate(network.ids):
            states[i, t] = _parse_state(vals[col_of[rid]], f"history file {path} month {m}")
    return HistoryMatrix(network.ids, tuple(months), states)


def save_history(history: HistoryMatrix, path, *, form: str = "wide") -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if form == "wide":
            writer.writerow(["month", *history.risk_ids])
            for t, m in enumerate(history.months):
                writer.writerow([m, *(str(int(s)) for s in history.states[:, t])])
        elif form == "long":
            writer.writerow(["month", "risk_id", "state"])
            for t, m in enumerate(history.months):
                for i, rid in enumerate(history.risk_ids):
                    writer.writerow([m, rid, str(int(history.states[i, t]))])
        else:
            raise ValueError(f"unknown history form {form!r}")
