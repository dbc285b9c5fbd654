"""Report serialization.

Numeric JSON output always uses 17-significant-digit decimals so regression
snapshots are byte-stable and round-trip to the exact same doubles; the
stdlib encoder's shortest-repr floats would also round-trip but change shape
across value ranges, so we emit the document ourselves (JSON is small).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np


def format17(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r} to JSON")
    return format(x, ".17g")


def _emit(obj, parts: list[str], indent: int) -> None:
    here = "  " * indent
    inner = here + "  "
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format17(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for idx, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(inner + json.dumps(key) + ": ")
            _emit(value, parts, indent + 1)
            parts.append(",\n" if idx < len(obj) - 1 else "\n")
        parts.append(here + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            parts.append("[]")
            return
        parts.append("[\n")
        for idx, value in enumerate(obj):
            parts.append(inner)
            _emit(value, parts, indent + 1)
            parts.append(",\n" if idx < len(obj) - 1 else "\n")
        parts.append(here + "]")
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), parts, indent)
    elif isinstance(obj, np.bool_):
        parts.append("true" if obj else "false")
    elif isinstance(obj, np.floating):
        _emit(float(obj), parts, indent)
    elif isinstance(obj, np.integer):
        _emit(int(obj), parts, indent)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def finite_or_none(doc):
    """A report document (nested dicts) with every non-finite float made
    None, which JSON writes as null and a CSV row as an empty field."""
    if isinstance(doc, dict):
        return {key: finite_or_none(value) for key, value in doc.items()}
    return None if isinstance(doc, float) and not math.isfinite(doc) else doc


def dumps17(obj) -> str:
    parts: list[str] = []
    _emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


_KEYS = {"passed": "pass"}  # field -> JSON/CSV key, where the two differ


@dataclass
class ReportRow:
    """One verification cell: residuals, feasibility and the two constants."""

    algorithm: str
    metric: str
    size: int
    residual_identity: float
    residual_composite: float
    feasible: bool
    certified_rate: float
    paper_rate: float
    observed_worst_ratio: float | None
    runtime_ms: float
    passed: bool

    CSV_FIELDS: ClassVar[tuple[str, ...]]  # the to_dict keys, in field order

    def to_dict(self) -> dict:
        return {_KEYS.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}

    def csv_row(self) -> list[str]:
        out = []
        for value in finite_or_none(self.to_dict()).values():
            if isinstance(value, bool):
                out.append(str(value).lower())
            elif isinstance(value, float):
                out.append(format17(value))
            elif value is None:
                out.append("")
            else:
                out.append(str(value))
        return out


ReportRow.CSV_FIELDS = tuple(_KEYS.get(f.name, f.name) for f in fields(ReportRow))


def write_rollup_csv(rows: list[ReportRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ReportRow.CSV_FIELDS)
        for row in rows:
            writer.writerow(row.csv_row())
