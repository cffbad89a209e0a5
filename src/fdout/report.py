"""Detection reports and their JSON serialisation.

Reports use 1-based curve indices on the external surface (matching the
row numbers a spreadsheet user sees) and sorted JSON keys, so identical
runs produce byte-identical files and text diffs are meaningful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InconsistentReport, NonFiniteResult

__all__ = ["SCHEMA_VERSION", "DetectionReport", "to_external_indices"]

SCHEMA_VERSION = 1


def to_external_indices(indices) -> list:
    """0-based internal indices to sorted 1-based external ones."""
    return sorted(int(i) + 1 for i in np.asarray(indices, dtype=int).ravel())


def _plain(value):
    """Recursively convert numpy scalars/arrays for JSON."""
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass(frozen=True)
class DetectionReport:
    """What a detector found, plus enough diagnostics to plot it.

    ``outliers`` maps class names ("all" plus method-specific classes like
    "shape") to sorted 1-based index lists. ``diagnostics`` holds per-curve
    vectors (depths, MO, VO, distances, indices) keyed by name.
    """

    method: str
    parameters: dict
    n: int
    p: int
    d: int
    outliers: dict
    diagnostics: dict = field(default_factory=dict)
    warnings: tuple = ()
    error: Optional[dict] = None
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "method": self.method,
            "parameters": _plain(self.parameters),
            "n": int(self.n),
            "p": int(self.p),
            "d": int(self.d),
            "outliers": _plain(self.outliers),
            "diagnostics": _plain(self.diagnostics),
            "warnings": list(self.warnings),
            "error": _plain(self.error),
        }
        try:
            text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        except ValueError as exc:
            raise NonFiniteResult(f"the report cannot hold a non-finite value: {exc}") from None
        return text + "\n"

    @classmethod
    def from_json(cls, text: str) -> "DetectionReport":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InconsistentReport(f"report is not valid JSON: {exc}") from None
        missing = {"schema_version", "method", "outliers"} - set(payload)
        if missing:
            raise InconsistentReport(f"report lacks required keys: {sorted(missing)}")
        return cls(
            method=payload["method"],
            parameters=payload.get("parameters", {}),
            n=int(payload.get("n", 0)),
            p=int(payload.get("p", 0)),
            d=int(payload.get("d", 0)),
            outliers=payload["outliers"],
            diagnostics=payload.get("diagnostics", {}),
            warnings=tuple(payload.get("warnings", ())),
            error=payload.get("error"),
            schema_version=int(payload["schema_version"]),
        )
