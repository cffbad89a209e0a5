"""Detection reports and their JSON serialisation.

Reports use 1-based curve indices on the external surface (matching the
row numbers a spreadsheet user sees) and sorted JSON keys, so identical
runs produce byte-identical files and text diffs are meaningful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import InconsistentReport, NonFiniteResult

__all__ = ["SCHEMA_VERSION", "DetectionReport", "to_external_indices"]

SCHEMA_VERSION = 1

# the JSON types each report field may take, as ``json.loads`` returns them
_FIELD_TYPES = {
    "schema_version": (int,), "n": (int,), "p": (int,), "d": (int,),
    "method": (str,), "parameters": (dict,), "outliers": (dict,),
    "diagnostics": (dict,), "warnings": (list,), "error": (dict, type(None)),
}


def to_external_indices(indices) -> list:
    """0-based internal indices to sorted 1-based external ones."""
    return sorted(int(i) + 1 for i in np.asarray(indices, dtype=int).ravel())


def _plain(value):
    """``json.dumps`` hook: numpy arrays and scalars as Python lists and scalars."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


@dataclass(frozen=True)
class DetectionReport:
    """What a detector found, plus enough diagnostics to plot it.

    ``outliers`` maps class names ("all" plus method-specific classes like
    "shape") to sorted 1-based index lists. ``diagnostics`` holds per-curve
    vectors (depths, MO, VO, distances, indices) keyed by name.
    """

    method: str
    parameters: dict = field(default_factory=dict)
    n: int = 0
    p: int = 0
    d: int = 0
    outliers: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    warnings: tuple = ()
    error: Optional[dict] = None
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        try:
            text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False,
                              default=_plain)
        except ValueError as exc:
            raise NonFiniteResult(f"the report cannot hold a non-finite value: {exc}") from None
        return text + "\n"

    @classmethod
    def from_json(cls, text: str) -> "DetectionReport":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InconsistentReport(f"report is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise InconsistentReport(f"report must be a JSON object, not {type(payload).__name__}")
        missing = {"schema_version", "method", "outliers"} - set(payload)
        if missing:
            raise InconsistentReport(f"report lacks required keys: {sorted(missing)}")
        for key, types in _FIELD_TYPES.items():
            # bool is not an int here: type() rather than isinstance()
            if key in payload and type(payload[key]) not in types:
                raise InconsistentReport(
                    f"report field {key!r} is {type(payload[key]).__name__}, "
                    f"not {' or '.join(t.__name__ for t in types)}"
                )
        if not all(type(rows) is list for rows in payload["outliers"].values()):
            raise InconsistentReport("report outliers must map each class to a list")
        # a JSON array is held as a tuple, as the dataclass holds it
        return cls(**{key: tuple(payload[key]) if type(payload[key]) is list else payload[key]
                      for key in _FIELD_TYPES if key in payload})
