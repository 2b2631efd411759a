"""Deterministic JSON report assembly.

Reports are plain dicts serialized with sorted keys and no timestamps,
so one seed gives byte-identical output across runs.  Complex numbers
become [re, im] pairs and non-finite floats become the strings "inf",
"-inf", "nan" (strict JSON has no spelling for them).  Wall-clock
timings go to the human-readable text summary only, never into the JSON
payload.  ``to_json`` writes the bytes of ``json.dumps(report, indent=2,
sort_keys=True)`` plus a newline directly: the standard library's indented
encoding is pure Python.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, List, Optional

from . import __version__

TOOL = "forelli-lab"


def sanitize(obj: Any) -> Any:
    """Make a value JSON-ready and deterministic."""
    if isinstance(obj, (list, tuple)):  # finite floats inline: most leaves
        return [v if type(v) is float and math.isfinite(v) else sanitize(v)
                for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (int, str)) or obj is None:     # bool is an int
        return obj
    if isinstance(obj, complex):
        return [sanitize(obj.real), sanitize(obj.imag)]
    if hasattr(obj, "item") and not getattr(obj, "ndim", 0):
        return sanitize(obj.item())    # numpy scalars and 0-d arrays
    if hasattr(obj, "tolist"):         # numpy arrays
        return sanitize(obj.tolist())
    return str(obj)


def build_report(subcommand: str, config: dict, stages: List[dict],
                 summary: dict, warnings: Optional[List[str]] = None) -> dict:
    """Assemble the canonical report structure."""
    return sanitize({
        "tool": TOOL,
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "stages": stages,
        "summary": summary,
        "warnings": warnings or [],
    })


def _write(obj: Any, pad: str) -> str:
    """``obj`` as ``json.dumps(indent=2, sort_keys=True, allow_nan=False)``
    writes it where each of its line breaks is ``pad``."""
    kind = type(obj)
    if kind is float and math.isfinite(obj) or kind is int:
        return repr(obj)
    if kind is str:
        return _quote(obj)
    if kind is bool or obj is None:
        return "null" if obj is None else "true" if obj else "false"
    inner = pad + "  "
    if kind is list and obj:           # finite floats inline: most leaves
        return "[" + inner + ("," + inner).join([
            repr(v) if type(v) is float and math.isfinite(v)
            else _write(v, inner) for v in obj]) + pad + "]"
    if kind is dict and obj and all(type(k) is str for k in obj):
        return "{" + inner + ("," + inner).join([
            _quote(k) + ": " + _write(obj[k], inner)
            for k in sorted(obj)]) + pad + "}"
    # Empty containers, tuples, subclasses, non-finite floats and what json
    # rejects: json.dumps, whose strings hold no raw newline to re-indent.
    return json.dumps(obj, indent=2, sort_keys=True,
                      allow_nan=False).replace("\n", pad)


def to_json(report: dict) -> str:
    return _write(report, "\n") + "\n"


def schema_text() -> str:
    """The shipped JSON schema for reports."""
    return resources.files("forelli_lab").joinpath(
        "schemas/report.schema.json").read_text(encoding="utf-8")
