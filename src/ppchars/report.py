"""Machine-readable result container shared by all verification commands."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

from . import __version__

SCHEMA_VERSION = 1


@dataclass
class Report:
    """Outcome of one verification run.

    status is "pass" iff no row has ok == False; "partial" when every
    checked row passed but some rows were skipped; "fail" otherwise.
    """

    command: str
    parameters: dict[str, Any]
    rows: list[dict[str, Any]]
    counters: dict[str, int] = field(default_factory=dict)
    seed: int | None = None
    elapsed_seconds: float = 0.0
    version: str = __version__

    @property
    def status(self) -> str:
        if any(row.get("ok") is False for row in self.rows):
            return "fail"
        if any(row.get("skipped") for row in self.rows):
            return "partial"
        return "pass"

    @property
    def failures(self) -> list[dict[str, Any]]:
        return [row for row in self.rows if row.get("ok") is False]

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "parameters": self.parameters,
            "status": self.status,
            "rows": self.rows,
            "counters": self.counters,
            "seed": self.seed,
            "elapsed_seconds": self.elapsed_seconds,
            "version": self.version,
        }

    def to_json(self) -> str:
        """json.dumps(self.to_dict(), sort_keys=True, indent=2, default=str),
        byte for byte, with the work done by the C encoder."""
        return _encode(self.to_dict(), 0)

    def to_csv(self) -> str:
        """Flat projection of rows; nested values are JSON-encoded."""
        buf = io.StringIO()
        header: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in header:
                    header.append(key)
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in self.rows:
            writer.writerow(
                [_flat(row[k]) if k in row else "" for k in header]
            )
        return buf.getvalue()


_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset({str, int, float, bool, type(None)})
_INDENT = "  "


@lru_cache(maxsize=None)
def _encoder(depth: int) -> json.JSONEncoder:
    """A C-speed encoder (no indent) whose item separator starts a new line
    at nesting depth `depth`."""
    return json.JSONEncoder(sort_keys=True, default=str,
                            separators=(",\n" + _INDENT * depth, ": "))


def _all_scalar(value) -> bool:
    """True when every child is of a JSON scalar type.  Any other type,
    a subclass or an object that goes through `default` included, takes
    the general path, which is exact for every value."""
    children = value.values() if isinstance(value, dict) else value
    return _SCALARS.issuperset(map(type, children))


def _encode(value: Any, depth: int) -> str:
    """The indent=2 encoding of `value` with its opening bracket at `depth`.

    A container that holds no container is one encoder call plus the line
    breaks around its brackets; a list of such non-empty dicts (report
    rows) is one call too, with the row boundaries fixed by one replace.
    That replace is exact because JSON escapes every newline inside a
    string, so "}," before a newline only ever closes a row.
    """
    if not isinstance(value, _CONTAINERS) or not value:
        return _encoder(depth).encode(value)
    inner = "\n" + _INDENT * (depth + 1)
    close = "\n" + _INDENT * depth
    if _all_scalar(value):
        text = _encoder(depth + 1).encode(value)
        return text[0] + inner + text[1:-1] + close + text[-1]
    if isinstance(value, dict):
        opening, closing = "{", "}"
        # the key part of a one-item encoding is the key exactly as the
        # encoder writes it, int and other non-str keys included
        parts = [_encoder(0).encode({key: 0})[1:-2] + _encode(child, depth + 1)
                 for key, child in sorted(value.items())]
    elif all(type(child) is dict and child and _all_scalar(child)
             for child in value):
        row_inner = "\n" + _INDENT * (depth + 2)
        body = _encoder(depth + 2).encode(value)[2:-2].replace(
            "}," + row_inner + "{", inner + "}," + inner + "{" + row_inner)
        return "[" + inner + "{" + row_inner + body + inner + "}" + close + "]"
    else:
        opening, closing = "[", "]"
        parts = [_encode(child, depth + 1) for child in value]
    return opening + inner + ("," + inner).join(parts) + close + closing


def _flat(value: Any) -> Any:
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True, default=str)
    return value

