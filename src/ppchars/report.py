"""Machine-readable result container shared by all verification commands."""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
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
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, default=str)

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


def _flat(value: Any) -> Any:
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True, default=str)
    return value


class timer:
    """Context manager stamping elapsed_seconds onto a report factory."""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False

