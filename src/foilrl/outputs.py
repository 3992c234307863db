"""The one place that knows how result files are written.

Every CSV and JSON output of the package goes through these two
functions, so the tables of one run can be compared byte for byte with
those of another.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path


def write_json(path: str | Path, payload: dict) -> None:
    """Indented, key-sorted JSON with a trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """`header`, then one line per row; floats as `.10g`, anything else as `str`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.10g}" if isinstance(v, float) else str(v) for v in row]
                         for row in rows)
