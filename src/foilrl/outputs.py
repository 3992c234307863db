"""The one place that knows how result files are written and what a value read back must be.

Every CSV and JSON output goes through `write_json` and `write_csv`, so the tables of
one run can be compared byte for byte with those of another. Every JSON value read
back (config files, checkpoint headers, weights-file meta, sweep points) passes `checked`.
"""
from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

from .errors import ContractViolation


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


def is_integer(value) -> bool:
    """A JSON integer. JSON true/false are not, though Python's bool is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_count(value) -> bool:
    return is_integer(value) and value >= 0


def is_number(value) -> bool:
    """A JSON number that a float holds: not NaN, not infinite, no integer past float range."""
    return (is_integer(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def is_finite_nonnegative(value) -> bool:
    return is_number(value) and value >= 0


def checked(doc, rules: dict, where: str = "") -> dict:
    """The `rules` keys of the JSON object `doc`; a rule is (predicate, what the value must be).

    A missing key or a refused value is a ContractViolation that starts with `<where><key>`.
    """
    for key, (valid, kind) in rules.items():
        if not (isinstance(doc, dict) and key in doc):
            raise ContractViolation(f"{where}{key} is missing")
        if not valid(doc[key]):
            raise ContractViolation(f"{where}{key} must be {kind}, not {doc[key]!r}")
    return {key: doc[key] for key in rules}
