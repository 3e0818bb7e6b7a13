"""The one output rule: numbers are written with 12 significant digits.

Every CSV table and JSON report goes through ``write_table`` or
``json_dump``, so repeated runs with the same inputs write the same bytes.
Callers hand over raw values; only this module rounds.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import IO, Iterable, Sequence

_FORMATS = {int: "%d", float: "%.12g", None: ""}


def _cell(value) -> str:
    if isinstance(value, float):
        return _FORMATS[float] % value
    return "" if value is None else str(value)


def write_table(stream: IO[str], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CRLF-ended CSV of ``header`` and ``rows``: floats at 12 digits, None as an empty cell."""
    writer = csv.writer(stream)
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)


def row_format(columns: Sequence[type | None]) -> str:
    """``%`` template of one ``write_table`` row whose columns hold int, float or None.

    A tuple of the row's int and float values, in order, fills it with the
    bytes ``write_table`` writes for that row, at a fraction of the cost.
    """
    return ",".join(_FORMATS[column] for column in columns) + "\r\n"


def _rounded(value):
    if isinstance(value, float):
        return float(_cell(value))
    if isinstance(value, dict):
        return {key: _rounded(v) for key, v in value.items()}
    return value


def _non_finite(payload: dict, prefix: str):
    """Dotted key and value of each NaN or infinite float in ``payload``, in order."""
    for key, value in payload.items():
        if isinstance(value, dict):
            yield from _non_finite(value, f"{prefix}{key}.")
        elif isinstance(value, float) and not math.isfinite(value):
            yield f"{prefix}{key}", value


def json_dump(payload: dict, path: Path | None = None) -> None:
    """Print ``payload`` as indented JSON with floats at 12 digits, also to ``path``.

    A NaN or infinite number, which JSON cannot hold, raises ValueError naming its key.
    """
    for key, value in _non_finite(payload, ""):
        raise ValueError(f"report value {key} = {float(value)!r} is not finite")
    text = json.dumps(_rounded(payload), indent=2, allow_nan=False)
    if path is not None:
        path.write_text(text + "\n")
    print(text)
