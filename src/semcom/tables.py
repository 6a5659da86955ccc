"""The one CSV format semcom writes: a header line, then one comma-joined line per row.

A float cell is written as ``repr(float(c))``, so it parses back to the exact
in-memory value, and every other cell as ``str(c)``. Every line ends in ``"\\n"``.
"""

from collections.abc import Iterable
from numbers import Integral, Real


def _cell(c: object) -> str:
    return repr(float(c)) if isinstance(c, Real) and not isinstance(c, Integral) else str(c)


def csv_text(header: str, rows: Iterable[Iterable[object]]) -> str:
    lines = [header, *(",".join(map(_cell, row)) for row in rows)]
    return "\n".join(lines) + "\n"
