"""Calendar-month arithmetic on a flat integer index.

A month is represented internally as ``year * 12 + (month - 1)`` so that
month differences, step shifts and GP grid coordinates are plain integer
arithmetic. File interfaces always carry the human-readable ``YYYY-MM``
form; conversion happens at the boundaries.
"""

from __future__ import annotations

import re

_MONTH_RE = re.compile(r"([0-9]{4})-([0-9]{2})")  # ASCII digits: \d takes any Unicode digit


def month_index(year: int, month: int) -> int:
    """Flat index of a calendar month; January 2000 -> 24000."""
    if not 1 <= month <= 12:
        raise ValueError(f"month out of range: {month}")
    return year * 12 + (month - 1)


def parse_month(text: str) -> int:
    """Parse exactly 'YYYY-MM', in ASCII digits, into a flat month index."""
    m = _MONTH_RE.fullmatch(text) if isinstance(text, str) else None
    if m is None:
        raise ValueError(f"not a YYYY-MM month: {text!r}")
    return month_index(int(m.group(1)), int(m.group(2)))


def format_month(index: int) -> str:
    """Inverse of :func:`parse_month`."""
    year, month0 = divmod(index, 12)
    return f"{year:04d}-{month0 + 1:02d}"
