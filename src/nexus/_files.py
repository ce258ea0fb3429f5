"""File I/O: one atomic writer, one row parser, and readers that name the file.

:func:`write_atomic` writes to a dot-prefixed temporary file beside the
target and ``os.replace``-s it over the target, so a reader sees the old
file or the whole new one. That survives the process dying mid-write, not
a power loss: there is no ``fsync``, which made writing the 166 files of a
``many-forecasts`` benchmark run four times slower (medians of 7 runs on a
shared 2-vCPU Linux machine, ext4: 6 ms plain, 10 ms atomic, 43 ms atomic
plus ``fsync``).

:func:`rows` parses every JSONL and CSV file, input and intermediate, and
:func:`records` is the one loop that builds and key-checks its records for
two consumers: the input loaders collect its errors as ``RowError``-s,
and :func:`read_rows`, behind every intermediate-file reader, raises at
the first one a ``ValueError`` naming the file and the record's first
line. The loop catches ``KeyError``, ``OverflowError``, ``TypeError`` and
``ValueError`` from ``build`` and ``key``. Savers run :func:`check_keys`
first, so none writes a repeated key. JSONL and CSV files have no trailer,
so a file cut exactly at a row boundary reads as a shorter file; atomic
writes are what prevent such a cut. Every reader reads its fields with
:func:`field`, :func:`numbers`, :func:`strings`, :func:`csv_number` and :func:`dyad`:
a JSON field must be the JSON type its reader names, and every CSV field is a
string, a number the text its saver writes.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from pathlib import Path

import numpy as np

# what bad data raises in json, int(), float() (OverflowError at inf), parse_month or a missing key
_ERRORS = (KeyError, OverflowError, TypeError, ValueError)
_UNDECODED = re.compile("[\udc80-\udcff]")  # bytes that surrogateescape kept


def write_atomic(path: str | Path, write) -> None:
    """Replace ``path`` with what ``write(fh)`` writes; if ``write`` raises, keep the old file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload) -> None:
    write_atomic(path, lambda fh: fh.write(json.dumps(payload, sort_keys=True).encode()))


def write_jsonl(path: str | Path, rows) -> None:
    write_atomic(path, lambda fh: fh.writelines(
        json.dumps(row, sort_keys=True).encode() + b"\n" for row in rows
    ))


def write_csv(path: str | Path, header: list[str], rows) -> None:
    def write(fh) -> None:
        text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
        csv.writer(text).writerows([header, *rows])
        text.detach()  # flushes, and leaves fh to write_atomic

    write_atomic(path, write)


def _why(exc: Exception) -> str:
    return f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)


def read_json(path: str | Path, build):
    """``build(value)`` of the one JSON value in ``path``."""
    try:
        return build(json.loads(Path(path).read_bytes()))
    except _ERRORS as exc:
        raise ValueError(f"{path}: {_why(exc)}") from exc


def rows(path: str | Path):
    """``(line, row, error)`` for each record of ``path``, streamed in file order.

    A ``.csv`` file has a header row and each record is a dict keyed by it;
    any other file is JSONL, a JSON object per non-blank line. A record is
    numbered by its first physical line. A bad record (not UTF-8, not a JSON
    object, a ``csv.Error``, a field count other than the header's) has
    ``row`` None and ``error`` saying why; the records after it still parse.
    """
    is_csv = Path(path).suffix.lower() == ".csv"
    # undecodable bytes become lone surrogates, so one bad record spoils only itself
    with open(path, encoding="utf-8", errors="surrogateescape",
              newline="" if is_csv else None) as fh:
        yield from _csv_rows(fh) if is_csv else _jsonl_rows(fh)


def _undecoded(text: str) -> bool:
    # isascii is O(1); the regex scan alone tripled the parse time of ASCII JSONL
    return not text.isascii() and _UNDECODED.search(text) is not None


def _jsonl_rows(lines):
    for line, text in enumerate(lines, start=1):  # text mode breaks at \n, \r and \r\n
        text = text.strip()
        if not text:
            continue
        if _undecoded(text):
            yield line, None, "invalid UTF-8"
            continue
        try:
            row = json.loads(text)
        except ValueError as exc:  # also an integer literal past the digit limit
            yield line, None, f"invalid JSON: {exc}"
        except RecursionError:
            yield line, None, "invalid JSON: nested too deeply"
        else:
            if isinstance(row, dict):
                yield line, row, None
            else:
                yield line, None, "row is not an object"


def _csv_rows(lines):
    reader = csv.reader(lines)
    header, start = None, 1
    while True:
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:  # the reader resumes at the next physical line
            yield start, None, str(exc)
            if header is None:
                return  # no header, so no record can be read
        else:
            if header is None:
                header = record
            elif not record:  # a blank line
                pass
            elif any(_undecoded(v) for v in record):
                yield start, None, "invalid UTF-8"
            elif len(record) < len(header):
                yield start, None, f"missing fields: {', '.join(header[len(record):])}"
            elif len(record) > len(header):
                yield start, None, f"{len(record)} fields, header has {len(header)}"
            else:
                yield start, dict(zip(header, record)), None
        start = reader.line_num + 1


def records(path: str | Path, build, key):
    """``(line, build(row), None)`` or ``(line, None, error)`` for each record of ``path``.

    ``key(value)`` names what a record is about; a second record with a
    good record's key is bad: "second row for <key> (first at line <n>)".
    """
    first_line: dict = {}  # key -> line of the good record that has it
    for line, row, error in rows(path):
        value = None
        if error is None:
            try:
                value = build(row)
                name = key(value)
            except _ERRORS as exc:
                value, error = None, _why(exc)
            else:
                first = first_line.setdefault(name, line)
                if first != line:
                    value, error = None, f"second row for {name} (first at line {first})"
        yield line, value, error


def read_rows(path: str | Path, build, key) -> list:
    """The values of :func:`records`; the first bad record raises, naming ``path`` and its line."""
    out = []
    for line, value, error in records(path, build, key):
        if error is not None:
            raise ValueError(f"{path}, line {line}: {error}")
        out.append(value)
    return out


def check_keys(path: str | Path, values, key) -> None:
    """Raise before writing ``path`` if two ``values`` share a ``key``, which its reader rejects."""
    seen = set()
    for value in values:
        name = key(value)
        if name in seen:
            raise ValueError(f"{path}: two records for {name}")
        seen.add(name)


def field(row: dict, name: str, kind: type, null: bool = False):
    """``row[name]``, of the JSON type ``kind`` names (``bool``, ``int``, ``float``, ``str``,
    ``dict``) or, if ``null``, ``null``. An integer is a ``float`` too and returns as one, or
    raises "<name> is out of the float range"; ``true`` and ``false`` are only ``bool``-s."""
    value = row[name]
    if value is None and null:
        return None
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kinds):
        raise ValueError(f"{name} is not {'an' if kind is int else 'a'} {kind.__name__}: {value!r}")
    if kind is float:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{name} is out of the float range") from None
    return value


def numbers(row: dict, name: str, kind: type = float, ndim: int = 1) -> np.ndarray:
    """``row[name]``, a JSON list of ``kind``-s (``int`` or ``float``, each read by :func:`field`)
    or, for ``ndim`` 2, a list of such lists, as an array of ``kind``."""
    items = [row[name]]
    for depth in range(ndim):
        if not all(isinstance(v, list) for v in items):
            raise ValueError(f"{name} is not {'a list' if ndim == 1 else 'a list of lists'}")
        if depth and len({len(v) for v in items}) > 1:
            raise ValueError(f"{name} is not a rectangular list of lists")
        items = [v for item in items for v in item]
    for value in items:
        field({name: value}, name, kind)
    try:
        return np.array(row[name], dtype=kind)
    except OverflowError:  # an int past int64
        raise ValueError(f"{name} is out of the {kind.__name__} range") from None


def strings(row: dict, name: str) -> tuple[str, ...]:
    """``row[name]``, which must be a JSON list of strings."""
    value = row[name]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{name} is not a list of strings: {value!r}")
    return tuple(value)


def csv_number(row: dict, name: str, kind: type):
    """``kind(row[name])``, ``int`` or ``float``, if the field is ``str`` of it, as savers write it;
    ``kind`` alone also reads padding, signs, "_" and non-ASCII digits."""
    try:
        if str(value := kind(row[name])) == row[name]:
            return value
    except ValueError:
        pass
    raise ValueError(f"{name} is not {'an' if kind is int else 'a'} {kind.__name__} as saved: "
                     f"{row[name]!r}")


def dyad(text: str) -> str:
    """``text``, a dyad id, which must not be blank."""
    if not text.strip():
        raise ValueError("empty dyad_id")
    return text
