"""The intermediate files: one atomic writer, and readers that name the file.

:func:`write_atomic` writes to a dot-prefixed temporary file beside the
target and ``os.replace``-s it over the target, so a reader sees the old
file or the whole new one. That survives the process dying mid-write, not
a power loss: there is no ``fsync``, which made writing the 166 files of a
``many-forecasts`` benchmark run four times slower (medians of 7 runs on a
shared 2-vCPU Linux machine, ext4: 6 ms plain, 10 ms atomic, 43 ms atomic
plus ``fsync``).

Each reader passes the parsed value, row or record to ``build`` and turns
any parse or build error into a ``ValueError`` naming the file and, for
JSONL and CSV, the line. JSONL and CSV files have no trailer, so a file cut
exactly at a row boundary reads as a shorter file; atomic writes are what
prevent such a cut.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

# what a malformed file raises from json, int(), float(), a month parse or a missing key
_ERRORS = (KeyError, TypeError, ValueError)


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


def _named(where: str, exc: Exception) -> ValueError:
    missing = "missing field " if isinstance(exc, KeyError) else ""
    return ValueError(f"{where}: {missing}{exc}")


def read_json(path: str | Path, build):
    """``build(value)`` of the one JSON value in ``path``."""
    try:
        return build(json.loads(Path(path).read_bytes()))
    except _ERRORS as exc:
        raise _named(str(path), exc) from exc


def read_jsonl(path: str | Path, build) -> list:
    """``build(row)`` of each non-blank line of ``path``, in order."""
    out, n = [], 0
    try:
        for n, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
            if line.strip():
                out.append(build(json.loads(line)))
    except _ERRORS as exc:
        raise _named(f"{path}, line {n}", exc) from exc
    return out


def read_csv(path: str | Path, build) -> list:
    """``build(record)`` of each record of ``path`` as a dict keyed by the header row.

    A record short of a field is an error.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    out = []
    try:
        for record in reader:
            if None in record.values():
                raise ValueError("missing fields")
            out.append(build(record))
    except (csv.Error, *_ERRORS) as exc:
        raise _named(f"{path}, line {reader.line_num}", exc) from exc
    return out
