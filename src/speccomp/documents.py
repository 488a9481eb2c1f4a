"""Matrix document input and output for the command line tools.

JSON documents look like::

    {"n": 2,
     "entries": [[re, im], [re, im], [re, im], [re, im]],
     "spectrum": [{"value": [re, im], "multiplicity": 1, "index": 1}, ...]}

with ``entries`` row-major of length n*n and ``spectrum`` optional. CSV
documents carry one matrix: n rows of alternating re,im columns. Complex
numbers are always explicit [re, im] pairs — no "a+bi" string parsing.

Everything emitted is deterministic: fixed key order and shortest
round-trip float repr, so identical runs produce identical bytes and every
emitted matrix re-parses to bit-identical values. A report is written as it
is encoded, one top-level value (or one element of an iterator-valued one)
at a time, in the same bytes as ``json.dumps`` of the whole report, so a
report of many matrices never exists in memory at once.
"""

from __future__ import annotations

import json
import reprlib
from collections.abc import Iterator
from itertools import chain
from pathlib import Path

import numpy as np

from .exceptions import InputFormatError

__all__ = [
    "load_document",
    "document_payload",
    "matrix_block",
    "matrix_from_block",
    "csv_render",
    "write_json",
]


_ECHO = reprlib.Repr()
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 100


def _shown(value, limit: int = 100) -> str:
    """``repr(value)`` for an error message, cut to ``limit`` UTF-8 bytes.

    Messages echo input, so their size must not grow with it; ``reprlib``
    also keeps deep or long input from costing recursion or time.
    """
    try:
        text = _ECHO.repr(value)
    except ValueError:  # an integer past Python's limit on decimal digits
        text = f"<integer of {value.bit_length()} bits>"
    data = text.encode()
    return text if len(data) <= limit else data[: limit - 3].decode(errors="ignore") + "..."


def _pair(value, where: str):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise InputFormatError(f"{where}: expected a [re, im] pair of numbers, got {_shown(value)}")
    try:
        z = complex(float(value[0]), float(value[1]))
    except OverflowError:  # an integer past the float range
        z = complex(np.inf)
    if not np.isfinite(z.real) or not np.isfinite(z.imag):
        raise InputFormatError(f"{where}: entries must be finite")
    return z


def _entries(entries: list, n: int) -> np.ndarray:
    """The n-by-n complex matrix of ``n * n`` [re, im] entries.

    Every valid entry list is a list of pairs of finite floats and ints, read
    in one numpy pass with the bits :func:`_pair` gives; any other is refused
    by :func:`_pair` at its first bad entry, the only source of error messages.
    """
    try:
        if set(map(type, chain.from_iterable(entries))) <= {float, int}:
            values = np.array(entries, dtype=float)
            if values.shape == (n * n, 2) and np.isfinite(values).all():
                return values.view(complex).reshape(n, n)
    except (TypeError, ValueError, OverflowError):  # a non-list entry, a ragged one, a huge int
        pass
    for i, e in enumerate(entries):
        _pair(e, f"entries[{i}]")
    raise InputFormatError("'entries' must be [re, im] pairs of finite numbers")


def _parse_json(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InputFormatError("malformed JSON: nested too deeply to parse") from exc
    except ValueError as exc:  # an integer literal past Python's limit on decimal digits
        raise InputFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputFormatError("document root must be a JSON object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputFormatError(f"'n' must be a positive integer, got {_shown(n)}")
    entries = doc.get("entries")
    if not isinstance(entries, list) or len(entries) != n * n:
        count = len(entries) if isinstance(entries, list) else "missing"
        raise InputFormatError(f"'entries' must list n*n = {_shown(n * n)} pairs, got {count}")
    matrix = _entries(entries, n)

    spectrum = doc.get("spectrum")
    records = None
    if spectrum is not None:
        if not isinstance(spectrum, list) or not spectrum:
            raise InputFormatError("'spectrum' must be a nonempty list of records")
        records = []
        for i, rec in enumerate(spectrum):
            where = f"spectrum[{i}]"
            if not isinstance(rec, dict):
                raise InputFormatError(f"{where}: expected an object")
            value = _pair(rec.get("value"), f"{where}.value")
            mult = rec.get("multiplicity")
            index = rec.get("index")
            for name, v in (("multiplicity", mult), ("index", index)):
                if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= n:
                    raise InputFormatError(f"{where}.{name} must be an integer in 1..{n}, got {_shown(v)}")
            records.append({"value": value, "multiplicity": mult, "index": index})
        if sum(r["multiplicity"] for r in records) != n:
            raise InputFormatError("spectrum multiplicities must sum to n")
    return matrix, records


def _parse_csv(text: str):
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) % 2 != 0:
            raise InputFormatError(
                f"line {lineno}: expected an even number of columns (re,im pairs), got {len(cells)}"
            )
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise InputFormatError(
                f"line {lineno}: expected {width} columns like the first row, got {len(cells)}"
            )
        row = []
        for col, cell in enumerate(cells):
            try:
                row.append(float(cell))
            except ValueError as exc:
                raise InputFormatError(
                    f"line {lineno}, column {col + 1}: {_shown(cell)} is not a number"
                ) from exc
        rows.append(row)
    if not rows:
        raise InputFormatError("CSV document contains no data rows")
    n = len(rows)
    if width != 2 * n:
        raise InputFormatError(
            f"CSV matrix must be square: {n} rows need {2 * n} columns (re,im pairs), got {width}"
        )
    values = np.array(rows, dtype=float)
    matrix = values[:, 0::2] + 1j * values[:, 1::2]
    if not np.all(np.isfinite(matrix)):
        raise InputFormatError("CSV entries must be finite")
    return matrix, None


def load_document(path):
    """Read a matrix document; returns ``(matrix, spectrum_records_or_None)``.

    Files ending in ``.csv`` are parsed as CSV, everything else as JSON.
    Raises :class:`InputFormatError` with a line/position diagnostic on
    malformed content; I/O errors propagate as ``OSError``.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"input is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    if path.suffix.lower() == ".csv":
        return _parse_csv(text)
    return _parse_json(text)


def matrix_block(m: np.ndarray) -> dict:
    """A matrix as a document fragment: ``{"n": n, "entries": [[re, im], ...]}``."""
    n = int(m.shape[0])
    entries = np.ascontiguousarray(m, dtype=complex).view(float).reshape(-1, 2).tolist()
    return {"n": n, "entries": entries}


def matrix_from_block(block: dict) -> np.ndarray:
    """Inverse of :func:`matrix_block` (used by round-trip checks)."""
    n = block["n"]
    flat = [complex(re, im) for re, im in block["entries"]]
    return np.array(flat, dtype=complex).reshape(n, n)


def document_payload(m: np.ndarray, spectrum_records=None) -> dict:
    """A full MatrixDocument for ``m``, ready to be JSON-dumped."""
    doc = matrix_block(m)
    if spectrum_records is not None:
        doc["spectrum"] = [
            {
                "value": [float(r["value"].real), float(r["value"].imag)],
                "multiplicity": int(r["multiplicity"]),
                "index": int(r["index"]),
            }
            for r in spectrum_records
        ]
    return doc


def csv_render(named_matrices) -> str:
    """Matrices concatenated as CSV blocks, each preceded by its name row.

    Rows carry alternating re,im columns with shortest round-trip float
    formatting, matching the CSV input convention.
    """
    lines = []
    for name, m in named_matrices:
        lines.append(name)
        rows = np.ascontiguousarray(m, dtype=complex).view(float).tolist()
        lines.extend(",".join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"


def write_json(obj: dict, out) -> None:
    """Write ``json.dumps(obj) + "\\n"``, the report format, to the text stream ``out``.

    Each top-level value is encoded and written on its own, and one that is
    an iterator is written as a JSON array, one ``json.dumps`` per element,
    so only one element need exist at a time. Keys are strings.
    """
    out.write("{")
    for i, (key, value) in enumerate(obj.items()):
        out.write(f"{', ' if i else ''}{json.dumps(key)}: ")
        if isinstance(value, Iterator):
            out.write("[")
            for j, item in enumerate(value):
                out.write(f"{', ' if j else ''}{json.dumps(item)}")
            out.write("]")
        else:
            out.write(json.dumps(value))
    out.write("}\n")
