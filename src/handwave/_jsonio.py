"""How JSON text is read and written, and how a failure to read it is reported.

Every file handwave reads is ASCII JSON: one whole document, or one document
per non-blank line. Each reader names the HandwaveError subclass its failures
raise, so a bad byte, bad syntax and a bad value all end as ``error: ...``.
Everything handwave writes is compact ASCII JSON, one document per line.
A number read from JSON goes through ``number`` or ``number_array``.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import nullcontext
from typing import Any, Callable, Iterable, Iterator, TextIO

import numpy as np

from .errors import HandwaveError, ParseError

# What numpy's conversion of decoded JSON rows can raise; only the prediction
# rows and confidence maps are read that way, for speed (see README).
NUMBER_ERRORS = (TypeError, ValueError, OverflowError)
_NUMBER_TYPES = frozenset((int, float))


def number(value: Any, where: str, error: type[HandwaveError], integer: bool = False) -> float:
    """A decoded JSON number as a float, or as an int when ``integer``.

    It must be an int or a float (never a bool, a string or None), an int if
    ``integer``, and finite; otherwise ``error`` names ``where``.
    """
    if type(value) is not int and (integer or type(value) is not float):
        raise error(f"{where}: expected {'an integer' if integer else 'a number'}, got {value!r}")
    try:
        if math.isfinite(value):
            return value if integer else float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise error(f"{where}: must be finite, got {value!r}")


def number_array(value: Any, where: str, error: type[HandwaveError], ndim: int = 1) -> np.ndarray:
    """Lists of numbers nested ``ndim`` deep (1 or 2) as a float64 array.

    Each element must pass ``number`` and each row have the first row's
    length; otherwise ``error`` names the first bad one, as ``<where>[i][j]``.
    """
    if type(value) is not list:
        raise error(f"{where}: expected a list, got {type(value).__name__}")
    if ndim > 1:
        rows = [number_array(row, f"{where}[{i}]", error, ndim - 1) for i, row in enumerate(value)]
        for i, row in enumerate(rows):
            if row.shape != rows[0].shape:
                raise error(f"{where}[{i}]: expected length {len(rows[0])}, got {len(row)}")
        return np.array(rows) if rows else np.empty((0,) * ndim)
    try:  # a NaN or an infinity makes the sum non-finite; the loop below names it
        if set(map(type, value)) <= _NUMBER_TYPES and math.isfinite(sum(value)):
            return np.array(value, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range, named below
        pass
    return np.array([number(v, f"{where}[{i}]", error) for i, v in enumerate(value)])


def _open_text(path: str | os.PathLike):
    """Open a file handwave reads as text.

    Bytes above 0x7f become lone surrogates, which the JSON readers report.
    """
    return open(path, "r", encoding="ascii", errors="surrogateescape")


def _loads(text: str | bytes, where: str, error: type[HandwaveError]) -> Any:
    if not text.isascii():
        try:  # always raises: the codec names the first offending byte
            if isinstance(text, str):
                text = text.encode("ascii", "surrogateescape")
            text.decode("ascii")
        except UnicodeError as exc:
            raise error(f"{where}not ASCII: {exc}") from None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}malformed JSON: {exc}") from exc


def read_json(path: str | os.PathLike, what: str, error: type[HandwaveError]) -> Any:
    """Decode a whole-file JSON document; failures read ``<what>: ...``."""
    with _open_text(path) as fh:
        return _loads(fh.read(), f"{what}: ", error)


def json_lines(source: Iterable[str] | str | os.PathLike,
               error: type[HandwaveError] = ParseError) -> Iterator[tuple[int, Any]]:
    """Yield (line_no, obj) for each non-blank line of a path or an iterable of str."""
    opened = _open_text(source) if isinstance(source, (str, os.PathLike)) else nullcontext(source)
    with opened as lines:
        for n, line in enumerate(lines, start=1):
            if line.strip():
                yield n, _loads(line, f"line {n}: ", error)


def line_records(source: Iterable[str] | str | os.PathLike, build: Callable) -> Iterator:
    """Yield ``build(obj)`` for each line's object; a fault in it names the line."""
    for n, obj in json_lines(source):
        with at_line(n):
            record = build(obj)
        yield record


def dumps(obj: Any) -> str:
    """One document as compact JSON text, with no newline."""
    return json.dumps(obj, separators=(",", ":"))


def write_lines(dest: TextIO | str | os.PathLike, objs: Iterable[Any]) -> int:
    """Write each object as one LF-terminated line; returns the line count.

    A path becomes a new ASCII file, opened before the first object is drawn,
    so it exists even when producing the objects fails; an open text stream
    is written to and left open.
    """
    opened = open(dest, "w", encoding="ascii") if isinstance(dest, (str, os.PathLike)) \
        else nullcontext(dest)
    count = 0
    with opened as out:
        for obj in objs:
            out.write(dumps(obj) + "\n")
            count += 1
    return count


class at_line:
    """Prefix any HandwaveError raised inside the block with ``line N: ``."""

    def __init__(self, n: int):
        self.n = n

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, HandwaveError):
            raise type(exc)(f"line {self.n}: {exc}") from exc
