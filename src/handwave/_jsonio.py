"""How JSON text is read and written, and how a failure to read it is reported.

Every file handwave reads is ASCII JSON: one whole document, or one document
per non-blank line. Each reader names the HandwaveError subclass its failures
raise, so a bad byte, bad syntax and a bad value all end as ``error: ...``.
Everything handwave writes is compact ASCII JSON, one document per line.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from typing import Any, Iterable, Iterator, TextIO

from .errors import HandwaveError, ParseError

# What converting a decoded JSON value to a number can raise: a string or a
# list (ValueError, TypeError), or an integer too large for a float.
NUMBER_ERRORS = (TypeError, ValueError, OverflowError)


def _open_text(path: str | os.PathLike):
    """Open a file handwave reads as text.

    Bytes above 0x7f become lone surrogates, which the JSON readers report.
    """
    return open(path, "r", encoding="ascii", errors="surrogateescape")


def _loads(text: str, where: str, error: type[HandwaveError]) -> Any:
    if not text.isascii():
        try:  # always raises: the codec names the first offending byte
            text.encode("ascii", "surrogateescape").decode("ascii")
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
