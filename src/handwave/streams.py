"""JSONL frame streams: parsing, serialization, validation, labelled corpora.

One frame per line:

    {"t": <int ms>, "hands": [{"hd": "L"|"R", "pts": [[x, y] * 21], "conf": [c * 21]}]}

"conf" may be omitted, in which case every confidence defaults to 1.0.
Coordinates and confidences must lie in [0, 1]; at most two hands per frame,
never two of the same handedness; two-handed frames list the right hand first.
Within a stream, timestamps are strictly increasing.

A labelled corpus line is the same object with one extra field, ``"label"``,
holding the ground-truth gesture name ("none" when absent).
"""

from __future__ import annotations

import os
from itertools import chain
from typing import Any, Iterable, Iterator, TextIO

import numpy as np

from ._jsonio import _NUMBER_TYPES, _loads, at_line, dumps, json_lines, number, write_lines
from .errors import ParseError, StreamOrderError, ValidationError
from .model import NUM_LANDMARKS, HandFrame, Handedness, LandmarkSet

_FRAME_KEYS = {"t", "hands"}
_HAND_KEYS = {"hd", "pts", "conf"}
_ONES = [1.0] * NUM_LANDMARKS  # the confidences of a hand without "conf"


def _unit_number(value: Any, path: str) -> float:
    out = number(value, path, ValidationError)
    if not 0.0 <= out <= 1.0:
        raise ValidationError(f"{path}: must lie in [0, 1], got {value!r}")
    return out


def _hand_from_obj(obj: Any, path: str) -> LandmarkSet:
    """The hand a hand object describes, or the error naming its first bad field.

    Its values are checked in bulk as one array, which the hand views; only
    when that check fails are they walked one by one, to name the bad one.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected an object, got {type(obj).__name__}")
    if not obj.keys() <= _HAND_KEYS:
        for key in obj:
            if key not in _HAND_KEYS:
                raise ValidationError(f"{path}: unexpected field {key!r}")
    if "hd" not in obj:
        raise ValidationError(f"{path}: missing field 'hd'")
    if obj["hd"] not in ("L", "R"):
        raise ValidationError(f"{path}.hd: expected 'L' or 'R', got {obj['hd']!r}")
    if "pts" not in obj:
        raise ValidationError(f"{path}: missing field 'pts'")
    pts = obj["pts"]
    if not isinstance(pts, list) or len(pts) != NUM_LANDMARKS:
        raise ValidationError(
            f"{path}.pts: expected {NUM_LANDMARKS} points, got "
            f"{len(pts) if isinstance(pts, list) else type(pts).__name__}")
    conf = obj.get("conf", _ONES)
    if conf is _ONES or type(conf) is list and len(conf) == NUM_LANDMARKS:
        arr = _unit_values(pts, conf)
        if arr is not None:
            arr.setflags(write=False)  # so are its views, the hand's arrays
            return LandmarkSet._checked(arr[:2 * NUM_LANDMARKS].reshape(NUM_LANDMARKS, 2),
                                        Handedness(obj["hd"]), arr[2 * NUM_LANDMARKS:])
    points = []
    for j, pair in enumerate(pts):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(f"{path}.pts[{j}]: expected an [x, y] pair")
        points.append([_unit_number(pair[0], f"{path}.pts[{j}].x"),
                       _unit_number(pair[1], f"{path}.pts[{j}].y")])
    conf = None
    if "conf" in obj:
        raw = obj["conf"]
        if not isinstance(raw, list) or len(raw) != NUM_LANDMARKS:
            raise ValidationError(f"{path}.conf: expected {NUM_LANDMARKS} values")
        conf = [_unit_number(v, f"{path}.conf[{j}]") for j, v in enumerate(raw)]
    return LandmarkSet(points=points, handedness=Handedness(obj["hd"]), confidences=conf)


def _unit_values(pairs: list, confs: list) -> np.ndarray | None:
    """Every x and y of ``pairs``, then ``confs``, as one float64 array.

    None unless every pair is an [x, y] list and every value an int or a
    float in [0, 1]. The exact type test keeps bools and strings out: numpy
    alone reads True as 1.0 and "0.5" as 0.5.
    """
    if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
        return None
    values = [*chain.from_iterable(pairs), *confs]
    if not set(map(type, values)) <= _NUMBER_TYPES:
        return None
    try:
        arr = np.array(values, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails both
        return None
    return arr


def _frame_header(obj: Any) -> tuple[int, list]:
    """The timestamp and the hand list of a frame object, or the error naming its bad field."""
    if not isinstance(obj, dict):
        raise ValidationError(f"frame: expected an object, got {type(obj).__name__}")
    if not obj.keys() <= _FRAME_KEYS:
        for key in obj:
            if key not in _FRAME_KEYS:
                raise ValidationError(f"frame: unexpected field {key!r}")
    if "t" not in obj:
        raise ValidationError("frame: missing field 't'")
    if "hands" not in obj:
        raise ValidationError("frame: missing field 'hands'")
    t = obj["t"]
    if isinstance(t, bool) or not isinstance(t, int):
        raise ValidationError(f"t: expected integer milliseconds, got {t!r}")
    hands_obj = obj["hands"]
    if not isinstance(hands_obj, list):
        raise ValidationError("hands: expected a list")
    if len(hands_obj) > 2:
        raise ValidationError(f"hands: at most 2 hands per frame, got {len(hands_obj)}")
    return t, hands_obj


def frame_from_obj(obj: Any) -> HandFrame:
    """Build a HandFrame from a decoded JSON object, rejecting schema deviations.

    The hands are read in document order, each checked whole before the next,
    so the error names the first field at fault. A frame with a non-negative
    "t" and its hands in canonical order is wrapped as it is; any other goes
    through the HandFrame constructor, which sorts a left-first pair or
    raises.
    """
    t, hands_obj = _frame_header(obj)
    hands = tuple([_hand_from_obj(h, f"hands[{i}]") for i, h in enumerate(hands_obj)])
    if t >= 0 and (len(hands) < 2 or (hands[0].handedness is Handedness.RIGHT
                                      and hands[1].handedness is Handedness.LEFT)):
        return HandFrame._checked(t, hands)
    return HandFrame(t_ms=t, hands=hands)


def frame_to_obj(frame: HandFrame) -> dict:
    """Return the JSON-ready dict for a frame (hands in canonical order)."""
    return {
        "t": frame.t_ms,
        "hands": [
            {
                "hd": h.handedness.value,
                "pts": h.points.tolist(),
                "conf": h.confidences.tolist(),
            }
            for h in frame.hands
        ],
    }


def parse_frame(line: str) -> HandFrame:
    """Parse one JSONL line into a HandFrame.

    Raises ParseError for a line that is not ASCII or not JSON, and
    ValidationError for any schema or invariant violation (the message names
    the offending field).
    """
    return frame_from_obj(_loads(line, "", ParseError))


def serialize_frame(frame: HandFrame) -> str:
    """Serialize a frame to its single-line JSON form (no trailing newline)."""
    return dumps(frame_to_obj(frame))


def validate_frame(frame: HandFrame) -> None:
    """Raise ValidationError unless the frame would survive a serialize/parse round trip.

    Construction already enforces the structural invariants; this additionally
    requires every coordinate to lie in the unit square, which the line format
    demands.
    """
    if not isinstance(frame, HandFrame):
        raise ValidationError(f"frame: expected HandFrame, got {type(frame).__name__}")
    for i, hand in enumerate(frame.hands):
        pts = hand.points
        if not (pts.min() >= 0.0 and pts.max() <= 1.0):  # NaN fails both
            raise ValidationError(f"hands[{i}].pts: coordinates must lie in [0, 1]")


def _check_order(frame: HandFrame, last_t: int | None) -> int:
    if last_t is not None and frame.t_ms <= last_t:
        raise StreamOrderError(f"timestamp {frame.t_ms} does not increase past {last_t}")
    return frame.t_ms


def read_frames(source: Iterable[str] | str | os.PathLike) -> Iterator[HandFrame]:
    """Yield frames from a path or line iterable, enforcing increasing timestamps.

    Blank lines are skipped. Raises StreamOrderError on the first frame whose
    timestamp is not strictly greater than its predecessor's. Every error
    names its line.
    """
    last_t: int | None = None
    for n, obj in json_lines(source):
        with at_line(n):
            frame = frame_from_obj(obj)
            last_t = _check_order(frame, last_t)
        yield frame


def _line_obj(frame: HandFrame, **extra: str) -> dict:
    validate_frame(frame)
    return {**frame_to_obj(frame), **extra}


def write_frames(dest: TextIO | str | os.PathLike, frames: Iterable[HandFrame]) -> int:
    """Write frames as JSONL to a path or an open text stream; returns the line count."""
    return write_lines(dest, map(_line_obj, frames))


def read_labelled(source: Iterable[str] | str | os.PathLike) -> Iterator[tuple[HandFrame, str]]:
    """Yield (frame, label) pairs from a labelled corpus, one line at a time.

    Lines without a "label" field yield the label "none". Timestamp ordering
    is enforced exactly as in read_frames.
    """
    last_t: int | None = None
    for n, obj in json_lines(source):
        with at_line(n):
            if not isinstance(obj, dict):
                raise ValidationError("expected an object")
            label = obj.pop("label", "none")
            if not isinstance(label, str) or not label:
                raise ValidationError("label must be a non-empty string")
            frame = frame_from_obj(obj)
            last_t = _check_order(frame, last_t)
        yield frame, label


def write_labelled(dest: TextIO | str | os.PathLike, pairs: Iterable[tuple[HandFrame, str]]) -> int:
    """Write (frame, label) pairs as labelled corpus JSONL; returns the line count.

    ``dest`` is a path or an open text stream, as for write_frames.
    """
    return write_lines(dest, (_line_obj(frame, label=label) for frame, label in pairs))
