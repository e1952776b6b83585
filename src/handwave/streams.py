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

import json
import os
from itertools import chain
from typing import Any, Iterable, Iterator, NamedTuple, NoReturn, TextIO

import numpy as np

from ._jsonio import at_line, dumps, json_lines, write_lines
from .errors import ParseError, StreamOrderError, ValidationError
from .model import NUM_LANDMARKS, HandFrame, Handedness, LandmarkSet

_FRAME_KEYS = {"t", "hands"}
_HAND_KEYS = {"hd", "pts", "conf"}
_SIDE_INDEX = {"R": 0, "L": 1}
_HANDEDNESS = (Handedness.RIGHT, Handedness.LEFT)
_NUMBER_TYPES = frozenset((float, int))


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValidationError(f"{path}: must be finite, got {value!r}") from None
    if out != out or out in (float("inf"), float("-inf")):
        raise ValidationError(f"{path}: must be finite, got {value!r}")
    return out


def _unit_number(value: Any, path: str) -> float:
    out = _number(value, path)
    if not 0.0 <= out <= 1.0:
        raise ValidationError(f"{path}: must lie in [0, 1], got {value!r}")
    return out


def _hand_from_obj(obj: Any, path: str) -> LandmarkSet:
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected an object, got {type(obj).__name__}")
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


def _hand_fields(obj: Any, pairs: list, confs: list) -> int | None:
    """0 for a right hand, 1 for a left one, or None when a field of ``obj`` is amiss.

    The [x, y] pairs and any confidences are appended to ``pairs`` and
    ``confs``, for _unit_values to check.
    """
    if type(obj) is not dict or not obj.keys() <= _HAND_KEYS:
        return None
    hd, pts = obj.get("hd"), obj.get("pts")
    if type(hd) is not str or hd not in _SIDE_INDEX \
            or type(pts) is not list or len(pts) != NUM_LANDMARKS:
        return None
    if "conf" in obj:
        conf = obj["conf"]
        if type(conf) is not list or len(conf) != NUM_LANDMARKS:
            return None
        confs.extend(conf)
    pairs.extend(pts)
    return _SIDE_INDEX[hd]


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
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails both
        return None
    return arr


def _hand_from_array(obj: Any) -> LandmarkSet | None:
    """The hand ``obj`` describes, checked in bulk, or None when any check fails.

    It accepts only what ``_hand_from_obj`` accepts and builds an equal hand,
    so a None sends the caller to that walker, which names the bad field.
    """
    pairs: list = []
    confs: list = []
    side = _hand_fields(obj, pairs, confs)
    arr = None if side is None else _unit_values(pairs, confs)
    if arr is None:
        return None
    arr.setflags(write=False)  # so are its views, the hand's arrays
    n = 2 * NUM_LANDMARKS
    if confs:
        confidences = arr[n:]
    else:
        confidences = np.ones(NUM_LANDMARKS)
        confidences.setflags(write=False)
    return LandmarkSet._checked(arr[:n].reshape(NUM_LANDMARKS, 2), _HANDEDNESS[side], confidences)


def _frame_header(obj: Any) -> tuple[int, list]:
    """The timestamp and the hand list of a frame object, or the error naming its bad field."""
    if type(obj) is dict and obj.keys() == _FRAME_KEYS:  # the common frame, in one test
        t, hands = obj["t"], obj["hands"]
        if type(t) is int and type(hands) is list and len(hands) <= 2:
            return t, hands
    if not isinstance(obj, dict):
        raise ValidationError(f"frame: expected an object, got {type(obj).__name__}")
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

    Each hand is checked in bulk first; only a hand that fails there is walked
    field by field, so that the error names the field at fault. A frame whose
    hands come checked and in canonical order is wrapped as it is; any other
    goes through the HandFrame constructor, which sorts them or names the fault.
    """
    t, hands_obj = _frame_header(obj)
    hands = tuple([_hand_from_array(h) or _hand_from_obj(h, f"hands[{i}]")
                   for i, h in enumerate(hands_obj)])
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

    Raises ParseError for malformed JSON and ValidationError for any schema
    or invariant violation (the message names the offending field).
    """
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"malformed JSON: {exc}") from exc
    return frame_from_obj(obj)


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


def _labelled_pairs(numbered: Iterable[tuple[int, Any]],
                    last_t: int | None = None) -> Iterator[tuple[HandFrame, str]]:
    """read_labelled's checks over (line number, object) pairs, in order after ``last_t``."""
    for n, obj in numbered:
        with at_line(n):
            if not isinstance(obj, dict):
                raise ValidationError("expected an object")
            label = obj.pop("label", "none")
            if not isinstance(label, str) or not label:
                raise ValidationError("label must be a non-empty string")
            frame = frame_from_obj(obj)
            last_t = _check_order(frame, last_t)
        yield frame, label


def read_labelled(source: Iterable[str] | str | os.PathLike) -> Iterator[tuple[HandFrame, str]]:
    """Yield (frame, label) pairs from a labelled corpus.

    Lines without a "label" field yield the label "none". Timestamp ordering
    is enforced exactly as in read_frames.
    """
    return _labelled_pairs(json_lines(source))


class LabelledArrays(NamedTuple):
    """Consecutive frames of a labelled corpus, with every hand in one array."""

    labels: list[str]     # one per frame
    points: np.ndarray    # (H, 21, 2) float64: every hand, in file order
    frame_of: np.ndarray  # (H,) the index in ``labels`` of each hand's frame
    side: np.ndarray      # (H,) 0 for a right hand, 1 for a left one


_CHUNK_FRAMES = 1024  # bounds the decoded JSON held at once
_LABELLED_KEYS = _FRAME_KEYS | {"label"}


def labelled_arrays(source: Iterable[str] | str | os.PathLike) -> Iterator[LabelledArrays]:
    """The frames read_labelled(source) yields, in chunks of arrays, reading it once.

    Every check read_labelled makes is repeated, in bulk where it can be:
    exact types, keys, labels, timestamp order and distinct sides per line,
    then one type and range check per chunk. At the first failure, a JSON
    reader's error included, read_labelled's checks run over the chunk's lines
    and raise its error naming the line and field; only they build LandmarkSets.
    """
    def recheck(fault: ParseError | None = None) -> NoReturn:
        list(_labelled_pairs(lines, before))  # raises at the first line at fault
        raise fault or AssertionError("labelled_arrays rejected lines read_labelled accepts")

    def chunk() -> LabelledArrays:
        arr = _unit_values(pairs, confs)
        if arr is None:
            recheck()
        return LabelledArrays(
            labels, arr[:2 * len(pairs)].reshape(-1, NUM_LANDMARKS, 2),
            np.array(frame_of, dtype=np.intp), np.array(side, dtype=np.intp))

    before: int | None = None  # the last timestamp before the chunk
    last_t = -1  # below every valid first timestamp
    lines: list[tuple[int, Any]] = []  # the chunk's (line number, object) pairs, kept whole
    labels: list[str] = []
    pairs: list = []  # every [x, y] of the chunk
    confs: list = []  # every confidence of the chunk
    frame_of: list[int] = []
    side: list[int] = []
    try:
        for n, obj in json_lines(source):
            lines.append((n, obj))
            if type(obj) is not dict:
                recheck()
            label, t, hands = obj.get("label", "none"), obj.get("t"), obj.get("hands")
            if type(label) is not str or not label or not obj.keys() <= _LABELLED_KEYS \
                    or type(t) is not int or t <= last_t \
                    or type(hands) is not list or len(hands) > 2:
                recheck()
            sides = [_hand_fields(hand, pairs, confs) for hand in hands]
            if None in sides or len(set(sides)) < len(sides):
                recheck()
            frame_of += [len(labels)] * len(sides)
            side += sides
            labels.append(label)
            last_t = t
            if len(labels) == _CHUNK_FRAMES:
                yield chunk()
                before, lines, labels, pairs, confs, frame_of, side = last_t, [], [], [], [], [], []
    except ParseError as exc:  # the JSON reader's; an earlier line of the chunk comes first
        recheck(exc)
    if labels:
        yield chunk()


def write_labelled(dest: TextIO | str | os.PathLike, pairs: Iterable[tuple[HandFrame, str]]) -> int:
    """Write (frame, label) pairs as labelled corpus JSONL; returns the line count.

    ``dest`` is a path or an open text stream, as for write_frames.
    """
    return write_lines(dest, (_line_obj(frame, label=label) for frame, label in pairs))
