"""Core value types: points, hand landmarks, frames, postures, gestures.

Coordinate convention: points are normalized image coordinates, x in [0, 1]
growing rightward and y in [0, 1] growing downward (camera frame).

Landmark indexing is wrist-first, thumb to pinky, base to tip:

    0        WRIST
    1..4     THUMB_CMC, THUMB_MCP, THUMB_IP, THUMB_TIP
    5..8     INDEX_MCP, INDEX_PIP, INDEX_DIP, INDEX_TIP
    9..12    MIDDLE_MCP, MIDDLE_PIP, MIDDLE_DIP, MIDDLE_TIP
    13..16   RING_MCP, RING_PIP, RING_DIP, RING_TIP
    17..20   PINKY_MCP, PINKY_PIP, PINKY_DIP, PINKY_TIP

All types here are immutable values after construction; landmark arrays are
marked read-only so a constructed frame can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ValidationError

NUM_LANDMARKS = 21

# Milliseconds between consecutive frames that handwave itself timestamps
# (synthetic corpora and decoded keypoint streams): 25 frames a second.
FRAME_INTERVAL_MS = 40

WRIST = 0
THUMB_CMC, THUMB_MCP, THUMB_IP, THUMB_TIP = 1, 2, 3, 4
INDEX_MCP, INDEX_PIP, INDEX_DIP, INDEX_TIP = 5, 6, 7, 8
MIDDLE_MCP, MIDDLE_PIP, MIDDLE_DIP, MIDDLE_TIP = 9, 10, 11, 12
RING_MCP, RING_PIP, RING_DIP, RING_TIP = 13, 14, 15, 16
PINKY_MCP, PINKY_PIP, PINKY_DIP, PINKY_TIP = 17, 18, 19, 20

FINGERS = ("thumb", "index", "middle", "ring", "pinky")

# Tip landmark per finger, and the joint its openness is judged against.
TIP = {"thumb": THUMB_TIP, "index": INDEX_TIP, "middle": MIDDLE_TIP,
       "ring": RING_TIP, "pinky": PINKY_TIP}
MCP = {"thumb": THUMB_MCP, "index": INDEX_MCP, "middle": MIDDLE_MCP,
       "ring": RING_MCP, "pinky": PINKY_MCP}


class Handedness(str, Enum):
    """Which hand a landmark set belongs to; serialized as "R" / "L"."""

    RIGHT = "R"
    LEFT = "L"


def as_handedness(value) -> Handedness:
    """``value`` as a Handedness: a member itself, or its serialized "R" / "L"."""
    if isinstance(value, Handedness):
        return value
    try:
        return Handedness(value)
    except ValueError:
        raise ValidationError(f"handedness: expected 'R' or 'L', got {value!r}") from None


def _check_size(field: str, shape: tuple[int, ...]) -> None:
    """Raise ValidationError naming ``field`` if numpy cannot form a float64 array of ``shape``.

    For such a shape numpy raises ValueError, not MemoryError; a smaller one
    that cannot be allocated still fails as MemoryError.
    """
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise ValidationError(
            f"{field} is too large: a float64 array of shape {shape} exceeds numpy's size limit")


@dataclass(frozen=True)
class Point2:
    """A point in normalized image coordinates (finite; y grows downward)."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValidationError(f"point: coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True, eq=False)
class LandmarkSet:
    """21 hand keypoints plus per-point confidences for one hand.

    ``points`` is a read-only (21, 2) float array; ``confidences`` a read-only
    (21,) float array in [0, 1] (defaults to all ones). Coordinates must be
    finite but are not forced into [0, 1] at construction so intermediate
    geometry (decoded off-image regions, test transforms) stays representable;
    the stream layer enforces the unit square at parse/validate time.
    """

    points: np.ndarray
    handedness: Handedness
    confidences: np.ndarray | None = None

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=np.float64)
        if pts.shape != (NUM_LANDMARKS, 2):
            raise ValidationError(
                f"points: expected {NUM_LANDMARKS} (x, y) pairs, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValidationError("points: coordinates must be finite")
        if self.confidences is None:
            conf = np.ones(NUM_LANDMARKS, dtype=np.float64)
        else:
            conf = np.array(self.confidences, dtype=np.float64)
        if conf.shape != (NUM_LANDMARKS,):
            raise ValidationError(
                f"confidences: expected {NUM_LANDMARKS} values, got shape {conf.shape}")
        if not (np.isfinite(conf).all() and (conf >= 0.0).all() and (conf <= 1.0).all()):
            raise ValidationError("confidences: values must lie in [0, 1]")
        hd = as_handedness(self.handedness)
        pts.setflags(write=False)
        conf.setflags(write=False)
        self._set(pts, hd, conf)

    def _set(self, pts: np.ndarray, hd: Handedness, conf: np.ndarray) -> None:
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "confidences", conf)
        object.__setattr__(self, "handedness", hd)

    @classmethod
    def _checked(cls, pts: np.ndarray, hd: Handedness, conf: np.ndarray) -> "LandmarkSet":
        """Wrap arrays the caller has already checked as ``__post_init__`` would.

        ``pts`` must be a finite (21, 2) float64 array and ``conf`` a (21,)
        float64 array in [0, 1], both read-only already (a view of a
        read-only array is) and written by no other code.
        """
        self = object.__new__(cls)
        self._set(pts, hd, conf)
        return self

    def point(self, index: int) -> Point2:
        x, y = self.points[index].tolist()
        return Point2(x, y)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LandmarkSet):
            return NotImplemented
        return (self.handedness is other.handedness
                and np.array_equal(self.points, other.points)
                and np.array_equal(self.confidences, other.confidences))


@dataclass(frozen=True)
class HandFrame:
    """One timestamped capture: zero, one, or two hands.

    Hands are stored in canonical order (right before left); at most one hand
    per handedness. ``t_ms`` is an integer millisecond timestamp.
    """

    t_ms: int
    hands: tuple[LandmarkSet, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.t_ms, bool) or not isinstance(self.t_ms, int):
            raise ValidationError(f"t: expected integer milliseconds, got {self.t_ms!r}")
        if self.t_ms < 0:
            raise ValidationError(f"t: must be non-negative, got {self.t_ms}")
        hands = tuple(self.hands)
        if len(hands) > 2:
            raise ValidationError(f"hands: at most 2 hands per frame, got {len(hands)}")
        sides = [h.handedness for h in hands]
        if len(set(sides)) != len(sides):
            raise ValidationError("hands: duplicate handedness")
        hands = tuple(sorted(hands, key=lambda h: 0 if h.handedness is Handedness.RIGHT else 1))
        object.__setattr__(self, "hands", hands)

    @classmethod
    def _checked(cls, t_ms: int, hands: tuple[LandmarkSet, ...]) -> "HandFrame":
        """Wrap values the caller has already checked as ``__post_init__`` would.

        ``t_ms`` must be a non-negative int and ``hands`` a tuple of at most
        two hands in canonical order: a right hand before a left one, never
        two of the same side.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "t_ms", t_ms)
        object.__setattr__(self, "hands", hands)
        return self


@dataclass(frozen=True)
class PostureArray:
    """Five open/folded finger bits, thumb first: (thumb, index, middle, ring, pinky)."""

    states: tuple[int, int, int, int, int]

    def __post_init__(self) -> None:
        states = tuple(self.states)
        if len(states) != len(FINGERS):
            raise ValidationError(f"posture: expected {len(FINGERS)} finger states, got {len(states)}")
        for bit in states:
            if isinstance(bit, bool) or bit not in (0, 1):
                raise ValidationError(f"posture: states must be 0 or 1, got {bit!r}")
        object.__setattr__(self, "states", states)

    @classmethod
    def of(cls, *bits: int) -> "PostureArray":
        return cls(tuple(bits))

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, index: int) -> int:
        return self.states[index]


@dataclass(frozen=True)
class DoublePattern:
    """A two-handed pattern: one posture per hand, matched simultaneously."""

    right: PostureArray
    left: PostureArray


@dataclass(frozen=True)
class GestureDef:
    """A named gesture: a single- or double-handed posture pattern plus debounce depth.

    ``hold_frames`` is the number of consecutive matching frames required
    before the gesture fires.
    """

    name: str
    pattern: PostureArray | DoublePattern
    hold_frames: int = 5

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("gesture: name must be non-empty")
        if not isinstance(self.pattern, (PostureArray, DoublePattern)):
            raise ValidationError(f"gesture {self.name!r}: pattern must be a posture or a two-hand pattern")
        if isinstance(self.hold_frames, bool) or not isinstance(self.hold_frames, int) or self.hold_frames < 1:
            raise ValidationError(f"gesture {self.name!r}: hold_frames must be a positive integer")


@dataclass(frozen=True)
class GestureEvent:
    """An onset (offset_ms is None) or completed activation of a named gesture.

    Onset events carry the cursor position current at the time they fired,
    when landmarks were available to compute one.
    """

    name: str
    onset_ms: int
    offset_ms: int | None = None
    cursor: Point2 | None = None

    def __post_init__(self) -> None:
        if self.offset_ms is not None and self.offset_ms < self.onset_ms:
            raise ValidationError(
                f"event {self.name!r}: offset {self.offset_ms} precedes onset {self.onset_ms}")

    @property
    def is_onset(self) -> bool:
        return self.offset_ms is None


@dataclass(frozen=True)
class EvalRow:
    """Per-gesture (or total) frame counts with derived percentages.

    ``accuracy_pct + error_pct == 100`` exactly by construction, and
    ``recall`` equals ``correct_frames / total_frames`` (frame streams carry
    one label per frame, so per-class recall and accuracy coincide).
    """

    name: str
    total_frames: int
    correct_frames: int
    false_frames: int
    accuracy_pct: float
    error_pct: float
    recall: float

    def __post_init__(self) -> None:
        if self.total_frames < 1:
            raise ValidationError(f"row {self.name!r}: total_frames must be positive")
        if not (0 <= self.correct_frames <= self.total_frames):
            raise ValidationError(f"row {self.name!r}: correct_frames out of range")
        if self.correct_frames + self.false_frames != self.total_frames:
            raise ValidationError(f"row {self.name!r}: correct + false must equal total")

    @classmethod
    def from_counts(cls, name: str, total: int, correct: int) -> "EvalRow":
        if total < 1:
            raise ValidationError(f"row {name!r}: total_frames must be positive")
        accuracy = 100.0 * correct / total
        return cls(
            name=name,
            total_frames=total,
            correct_frames=correct,
            false_frames=total - correct,
            accuracy_pct=accuracy,
            error_pct=100.0 - accuracy,
            recall=correct / total,
        )


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Frame-level evaluation result: one row per label, totals, confusion counts.

    ``confusion`` is an integer matrix with one row per label (in ``labels``
    order) and one column per entry of ``columns`` (the labels plus a final
    "none" column for frames that matched no gesture). Row sums equal the
    per-label frame totals.
    """

    rows: tuple[EvalRow, ...]
    totals: EvalRow
    labels: tuple[str, ...]
    columns: tuple[str, ...]
    confusion: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        counts = np.array(self.confusion, dtype=np.int64)
        if counts.shape != (len(self.labels), len(self.columns)):
            raise ValidationError(
                f"confusion: expected shape {(len(self.labels), len(self.columns))}, got {counts.shape}")
        if (counts < 0).any():
            raise ValidationError("confusion: counts must be non-negative")
        row_totals = {row.name: row.total_frames for row in self.rows}
        for label, row_sum in zip(self.labels, counts.sum(axis=1)):
            if row_totals.get(label) != int(row_sum):
                raise ValidationError(f"confusion: row {label!r} sum does not match its frame total")
        if int(counts.sum()) != self.totals.total_frames:
            raise ValidationError("confusion: grand total does not match frame count")
        counts.setflags(write=False)
        object.__setattr__(self, "confusion", counts)
