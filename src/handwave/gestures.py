"""Posture extraction and gesture recognition over landmark frames.

A finger is open (1) when its tip sits strictly above its MCP joint in image
coordinates (tip.y < mcp.y; y grows downward, so above means smaller y). The
thumb moves sideways rather than up, so it is judged by the segment from its
MCP (landmark 2) to its tip (landmark 4): open means the tip is displaced
laterally by at least ``thumb_min_dx`` with slope magnitude at most
``thumb_slope_max``. Ties and degenerate geometry resolve to folded (0).

The five bits (thumb, index, middle, ring, pinky) form a posture array, which
gesture definitions match literally — single-handed against any present hand,
double-handed against both hands at once. A registry is an ordered list of
definitions; classification returns the first match, so more specific
(double-handed) entries belong before the single-handed ones they overlap.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Iterator, Mapping

from ._jsonio import _loads, number, read_json
from .errors import StreamOrderError, ValidationError
from .model import (
    MCP,
    TIP,
    THUMB_MCP,
    THUMB_TIP,
    INDEX_TIP,
    MIDDLE_MCP,
    DoublePattern,
    GestureDef,
    GestureEvent,
    HandFrame,
    Handedness,
    LandmarkSet,
    Point2,
    PostureArray,
)

_BEND_FINGERS = ("index", "middle", "ring", "pinky")
# (bit, (tip, MCP)) of each bending finger in a hand code.
_FINGER_BITS = tuple((1 << (3 - k), (TIP[f], MCP[f])) for k, f in enumerate(_BEND_FINGERS))
# A compiled registry's table has one row and one column per hand code, plus
# the last for an absent hand.
_ABSENT = 32
_SLOTS = _ABSENT + 1


@dataclass(frozen=True)
class FingerStateParams:
    """Tunable thresholds for the thumb's lateral-displacement rule."""

    thumb_slope_max: float = 1.0
    thumb_min_dx: float = 0.04

    def __post_init__(self) -> None:
        for name in ("thumb_slope_max", "thumb_min_dx"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
            if value <= 0:
                raise ValidationError(f"{name} must be positive, got {value}")


DEFAULT_FINGER_PARAMS = FingerStateParams()


def _hand_code(pts, params: FingerStateParams) -> int:
    """The five finger bits of 21 (x, y) rows as one integer, thumb as bit 4.

    This is the only place the posture rule is written down.
    """
    tip_x, tip_y = pts[THUMB_TIP]
    mcp_x, mcp_y = pts[THUMB_MCP]
    dx = tip_x - mcp_x
    code = 0
    if abs(dx) >= params.thumb_min_dx and abs((tip_y - mcp_y) / dx) <= params.thumb_slope_max:
        code = 16
    for bit, (tip, mcp) in _FINGER_BITS:
        if pts[tip][1] < pts[mcp][1]:
            code |= bit
    return code


def _slot(posture: object) -> int:
    """The table index of a posture: its code, or _ABSENT for anything else.

    Only a PostureArray equals a pattern, so any other value matches as
    nothing does, like an absent hand.
    """
    if type(posture) is not PostureArray:
        return _ABSENT
    # A state is any value equal to 0 or 1 (a registry file may hold 1.0), so
    # it is compared, not shifted.
    thumb, index, middle, ring, pinky = (bit == 1 for bit in posture.states)
    return thumb << 4 | index << 3 | middle << 2 | ring << 1 | pinky


def posture_array(lms: LandmarkSet, params: FingerStateParams = DEFAULT_FINGER_PARAMS) -> PostureArray:
    """The five finger bits for one hand, thumb first."""
    code = _hand_code(lms.points.tolist(), params)
    return PostureArray(tuple((code >> shift) & 1 for shift in (4, 3, 2, 1, 0)))


def _cursor(pts) -> tuple[float, float]:
    """The thumb-tip/index-tip midpoint of 21 (x, y) rows, as two floats."""
    (thumb_x, thumb_y), (index_x, index_y) = pts[THUMB_TIP], pts[INDEX_TIP]
    return (thumb_x + index_x) / 2.0, (thumb_y + index_y) / 2.0


def focal_point(lms: LandmarkSet) -> Point2:
    """The middle-finger MCP — the point the camera keeps centered."""
    return lms.point(MIDDLE_MCP)


class GestureRegistry:
    """An ordered collection of gesture definitions with unique names and patterns.

    Construction compiles the definitions into a table holding the first match
    for every pair of (right posture or no right hand, left posture or no left
    hand), so that classifying a frame is one lookup.
    """

    def __init__(self, defs: tuple[GestureDef, ...] | list[GestureDef]):
        defs = tuple(defs)
        names = set()
        patterns = set()
        for d in defs:
            if d.name in names:
                raise ValidationError(f"registry: duplicate gesture name {d.name!r}")
            if d.pattern in patterns:
                raise ValidationError(f"registry: duplicate pattern on {d.name!r}")
            names.add(d.name)
            patterns.add(d.pattern)
        self.defs = defs
        self._by_name = {d.name: d for d in defs}
        # (right code or _ABSENT) * _SLOTS + (left code or _ABSENT) -> first match.
        table: list[str | None] = [None] * (_SLOTS * _SLOTS)
        # Later defs are written first, so earlier ones overwrite them.
        for d in reversed(defs):
            if isinstance(d.pattern, DoublePattern):
                right, left = _slot(d.pattern.right), _slot(d.pattern.left)
                if _ABSENT not in (right, left):
                    table[right * _SLOTS + left] = d.name
            elif (code := _slot(d.pattern)) != _ABSENT:
                table[code * _SLOTS:(code + 1) * _SLOTS] = [d.name] * _SLOTS
                table[code::_SLOTS] = [d.name] * _SLOTS
        self._table = tuple(table)

    def __iter__(self) -> Iterator[GestureDef]:
        return iter(self.defs)

    def __len__(self) -> int:
        return len(self.defs)

    def get(self, name: str) -> GestureDef:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name


def classify(arrays: Mapping[Handedness, PostureArray], registry: GestureRegistry) -> str | None:
    """Return the first registry entry the present hands satisfy, or None.

    A single-handed definition matches when any present hand shows its
    posture; a double-handed definition only when both hands are present and
    each shows its side's posture. With no hands there is no match.
    """
    right = _slot(arrays.get(Handedness.RIGHT))
    return registry._table[right * _SLOTS + _slot(arrays.get(Handedness.LEFT))]


def _classify_frame(frame: HandFrame, registry: GestureRegistry,
                    params: FingerStateParams) -> str | None:
    """classify over each hand's posture_array, without building the posture objects."""
    slots = [_ABSENT, _ABSENT]
    for hand in frame.hands:
        slots[hand.handedness is Handedness.LEFT] = _hand_code(hand.points.tolist(), params)
    return registry._table[slots[0] * _SLOTS + slots[1]]


@dataclass
class EngineState:
    """Mutable per-stream recognition state (owned by a single engine).

    Frames classify to at most one name at a time, so one (candidate, streak)
    pair carries the same information as a counter per definition.
    """

    candidate: str | None = None
    streak: int = 0
    active: str | None = None
    active_onset_ms: int | None = None
    last_cursor: tuple[float, float] | None = None  # finite; a Point2 only at an onset
    last_t_ms: int | None = None


class GestureEngine:
    """Debounced gesture recognition over a single frame stream.

    A gesture fires (onset event) only after ``hold_frames`` consecutive
    frames classify to it, and closes (offset event) on the first frame that
    classifies differently. Feed frames in strictly increasing ``t_ms`` order.
    """

    def __init__(self, registry: GestureRegistry,
                 params: FingerStateParams = DEFAULT_FINGER_PARAMS):
        self.registry = registry
        self.params = params
        self.state = EngineState()

    def step(self, frame: HandFrame) -> list[GestureEvent]:
        """Advance by one frame; return the events it triggered (possibly none)."""
        state = self.state
        if state.last_t_ms is not None and frame.t_ms <= state.last_t_ms:
            raise StreamOrderError(
                f"frame timestamp {frame.t_ms} does not increase past {state.last_t_ms}")
        state.last_t_ms = frame.t_ms

        # One row list per hand gives its posture code and, for the first
        # hand, the cursor; a Point2 is built only when an onset carries it.
        right = left = _ABSENT
        for i, hand in enumerate(frame.hands):
            pts = hand.points.tolist()
            if hand.handedness is Handedness.RIGHT:
                right = _hand_code(pts, self.params)
            else:
                left = _hand_code(pts, self.params)
            if i == 0:  # canonical order puts the right hand first
                x, y = _cursor(pts)
                if not (math.isfinite(x) and math.isfinite(y)):
                    Point2(x, y)  # raises Point2's non-finite error
                state.last_cursor = x, y

        name = self.registry._table[right * _SLOTS + left]
        events: list[GestureEvent] = []
        if state.active is not None and name != state.active:
            events.append(GestureEvent(
                name=state.active,
                onset_ms=state.active_onset_ms,
                offset_ms=frame.t_ms,
            ))
            state.active = None
            state.active_onset_ms = None

        if name is None or name == state.active:
            state.candidate = None
            state.streak = 0
        else:
            if name == state.candidate:
                state.streak += 1
            else:
                state.candidate = name
                state.streak = 1
            if state.streak >= self.registry.get(name).hold_frames:
                state.active = name
                state.active_onset_ms = frame.t_ms
                state.candidate = None
                state.streak = 0
                events.append(GestureEvent(
                    name=name,
                    onset_ms=frame.t_ms,
                    offset_ms=None,
                    cursor=None if state.last_cursor is None else Point2(*state.last_cursor),
                ))
        return events

    def run(self, frames) -> Iterator[GestureEvent]:
        """Yield every event produced while consuming an iterable of frames."""
        for frame in frames:
            yield from self.step(frame)


def _posture_from_obj(obj: Any, path: str) -> PostureArray:
    if not isinstance(obj, list) or len(obj) != 5:
        raise ValidationError(f"{path}: expected five finger bits")
    return PostureArray(tuple(obj))


def registry_from_obj(obj: Any) -> GestureRegistry:
    """Build a registry from the decoded registry-file JSON (a list of defs)."""
    if not isinstance(obj, list):
        raise ValidationError("registry: expected a JSON array of definitions")
    defs = []
    for i, entry in enumerate(obj):
        path = f"registry[{i}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{path}: expected an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise ValidationError(f"{path}: name must be a non-empty string")
        pattern_obj = entry.get("pattern")
        if not isinstance(pattern_obj, dict) or len(pattern_obj) != 1:
            raise ValidationError(f"{path}: pattern must hold exactly one of 'single' or 'double'")
        if "single" in pattern_obj:
            pattern: PostureArray | DoublePattern = _posture_from_obj(
                pattern_obj["single"], f"{path}.pattern.single")
        elif "double" in pattern_obj:
            two = pattern_obj["double"]
            if not isinstance(two, dict) or set(two) != {"R", "L"}:
                raise ValidationError(f"{path}.pattern.double: expected 'R' and 'L' postures")
            pattern = DoublePattern(
                right=_posture_from_obj(two["R"], f"{path}.pattern.double.R"),
                left=_posture_from_obj(two["L"], f"{path}.pattern.double.L"),
            )
        else:
            raise ValidationError(f"{path}: pattern must hold 'single' or 'double'")
        hold = number(entry.get("hold_frames", 5), f"{path}.hold_frames", ValidationError,
                      integer=True)
        defs.append(GestureDef(name=name, pattern=pattern, hold_frames=hold))
    return GestureRegistry(defs)


def registry_to_obj(registry: GestureRegistry) -> list:
    out = []
    for d in registry:
        if isinstance(d.pattern, DoublePattern):
            pattern = {"double": {"R": list(d.pattern.right), "L": list(d.pattern.left)}}
        else:
            pattern = {"single": list(d.pattern)}
        out.append({"name": d.name, "pattern": pattern, "hold_frames": d.hold_frames})
    return out


def load_registry(path: str | Path) -> GestureRegistry:
    """Load a registry file (a JSON array of {name, pattern, hold_frames})."""
    return registry_from_obj(read_json(path, "registry", ValidationError))


def save_registry(path: str | Path, registry: GestureRegistry) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(registry_to_obj(registry), fh, indent=2)
        fh.write("\n")


@functools.cache
def default_registry() -> GestureRegistry:
    """The 16 stock gestures: 4 double-handed entries, then 12 single-handed.

    Names follow the numeral/shape convention of the capture set the engine
    was built around; the double-handed entries come first so a two-handed
    pose wins over the single-handed posture it contains. The packaged file
    is parsed once per process and every call returns that one registry,
    which nothing changes after it is built.
    """
    data = resources.files("handwave").joinpath("data/default_registry.json").read_text("ascii")
    return registry_from_obj(_loads(data, "registry: ", ValidationError))
