"""Synthetic labelled gesture corpora built from geometric hand templates.

Templates realize a posture array literally: an open finger puts its tip 0.15
above the MCP joint, a folded one 0.10 below; an open thumb lies sideways
(well clear of the minimum-dx rule), a folded thumb hangs vertically. Left
hands are the right-hand template mirrored about x = 0.5. Gaussian jitter with
a configurable sigma is added to every coordinate and the result clamped to
the unit square, so a corpus stays parseable at any noise level. Everything is
driven by one seeded generator: equal specs give byte-identical corpora.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SynthError, ValidationError
from .gestures import DEFAULT_FINGER_PARAMS, FingerStateParams, GestureRegistry, posture_array
from .model import (
    MCP,
    TIP,
    THUMB_CMC,
    THUMB_IP,
    THUMB_MCP,
    THUMB_TIP,
    WRIST,
    FRAME_INTERVAL_MS,
    NUM_LANDMARKS,
    DoublePattern,
    HandFrame,
    Handedness,
    LandmarkSet,
    PostureArray,
    _check_size,
    as_handedness,
)

# Right-hand rest pose. Fingers hang from their MCP row; the thumb sits low
# and to the side. Openness only ever moves tips (and the joints between),
# so every one of the 32 posture arrays is realizable from this base.
_BASE = {
    WRIST: (0.50, 0.85),
    THUMB_CMC: (0.36, 0.72),
    THUMB_MCP: (0.34, 0.62),
}
_FINGER_X = {"index": 0.42, "middle": 0.48, "ring": 0.54, "pinky": 0.60}
_MCP_Y = 0.55
_OPEN_LIFT = 0.15    # open fingertip: this far above the MCP
_FOLD_DROP = 0.10    # folded fingertip: this far below
_THUMB_SPAN = 0.12   # open thumb: lateral tip offset (shallow slope)
_THUMB_SAG = 0.02


# (open bits, side, params) -> the template hand_template built for them.
_TEMPLATES: dict[tuple, LandmarkSet] = {}


def hand_template(posture: PostureArray,
                  handedness: Handedness = Handedness.RIGHT,
                  params: FingerStateParams = DEFAULT_FINGER_PARAMS) -> LandmarkSet:
    """A clean landmark set realizing the given posture array.

    Raises SynthError if the built geometry does not read back as the
    requested posture under ``params`` (possible with extreme thresholds),
    and ValidationError if ``posture`` is not a PostureArray. A template is
    immutable, so each one is built once per posture, side and params and
    then shared; a failure is not kept, and raises again on every call. A
    side given as "R" or "L" is the Handedness it serializes as.
    """
    handedness = as_handedness(handedness)
    if not isinstance(posture, PostureArray):
        raise ValidationError(f"posture: expected a PostureArray, got {type(posture).__name__}")
    # Equal postures can spell a bit as 1 or 1.0; the geometry and the
    # read-back test depend only on which bits are open.
    key = (tuple(map(bool, posture)), handedness, params)
    if key not in _TEMPLATES:
        _TEMPLATES[key] = _build_template(posture, handedness, params)
    return _TEMPLATES[key]


def _build_template(posture: PostureArray, handedness: Handedness,
                    params: FingerStateParams) -> LandmarkSet:
    pts = np.zeros((NUM_LANDMARKS, 2), dtype=np.float64)
    for idx, xy in _BASE.items():
        pts[idx] = xy

    thumb_open = posture[0]
    mx, my = _BASE[THUMB_MCP]
    if thumb_open:
        tip = (mx - _THUMB_SPAN, my - _THUMB_SAG)
    else:
        tip = (mx, my + _FOLD_DROP)  # vertical: no lateral displacement
    pts[THUMB_TIP] = tip
    pts[THUMB_IP] = ((mx + tip[0]) / 2.0, (my + tip[1]) / 2.0)

    for bit, finger in zip(posture[1:], ("index", "middle", "ring", "pinky")):
        x = _FINGER_X[finger]
        mcp = (x, _MCP_Y)
        dy = -_OPEN_LIFT if bit else _FOLD_DROP
        tip = (x, _MCP_Y + dy)
        pts[MCP[finger]] = mcp
        pts[TIP[finger]] = tip
        pts[MCP[finger] + 1] = (x, _MCP_Y + dy / 3.0)
        pts[MCP[finger] + 2] = (x, _MCP_Y + 2.0 * dy / 3.0)

    if handedness is Handedness.LEFT:
        pts[:, 0] = 1.0 - pts[:, 0]

    lms = LandmarkSet(points=pts, handedness=handedness)
    realized = posture_array(lms, params)
    if realized != posture:
        raise SynthError(
            f"template for {tuple(posture)} reads back as {tuple(realized)} "
            f"under the given finger parameters")
    return lms


@dataclass(frozen=True)
class SynthSpec:
    """What to synthesize: (name, pattern) pairs, frames per gesture, noise, seed."""

    gestures: tuple[tuple[str, PostureArray | DoublePattern], ...]
    frames_per_gesture: int = 150
    jitter_sigma: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "gestures", tuple(self.gestures))
        if not self.gestures:
            raise ValidationError("synth: need at least one gesture")
        for name, pattern in self.gestures:
            if not name or not isinstance(pattern, (PostureArray, DoublePattern)):
                raise ValidationError(f"synth: bad gesture entry {name!r}")
        if self.frames_per_gesture < 1:
            raise ValidationError("synth: frames_per_gesture must be positive")
        hands = 2 if any(isinstance(p, DoublePattern) for _, p in self.gestures) else 1
        _check_size("synth: frames_per_gesture", (self.frames_per_gesture, hands, NUM_LANDMARKS, 2))
        if not math.isfinite(self.jitter_sigma):
            raise ValidationError(f"synth: jitter_sigma must be finite, got {self.jitter_sigma}")
        if self.jitter_sigma < 0:
            raise ValidationError("synth: jitter_sigma must be non-negative")
        if self.seed < 0:
            raise ValidationError(f"synth: seed must be non-negative, got {self.seed}")

    @classmethod
    def from_registry(cls, registry: GestureRegistry, **kwargs) -> "SynthSpec":
        return cls(gestures=tuple((d.name, d.pattern) for d in registry), **kwargs)


def synth_corpus(spec: SynthSpec,
                 params: FingerStateParams = DEFAULT_FINGER_PARAMS) -> list[tuple[HandFrame, str]]:
    """Generate the labelled corpus: every gesture in order, frames back to back.

    Single-handed gestures get one right hand; double-handed ones a right and
    a left hand posed per side. Timestamps advance by ``FRAME_INTERVAL_MS``.
    """
    rng = np.random.default_rng(spec.seed)
    frames = spec.frames_per_gesture
    pairs: list[tuple[HandFrame, str]] = []
    t = 0
    for name, pattern in spec.gestures:
        if isinstance(pattern, DoublePattern):
            bases = [hand_template(pattern.right, Handedness.RIGHT, params),
                     hand_template(pattern.left, Handedness.LEFT, params)]
        else:
            bases = [hand_template(pattern, Handedness.RIGHT, params)]
        # One draw for the whole gesture gives the values, in the same order,
        # that one (21, 2) draw per hand per frame would; with sigma 0 every
        # draw is a signed zero, which leaves the template as it is.
        shape = (frames, len(bases), NUM_LANDMARKS, 2)
        noisy = np.stack([base.points for base in bases]) \
            + rng.normal(0.0, spec.jitter_sigma, shape)
        np.clip(noisy, 0.0, 1.0, out=noisy)  # finite and in [0, 1], as _checked needs
        confidences = np.ones(shape[:-1])
        noisy.setflags(write=False)  # and read-only, as are its views
        confidences.setflags(write=False)
        for f in range(frames):
            hands = tuple(LandmarkSet._checked(noisy[f, h], base.handedness, confidences[f, h])
                          for h, base in enumerate(bases))
            pairs.append((HandFrame(t_ms=t, hands=hands), name))
            t += FRAME_INTERVAL_MS
    return pairs
