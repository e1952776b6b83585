"""landmark-stream: one landmark JSONL line through the body of ``handwave track``.

The benchmark poses its own hands: runs of every stock gesture, each longer
than its hold_frames, one- and two-handed, drifting and scaling across the
image, with short no-hand gaps between runs. It writes the JSON itself, so
the only program code an operation runs is ``streams.parse_frame`` plus the
centering, debounce, mapping, encoding and sending of ``track``.
"""

from __future__ import annotations

import time

import numpy as np

import common
import refs
from harness import RoundResult

PASSES, TINY_PASSES = 10, 1
# Every run and gap has a fixed length, so a round's work does not depend on the seed.
RUN_EXTRA, GAP = 4, 2
JITTER = 0.004
FRAME_MS = 33  # camera rate

# A right hand at rest, (x, y) per landmark; fingertips and the thumb's last
# two joints move with the posture.
_REST = {0: (0.50, 0.90), 1: (0.40, 0.80), 2: (0.36, 0.72)}
_FINGER_X = (0.42, 0.48, 0.54, 0.60)
_MCP_Y, _OPEN_TIP_Y, _FOLDED_TIP_Y = 0.60, 0.42, 0.70
_PIVOT = np.array([0.5, 0.7])


def hand_points(bits, left: bool) -> np.ndarray:
    """(21, 2) points of a hand showing the five posture bits, before placement."""
    pts = np.zeros((21, 2))
    for k, xy in _REST.items():
        pts[k] = xy
    if bits[0]:
        pts[3], pts[4] = (0.30, 0.71), (0.24, 0.70)
    else:
        pts[3], pts[4] = (0.36, 0.77), (0.36, 0.82)
    for f, (bit, x) in enumerate(zip(bits[1:], _FINGER_X)):
        tip_y = _OPEN_TIP_Y if bit else _FOLDED_TIP_Y
        mcp = 5 + 4 * f
        for j in range(4):
            pts[mcp + j] = (x, _MCP_Y + (tip_y - _MCP_Y) * j / 3.0)
    if left:
        pts[:, 0] = 1.0 - pts[:, 0]
    return pts


def make_frames(registry, rng: np.random.Generator, passes: int):
    """[(t_ms, [(hd, pts as lists)])] covering every gesture ``passes`` times."""
    frames = []
    t = 0
    centre = np.array([0.5, 0.55])
    for _ in range(passes):
        for g in rng.permutation(len(registry)):
            _, pattern, hold = registry[g]
            if isinstance(pattern[0], tuple):
                shapes = [("R", hand_points(pattern[0], False)), ("L", hand_points(pattern[1], True))]
            else:
                shapes = [("R", hand_points(pattern, False))]
            scale = rng.uniform(0.6, 0.9)
            target = np.array([rng.uniform(0.3, 0.7), rng.uniform(0.35, 0.7)])
            for _ in range(hold + RUN_EXTRA):
                centre += (target - centre) * 0.2
                hands = []
                for hd, shape in shapes:
                    pts = centre + scale * (shape - _PIVOT) + rng.normal(0.0, JITTER, shape.shape)
                    hands.append((hd, np.clip(pts, 0.0, 1.0).tolist()))
                frames.append((t, hands))
                t += FRAME_MS
            for _ in range(GAP):
                frames.append((t, []))
                t += FRAME_MS
    return frames


def frame_obj(t: int, hands, conf) -> dict:
    return {"t": t, "hands": [{"hd": hd, "pts": pts, "conf": c}
                              for (hd, pts), c in zip(hands, conf)]}


class Workload:
    name = "landmark-stream"

    def __init__(self, hw, tmp, seed: int, tiny: bool):
        self.hw, self.tmp, self.seed, self.tiny = hw, tmp, seed, tiny
        self.registry = refs.load_registry(common.REGISTRY_JSON)
        self.mapping = common.device_mapping(self.registry)

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.frames = make_frames(self.registry, rng, TINY_PASSES if self.tiny else PASSES)
        objs = (frame_obj(t, hands, np.round(rng.uniform(0.5, 1.0, (len(hands), 21)), 4).tolist())
                for t, hands in self.frames)
        path = self.tmp / "landmarks.jsonl"
        common.write_jsonl(path, objs)
        with open(path, encoding="ascii") as fh:
            self.lines = fh.readlines()
        self.tracking = common.Tracking(self.hw, self.mapping)
        self.sink = self.tmp / "landmark-sink.bin"
        self._run(self.lines[:64])  # warm-up

    def prepare_reference(self) -> None:
        self.want, self.want_counts = refs.expected_wire(
            [hands for _, hands in self.frames], self.registry, self.mapping)

    def _run(self, lines) -> RoundResult:
        parse_frame, track = self.hw.streams.parse_frame, self.tracking
        clock = time.perf_counter
        latencies, events, failed = [], [], 0
        with track.open(self.sink):
            for line in lines:
                start = clock()
                try:
                    events.extend(track.step(parse_frame(line)))
                except self.hw.handwave.HandwaveError:
                    failed += 1
                latencies.append(clock() - start)
        return RoundResult(outputs=(self.sink.read_bytes(), events), latencies=latencies,
                           failed=failed)

    def round(self) -> RoundResult:
        return self._run(self.lines)

    def check(self, outputs) -> list[str]:
        sink, events = outputs
        problems = [refs.wire_mismatch(sink, self.want)]
        counts = common.tracking_counts(sink, events)
        got = (counts["gestures.onsets"], counts["gestures.offsets"])
        want = (self.want_counts["onsets"], self.want_counts["offsets"])
        if got != want:
            problems.append(f"(onsets, offsets) {got} != reference {want}")
        return [p for p in problems if p]

    def counts(self, outputs) -> dict:
        sink, events = outputs
        return {"streams.frames": len(self.lines),
                "streams.hands": sum(len(hands) for _, hands in self.frames),
                **common.tracking_counts(sink, events)}
