"""camera-frames: detector post-processing per camera frame, then tracking.

Per frame the benchmark writes one raw-prediction line over a fixed 2016-anchor
palm tiling (24x24 cells with 2 anchors each, 12x12 cells with 6) and, per
planted hand, one 21-map confidence line carrying the hand's region. An
operation reads and decodes the prediction line (decode and NMS), reads and
decodes each hand's maps, builds the frame, validates and serializes it to a
frame log as ``handwave keypoints`` does, and passes it through the tracking
step of ``handwave track``. No frame JSON is parsed.

Frames come in runs of one stock gesture (one hand, or two for the
two-handed ones) separated by no-hand frames. Each hand lights up the
anchors whose centres lie near its own, which gives NMS tens to about a
hundred candidates to suppress.
"""

from __future__ import annotations

import json
import time

import numpy as np

import common
import refs
from harness import RoundResult

LAYERS = ((24, 24, (0.1, 0.14), (1.0,)), (12, 12, (0.25, 0.35, 0.45), (1.0, 0.5)))
GRID = 24  # confidence-map cells per side
RUNS, TINY_RUNS = 6, 2  # gesture runs per round

# A right hand in map cells, (row, col) per landmark; tips move with the posture.
_REST = {0: (22, 12), 1: (19, 8), 2: (16, 6)}
_FINGER_COL = (9, 12, 15, 18)
_MCP_ROW = 12


def hand_cells(bits, left: bool) -> list[tuple[int, int]]:
    """(row, col) of each landmark's peak for a hand showing the posture bits."""
    cells = dict(_REST)
    cells[3], cells[4] = ((15, 4), (15, 1)) if bits[0] else ((18, 6), (20, 6))
    for f, (bit, col) in enumerate(zip(bits[1:], _FINGER_COL)):
        rows = (_MCP_ROW, 9, 6, 3) if bit else (_MCP_ROW, 14, 15, 16)
        for j, row in enumerate(rows):
            cells[5 + 4 * f + j] = (row, col)
    out = [cells[k] for k in range(21)]
    return [(r, GRID - 1 - c) for r, c in out] if left else out


def anchors_cfg_obj() -> dict:
    return {"layers": [{"grid_w": gw, "grid_h": gh, "scales": list(s), "aspect_ratios": list(r)}
                       for gw, gh, s, r in LAYERS],
            "center_variance": 0.1, "size_variance": 0.2}


def make_preds(anchors: np.ndarray, boxes, rng) -> np.ndarray:
    """(N, 5) raw rows: background everywhere, candidates near each hand box."""
    n = anchors.shape[0]
    preds = np.column_stack([rng.uniform(-6.0, -1.0, n), rng.normal(0.0, 0.5, (n, 4))])
    for (cx, cy, w, h), radius in zip(boxes, (0.1, 0.08)):
        near = np.flatnonzero(np.hypot(anchors[:, 0] - cx, anchors[:, 1] - cy) <= radius)
        a = anchors[near]
        k = near.size
        preds[near, 0] = rng.uniform(0.2, 4.0, k)
        preds[near, 1] = (cx + rng.normal(0, 0.01, k) - a[:, 0]) / (0.1 * a[:, 2])
        preds[near, 2] = (cy + rng.normal(0, 0.01, k) - a[:, 1]) / (0.1 * a[:, 3])
        preds[near, 3] = np.log(w * (1 + rng.normal(0, 0.05, k)) / a[:, 2]) / 0.2
        preds[near, 4] = np.log(h * (1 + rng.normal(0, 0.05, k)) / a[:, 3]) / 0.2
    return np.round(preds, 5)


def make_maps(cells, rng) -> tuple[list, list[float]]:
    """21 row-major maps with sparse background and one peak each; returns maps, peaks."""
    maps, peaks = [], []
    for row, col in cells:
        grid = np.zeros(GRID * GRID)
        noisy = rng.choice(GRID * GRID, size=20, replace=False)
        grid[noisy] = np.round(rng.uniform(0.01, 0.4, 20), 3)
        peak = round(float(rng.uniform(0.55, 1.0)), 3)
        grid[row * GRID + col] = peak
        maps.append([0 if v == 0 else v for v in grid.tolist()])
        peaks.append(peak)
    return maps, peaks


def make_frames(registry, rng, runs: int):
    """[(boxes, [(hd, cells)])]: gesture runs, each followed by one no-hand frame.

    Runs alternate one two-handed gesture with two one-handed ones and all
    have the same length, so a round's work does not depend on the seed.
    """
    doubles = [entry for entry in registry if isinstance(entry[1][0], tuple)]
    singles = [entry for entry in registry if not isinstance(entry[1][0], tuple)]
    frames = []
    for k in range(runs):
        pool = doubles if k % 3 == 0 else singles
        _, pattern, hold = pool[int(rng.integers(len(pool)))]
        size = rng.uniform(0.30, 0.40)
        if pool is doubles:
            centres = [(rng.uniform(0.22, 0.28), rng.uniform(0.3, 0.7)),
                       (rng.uniform(0.72, 0.78), rng.uniform(0.3, 0.7))]
            hands = [("R", hand_cells(pattern[0], False)), ("L", hand_cells(pattern[1], True))]
        else:
            centres = [(rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7))]
            hands = [("R", hand_cells(pattern, False))]
        for _ in range(hold + 2):
            boxes = [(cx + rng.normal(0, 0.005), cy + rng.normal(0, 0.005),
                      size, size * 1.1) for cx, cy in centres]
            frames.append((boxes, hands))
        frames.append(([], []))
    return frames


class Workload:
    name = "camera-frames"

    def __init__(self, hw, tmp, seed: int, tiny: bool):
        self.hw, self.tmp, self.seed, self.tiny = hw, tmp, seed, tiny
        self.registry = refs.load_registry(common.REGISTRY_JSON)
        self.mapping = common.device_mapping(self.registry)
        self.anchors = refs.anchor_array(LAYERS)

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.frames = make_frames(self.registry, rng, TINY_RUNS if self.tiny else RUNS)
        cfg = anchors_cfg_obj()
        # Per frame: its prediction line and one map line per hand, each
        # written as soon as it is made.
        self.lines, self.preds, self.peaks = [], [], []
        with open(self.tmp / "preds.jsonl", "w", encoding="ascii") as pred_fh, \
                open(self.tmp / "maps.jsonl", "w", encoding="ascii") as map_fh:
            for boxes, hands in self.frames:
                preds = make_preds(self.anchors, boxes, rng)
                self.preds.append(preds)
                pred_line = common.write_line(pred_fh, {"anchors_cfg": cfg, "preds": preds.tolist()})
                map_lines, peaks = [], []
                for box, (_, cells) in zip(boxes, hands):
                    maps, hand_peaks = make_maps(cells, rng)
                    map_lines.append(common.write_line(
                        map_fh, {"h": GRID, "w": GRID, "maps": maps, "region": list(box)}))
                    peaks.append(hand_peaks)
                self.lines.append((pred_line, map_lines))
                self.peaks.append(peaks)
        self.tracking = common.Tracking(self.hw, self.mapping)
        self.sink = self.tmp / "camera-sink.bin"
        self.log = self.tmp / "frames.jsonl"
        self._run(self.lines[:2])  # warm-up

    def prepare_reference(self) -> None:
        self.want_boxes = []
        for preds in self.preds:
            boxes = refs.decode(preds, self.anchors)
            self.want_boxes.append((boxes[refs.greedy_nms(boxes)], int((boxes[:, 4] >= 0.5).sum())))
        self.want_hands = []
        for (boxes, hands), peaks in zip(self.frames, self.peaks):
            self.want_hands.append([
                (hd, [refs.keypoint(box, r, c, GRID, GRID) for r, c in cells], hand_peaks)
                for box, (hd, cells), hand_peaks in zip(boxes, hands, peaks)])
        self.want_sink, _ = refs.expected_wire(
            [[(hd, pts) for hd, pts, _ in hands] for hands in self.want_hands],
            self.registry, self.mapping)

    def _run(self, lines) -> RoundResult:
        hw, track = self.hw, self.tracking
        detect, streams = hw.detect, hw.streams
        right, left = hw.handwave.Handedness.RIGHT, hw.handwave.Handedness.LEFT
        clock = time.perf_counter
        latencies, kept, frames, events, failed = [], [], [], [], 0
        with track.open(self.sink), open(self.log, "w", encoding="ascii") as log:
            for i, (pred_line, map_lines) in enumerate(lines):
                start = clock()
                try:
                    record = next(detect.read_predictions([pred_line]))
                    boxes = detect.decode_record(record)
                    hands = []
                    for map_line, side in zip(map_lines, (right, left)):
                        maps = next(detect.read_confidence_maps([map_line]))
                        hands.append(detect.decode_keypoints(maps.maps, maps.region, side))
                    frame = hw.handwave.HandFrame(t_ms=i * 40, hands=tuple(hands))
                    streams.validate_frame(frame)
                    log.write(streams.serialize_frame(frame) + "\n")
                    events.extend(track.step(frame))
                except hw.handwave.HandwaveError:
                    failed += 1
                    boxes, frame = [], hw.handwave.HandFrame(t_ms=i * 40)
                latencies.append(clock() - start)
                kept.append(boxes)
                frames.append(frame)
        return RoundResult(outputs=(kept, frames, self.log.read_text("ascii"),
                                    self.sink.read_bytes(), events),
                           latencies=latencies, failed=failed)

    def round(self) -> RoundResult:
        return self._run(self.lines)

    def check(self, outputs) -> list[str]:
        kept, frames, log_text, sink, events = outputs
        problems = []
        for i, (boxes, (want, _)) in enumerate(zip(kept, self.want_boxes)):
            got = np.array([[b.cx, b.cy, b.w, b.h, b.score] for b in boxes]).reshape(-1, 5)
            if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=1e-9):
                problems.append(f"frame {i}: kept boxes {got.shape[0]} differ from the "
                                f"reference decode + NMS ({want.shape[0]} boxes)")
        log_lines = log_text.splitlines()
        if len(log_lines) != len(self.want_hands):
            problems.append(f"frame log has {len(log_lines)} lines, want {len(self.want_hands)}")
        for i, (frame, line, want) in enumerate(zip(frames, log_lines, self.want_hands)):
            logged = json.loads(line)["hands"]
            got = [(h.handedness.value, h.points.tolist(), h.confidences.tolist())
                   for h in frame.hands]
            from_log = [(h["hd"], h["pts"], h["conf"]) for h in logged]
            want = [(hd, [list(p) for p in pts], peaks) for hd, pts, peaks in want]
            if got != want:
                problems.append(f"frame {i}: keypoints differ from the cell-centre mapping")
            if from_log != want:
                problems.append(f"frame {i}: frame log differs from the cell-centre mapping")
        problem = refs.wire_mismatch(sink, self.want_sink)
        if problem:
            problems.append(problem)
        return problems

    def counts(self, outputs) -> dict:
        kept, frames, _, sink, events = outputs
        return {"streams.frames": len(frames),
                "streams.hands": sum(len(f.hands) for f in frames),
                **common.tracking_counts(sink, events),
                "detect.candidates": sum(n for _, n in self.want_boxes),
                "detect.kept": sum(len(boxes) for boxes in kept)}
