"""Reference computations the workloads check the program's outputs against.

Each one is written from the rule the program documents, not from its code,
and none reads a stored copy of an earlier output:

- the posture rule, first match over the registry JSON, the debounce rule and
  the centering rule, which together give the wire bytes a command sink must
  receive;
- a vectorised anchor decode and a greedy NMS with corner-derived areas, ties
  toward the earlier index and suppression only above the IoU threshold;
- the cell-centre keypoint mapping;
- the palm encoder's embeddings, pair distances and equal-error threshold;
- the report table's truncated percentages and rounded recall.
"""

from __future__ import annotations

import json
import math
from decimal import ROUND_DOWN, ROUND_HALF_EVEN, Context, Decimal
from pathlib import Path

import numpy as np

# --- posture, registry, debounce, controller, wire ---------------------------

THUMB_MCP, THUMB_TIP, MIDDLE_MCP = 2, 4, 9
FINGER_MCP_TIP = ((5, 8), (9, 12), (13, 16), (17, 20))
THUMB_MIN_DX = 0.04
THUMB_SLOPE_MAX = 1.0
DEADZONE, GAIN, MAX_STEPS = 0.05, 40.0, 20


def posture(pts) -> tuple[int, ...]:
    """Five finger bits, thumb first, for 21 (x, y) points (y grows downward)."""
    mx, my = pts[THUMB_MCP]
    tx, ty = pts[THUMB_TIP]
    dx = tx - mx
    thumb = 0 if abs(dx) < THUMB_MIN_DX else int(abs((ty - my) / dx) <= THUMB_SLOPE_MAX)
    return (thumb,) + tuple(int(pts[tip][1] < pts[mcp][1]) for mcp, tip in FINGER_MCP_TIP)


def load_registry(path: str | Path) -> list[tuple[str, object, int]]:
    """(name, pattern, hold_frames) in file order; a pattern is a bit tuple or (R, L)."""
    entries = []
    for entry in json.loads(Path(path).read_text("ascii")):
        pattern = entry["pattern"]
        if "single" in pattern:
            bits = tuple(pattern["single"])
        else:
            bits = (tuple(pattern["double"]["R"]), tuple(pattern["double"]["L"]))
        entries.append((entry["name"], bits, entry.get("hold_frames", 5)))
    return entries


def classify(postures: dict[str, tuple], registry) -> str | None:
    """First registry entry the hands satisfy; ``postures`` maps "R"/"L" to bits."""
    right, left = postures.get("R"), postures.get("L")
    for name, pattern, _ in registry:
        if isinstance(pattern[0], tuple):
            if right == pattern[0] and left == pattern[1]:
                return name
        elif pattern in (right, left):
            return name
    return None


class Debounce:
    """A gesture opens after hold_frames equal frames and closes on the first other."""

    def __init__(self, registry):
        self.hold = {name: hold for name, _, hold in registry}
        self.candidate, self.streak, self.active = None, 0, None

    def step(self, name: str | None) -> list[tuple[str, str]]:
        """Events as ("onset" | "offset", gesture) for one classified frame."""
        events = []
        if self.active is not None and name != self.active:
            events.append(("offset", self.active))
            self.active = None
        if name is None or name == self.active:
            self.candidate, self.streak = None, 0
            return events
        self.streak = self.streak + 1 if name == self.candidate else 1
        self.candidate = name
        if self.streak >= self.hold[name]:
            self.active, self.candidate, self.streak = name, None, 0
            events.append(("onset", name))
        return events


def centering_wire(fx: float, fy: float) -> list[bytes]:
    """Motor lines that move the focal point toward (0.5, 0.5), X first."""
    lines = []
    for axis, error in (("X", fx - 0.5), ("Y", fy - 0.5)):
        if abs(error) <= DEADZONE:
            continue
        scaled = error * GAIN
        steps = int(math.floor(abs(scaled) + 0.5))
        steps = min(max(steps, 1), MAX_STEPS)
        lines.append(f"M {axis} {'+' if error > 0 else '-'}{steps}\n".encode("ascii"))
    return lines


def expected_wire(frames, registry, mapping: dict[str, tuple[str, str]]) -> tuple[bytes, dict]:
    """Sink bytes and onset and offset counts for frames of ``[(hd, pts), ...]``,
    right hand first.

    ``mapping`` gives each gesture its (device, action).
    """
    debounce = Debounce(registry)
    out = []
    counts = {"onsets": 0, "offsets": 0}
    for hands in frames:
        if hands:
            fx, fy = hands[0][1][MIDDLE_MCP]
            out.extend(centering_wire(fx, fy))
        name = classify({hd: posture(pts) for hd, pts in hands}, registry) if hands else None
        for kind, gesture in debounce.step(name):
            counts[kind + "s"] += 1
            if kind == "onset" and gesture in mapping:
                device, action = mapping[gesture]
                out.append(f"D {device} {action}\n".encode("ascii"))
    return b"".join(out), counts


def wire_mismatch(got: bytes, want: bytes) -> str | None:
    """None when equal, else where the first differing byte sits."""
    if got == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return f"sink differs at byte {at} ({len(got)} bytes written, {len(want)} expected)"


# --- anchor decode and NMS ---------------------------------------------------

def anchor_array(layers) -> np.ndarray:
    """(N, 4) anchors (cx, cy, w, h): layer by layer, rows, columns, scales, ratios."""
    out = []
    for grid_w, grid_h, scales, ratios in layers:
        sizes = [(s * math.sqrt(r), s / math.sqrt(r)) for s in scales for r in ratios]
        for row in range(grid_h):
            for col in range(grid_w):
                for w, h in sizes:
                    out.append(((col + 0.5) / grid_w, (row + 0.5) / grid_h, w, h))
    return np.array(out, dtype=np.float64)


def decode(preds: np.ndarray, anchors: np.ndarray,
           center_variance: float = 0.1, size_variance: float = 0.2) -> np.ndarray:
    """(N, 5) boxes (cx, cy, w, h, score) from (N, 5) rows (logit, tx, ty, tw, th)."""
    logit, tx, ty, tw, th = preds.T
    acx, acy, aw, ah = anchors.T
    score = np.where(logit >= 0, 1.0 / (1.0 + np.exp(-np.abs(logit))),
                     np.exp(-np.abs(logit)) / (1.0 + np.exp(-np.abs(logit))))
    return np.stack([acx + tx * center_variance * aw, acy + ty * center_variance * ah,
                     aw * np.exp(tw * size_variance), ah * np.exp(th * size_variance),
                     score], axis=1)


def greedy_nms(boxes: np.ndarray, iou_thresh: float = 0.3,
               score_thresh: float = 0.5) -> np.ndarray:
    """Indices of the kept boxes, best first."""
    idx = np.flatnonzero(boxes[:, 4] >= score_thresh)
    idx = idx[np.lexsort((idx, -boxes[idx, 4]))]
    x1 = boxes[:, 0] - boxes[:, 2] / 2
    y1 = boxes[:, 1] - boxes[:, 3] / 2
    x2 = boxes[:, 0] + boxes[:, 2] / 2
    y2 = boxes[:, 1] + boxes[:, 3] / 2
    area = (x2 - x1) * (y2 - y1)
    kept = []
    while idx.size:
        i, rest = idx[0], idx[1:]
        kept.append(i)
        iw = np.minimum(x2[i], x2[rest]) - np.maximum(x1[i], x1[rest])
        ih = np.minimum(y2[i], y2[rest]) - np.maximum(y1[i], y1[rest])
        inter = iw * ih
        overlap = np.where((iw > 0) & (ih > 0), inter / (area[i] + area[rest] - inter), 0.0)
        idx = rest[overlap <= iou_thresh]
    return np.array(kept, dtype=np.int64)


def keypoint(region, row: int, col: int, height: int, width: int) -> tuple[float, float]:
    """Image point of a peak at (row, col) of an H x W map over region (cx, cy, w, h)."""
    cx, cy, w, h = region
    return (cx - w / 2 + (col + 0.5) / width * w, cy - h / 2 + (row + 0.5) / height * h)


# --- palm encoder ------------------------------------------------------------

def embed(params: dict, x: np.ndarray) -> np.ndarray:
    """Embeddings of a (N, D) batch under params decoded from the params JSON."""
    hidden = np.maximum(x @ np.asarray(params["w1"]).T + np.asarray(params["b1"]), 0.0)
    out = hidden @ np.asarray(params["w2"]).T + np.asarray(params["b2"])
    if params["normalize"]:
        out = out / np.maximum(np.sqrt((out * out).sum(axis=1, keepdims=True)), 1e-12)
    return out


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) Euclidean distances."""
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def eer_threshold(genuine, impostor) -> float:
    """The first threshold (over 0, every distance and +inf) minimising |FAR - FRR|.

    FAR(t) counts impostor distances <= t, FRR(t) genuine distances > t.
    """
    g = np.sort(np.asarray(genuine, dtype=np.float64))
    im = np.sort(np.asarray(impostor, dtype=np.float64))
    thresholds = np.append(np.unique(np.concatenate([g, im, [0.0]])), np.inf)
    far = np.searchsorted(im, thresholds, side="right") / im.size
    frr = 1.0 - np.searchsorted(g, thresholds, side="right") / g.size
    return float(thresholds[int(np.argmin(np.abs(far - frr)))])


def loo_threshold(subject: str, embedded: dict[str, np.ndarray]) -> float:
    """Enrollment threshold: leave-one-out genuine minima against every other subject."""
    own = embedded[subject]
    within = distances(own, own)
    np.fill_diagonal(within, np.inf)
    genuine = within.min(axis=1)
    impostor = np.concatenate([distances(rows, own).min(axis=1)
                               for other, rows in embedded.items() if other != subject])
    return eer_threshold(genuine, impostor)


# --- report cells ------------------------------------------------------------

_DOWN = Context(prec=60, rounding=ROUND_DOWN)


def pct_truncated(numerator: int, denominator: int) -> str:
    """100 * n / d truncated (not rounded) to two decimals."""
    exact = _DOWN.divide(Decimal(100 * numerator), Decimal(denominator))
    return str(exact.quantize(Decimal("0.01"), rounding=ROUND_DOWN))


def recall_cell(numerator: int, denominator: int) -> str:
    """The double n / d rounded half-even to two decimals."""
    return str(Decimal(numerator / denominator).quantize(Decimal("0.01"),
                                                         rounding=ROUND_HALF_EVEN))
