"""Detector post-processing: anchor tiling, box decoding, NMS, keypoint peaks.

Boxes are (cx, cy, w, h) in normalized image coordinates. Raw detector outputs
are (logit, tx, ty, tw, th) rows, decoded against a fixed anchor tiling:

    cx = a.cx + tx * center_variance * a.w
    cy = a.cy + ty * center_variance * a.h
    w  = a.w * exp(tw * size_variance)
    h  = a.h * exp(th * size_variance)
    score = sigmoid(logit)

Keypoints come from per-landmark confidence maps: the peak cell's center,
mapped through the detected hand region into image coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ._jsonio import NUMBER_ERRORS, line_records, number, number_array
from .errors import ConfigError, DecodeError, ValidationError
from .model import NUM_LANDMARKS, Handedness, LandmarkSet

DEFAULT_IOU_THRESH = 0.3
DEFAULT_SCORE_THRESH = 0.5

# decode_record's numpy prefilter picks the rows that go through decode_box.
# numpy's exp may differ from math.exp in the last bit, so every bound keeps a
# margin far wider than that: a score within _SCORE_MARGIN of the threshold,
# or a size exponent or size near where math.exp overflows (above ~709.78) or
# the size underflows, sends its row to the scalar path.
_SCORE_MARGIN = 1e-9
_EXP_LIMIT = 700.0
_SIZE_MIN, _SIZE_MAX = 1e-300, 1e300


@dataclass(frozen=True)
class Anchor:
    """A prior box: center in [0, 1] x [0, 1], width/height in (0, 1]."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.cx, self.cy, self.w, self.h)):
            raise ValidationError("anchor: fields must be finite")
        if not (0.0 <= self.cx <= 1.0 and 0.0 <= self.cy <= 1.0):
            raise ValidationError(f"anchor: center ({self.cx}, {self.cy}) outside [0, 1]")
        if not (0.0 < self.w <= 1.0 and 0.0 < self.h <= 1.0):
            raise ValidationError(f"anchor: size ({self.w}, {self.h}) outside (0, 1]")


@dataclass(frozen=True)
class BBox:
    """A scored box. Centers may drift outside the unit square after decoding."""

    cx: float
    cy: float
    w: float
    h: float
    score: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.cx, self.cy, self.w, self.h, self.score)):
            raise ValidationError("box: fields must be finite")
        if self.w <= 0.0 or self.h <= 0.0:
            raise ValidationError(f"box: width/height must be positive, got ({self.w}, {self.h})")
        if not 0.0 <= self.score <= 1.0:
            raise ValidationError(f"box: score must lie in [0, 1], got {self.score}")


@dataclass(frozen=True)
class RawPrediction:
    """One raw detector row: score logit plus center/size offsets."""

    logit: float
    tx: float
    ty: float
    tw: float
    th: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.logit, self.tx, self.ty, self.tw, self.th)):
            raise ValidationError("prediction: fields must be finite")


@dataclass(frozen=True)
class LayerSpec:
    """One feature-map layer of the anchor tiling."""

    grid_w: int
    grid_h: int
    scales: tuple[float, ...]
    aspect_ratios: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
        object.__setattr__(self, "aspect_ratios", tuple(float(r) for r in self.aspect_ratios))
        if self.grid_w < 1 or self.grid_h < 1:
            raise ConfigError(f"layer: grid must be at least 1x1, got {self.grid_w}x{self.grid_h}")
        if not self.scales or not self.aspect_ratios:
            raise ConfigError("layer: scales and aspect_ratios must be non-empty")
        if any(s <= 0 or not math.isfinite(s) for s in self.scales):
            raise ConfigError("layer: scales must be positive and finite")
        if any(r <= 0 or not math.isfinite(r) for r in self.aspect_ratios):
            raise ConfigError("layer: aspect_ratios must be positive and finite")

    @property
    def anchors_per_cell(self) -> int:
        return len(self.scales) * len(self.aspect_ratios)


@dataclass(frozen=True)
class AnchorConfig:
    """Anchor tiling plus the decode variances."""

    layers: tuple[LayerSpec, ...]
    center_variance: float = 0.1
    size_variance: float = 0.2

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ConfigError("anchors: at least one layer is required")
        if self.center_variance <= 0 or not math.isfinite(self.center_variance):
            raise ConfigError(f"anchors: center_variance must be positive, got {self.center_variance}")
        if self.size_variance <= 0 or not math.isfinite(self.size_variance):
            raise ConfigError(f"anchors: size_variance must be positive, got {self.size_variance}")

    @property
    def num_anchors(self) -> int:
        return sum(l.grid_w * l.grid_h * l.anchors_per_cell for l in self.layers)

    @classmethod
    def from_obj(cls, obj: Any) -> "AnchorConfig":
        if not isinstance(obj, dict):
            raise ConfigError("anchors: expected an object")
        layers = obj.get("layers")
        if not isinstance(layers, list) or not all(isinstance(layer, dict) for layer in layers):
            raise ConfigError("anchors: layers must be a list of objects")
        specs = []
        for i, layer in enumerate(layers):
            where = f"anchors: layers[{i}]"
            specs.append(LayerSpec(
                grid_w=number(layer.get("grid_w"), f"{where}.grid_w", ConfigError, integer=True),
                grid_h=number(layer.get("grid_h"), f"{where}.grid_h", ConfigError, integer=True),
                scales=number_array(layer.get("scales"), f"{where}.scales", ConfigError),
                aspect_ratios=number_array(
                    layer.get("aspect_ratios"), f"{where}.aspect_ratios", ConfigError)))
        return cls(layers=specs,
                   center_variance=number(obj.get("center_variance", 0.1),
                                          "anchors: center_variance", ConfigError),
                   size_variance=number(obj.get("size_variance", 0.2),
                                        "anchors: size_variance", ConfigError))

    def to_obj(self) -> dict:
        return {
            "layers": [
                {"grid_w": l.grid_w, "grid_h": l.grid_h,
                 "scales": list(l.scales), "aspect_ratios": list(l.aspect_ratios)}
                for l in self.layers
            ],
            "center_variance": self.center_variance,
            "size_variance": self.size_variance,
        }


def generate_anchors(cfg: AnchorConfig) -> list[Anchor]:
    """Tile anchors over every layer, row-major, scales outer and ratios inner.

    Cell (row, col) on a grid_w x grid_h layer centers its anchors at
    ((col + 0.5) / grid_w, (row + 0.5) / grid_h); each (scale, ratio) pair
    contributes width scale * sqrt(ratio) and height scale / sqrt(ratio).
    """
    anchors: list[Anchor] = []
    for layer in cfg.layers:
        sizes = []
        for scale in layer.scales:
            for ratio in layer.aspect_ratios:
                root = math.sqrt(ratio)
                w, h = scale * root, scale / root
                if w > 1.0 or h > 1.0:
                    raise ConfigError(
                        f"anchors: scale {scale} with ratio {ratio} yields size ({w:.4f}, {h:.4f}) above 1")
                sizes.append((w, h))
        for row in range(layer.grid_h):
            cy = (row + 0.5) / layer.grid_h
            for col in range(layer.grid_w):
                cx = (col + 0.5) / layer.grid_w
                for w, h in sizes:
                    anchors.append(Anchor(cx, cy, w, h))
    return anchors


@functools.lru_cache(maxsize=4)
def _tiling(cfg: AnchorConfig) -> tuple[tuple[Anchor, ...], np.ndarray]:
    """The anchors of ``cfg``, as objects and as a read-only (N, 4) array."""
    anchors = tuple(generate_anchors(cfg))
    geometry = np.array([(a.cx, a.cy, a.w, a.h) for a in anchors], dtype=np.float64)
    geometry.setflags(write=False)
    return anchors, geometry


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def decode_box(raw: RawPrediction, anchor: Anchor, cfg: AnchorConfig) -> BBox:
    """Decode one raw prediction against its anchor.

    Zero offsets return the anchor geometry unchanged. Raises DecodeError if
    the exponential size transform overflows to a non-finite value.
    """
    cx = anchor.cx + raw.tx * cfg.center_variance * anchor.w
    cy = anchor.cy + raw.ty * cfg.center_variance * anchor.h
    try:
        w = anchor.w * math.exp(raw.tw * cfg.size_variance)
        h = anchor.h * math.exp(raw.th * cfg.size_variance)
    except OverflowError as exc:
        raise DecodeError(f"size transform overflowed: tw={raw.tw}, th={raw.th}") from exc
    if not all(math.isfinite(v) for v in (cx, cy, w, h)):
        raise DecodeError(f"decoded box is not finite: ({cx}, {cy}, {w}, {h})")
    if w <= 0.0 or h <= 0.0:
        raise DecodeError(f"decoded box has non-positive size: ({w}, {h})")
    return BBox(cx, cy, w, h, _sigmoid(raw.logit))


def iou(a, b) -> float:
    """Intersection over union of two center/size boxes (Anchor or BBox).

    Areas come from the corner differences rather than the stored w/h so
    that identical boxes score exactly 1.0 despite the center/corner float
    conversion.
    """
    ax1, ay1 = a.cx - a.w / 2, a.cy - a.h / 2
    ax2, ay2 = a.cx + a.w / 2, a.cy + a.h / 2
    bx1, by1 = b.cx - b.w / 2, b.cy - b.h / 2
    bx2, by2 = b.cx + b.w / 2, b.cy + b.h / 2
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def nms(boxes: Sequence[BBox],
        iou_thresh: float = DEFAULT_IOU_THRESH,
        score_thresh: float = DEFAULT_SCORE_THRESH) -> list[BBox]:
    """Greedy non-maximum suppression.

    Boxes scoring below ``score_thresh`` are dropped, the rest are visited in
    descending score order (ties broken toward the earlier input index); each
    kept box suppresses every remaining box whose IoU with it strictly exceeds
    ``iou_thresh``. The result is ordered by descending score.
    """
    for name, value in (("iou_thresh", iou_thresh), ("score_thresh", score_thresh)):
        if not (0.0 <= value <= 1.0):
            raise ConfigError(f"nms: {name} must lie in [0, 1], got {value}")
    candidates = [(box, i) for i, box in enumerate(boxes) if box.score >= score_thresh]
    if not candidates:
        return []
    candidates.sort(key=lambda pair: (-pair[0].score, pair[1]))
    # Corners and areas in the operation order of iou, so that each IoU row
    # holds exactly the values iou would return.
    geometry = np.array([(box.cx, box.cy, box.w, box.h) for box, _ in candidates])
    cx, cy, w, h = geometry.T
    alive = np.ones(len(candidates), dtype=bool)
    kept: list[BBox] = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x1, y1, x2, y2 = cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2
        areas = (x2 - x1) * (y2 - y1)
        for k, (box, _) in enumerate(candidates):
            if not alive[k]:
                continue
            kept.append(box)
            rest = slice(k + 1, None)
            iw = np.minimum(x2[k], x2[rest]) - np.maximum(x1[k], x1[rest])
            ih = np.minimum(y2[k], y2[rest]) - np.maximum(y1[k], y1[rest])
            inter = iw * ih
            union = (areas[k] + areas[rest]) - inter
            alive[rest] &= ~((iw > 0.0) & (ih > 0.0) & (inter / union > iou_thresh))
    return kept


def decode_keypoints(maps: np.ndarray,
                     region: BBox | Anchor,
                     handedness: Handedness = Handedness.RIGHT) -> LandmarkSet:
    """Extract 21 keypoints from per-landmark confidence maps.

    ``maps`` is (21, H, W) with H, W >= 2, finite and non-negative. For each
    map the peak cell (row-major first occurrence on ties) yields the point

        x = region_left + (col + 0.5) / W * region.w
        y = region_top  + (row + 0.5) / H * region.h

    with confidence min(peak, 1.0). An all-zero map is not an error: it yields
    the region center at confidence 0. The maps carry no laterality, so the
    returned set is tagged with ``handedness`` (right unless told otherwise).
    """
    grids = np.asarray(maps, dtype=np.float64)
    if grids.ndim != 3 or grids.shape[0] != NUM_LANDMARKS:
        raise ValidationError(
            f"maps: expected shape ({NUM_LANDMARKS}, H, W), got {grids.shape}")
    _, height, width = grids.shape
    if height < 2 or width < 2:
        raise ValidationError(f"maps: grid must be at least 2x2, got {height}x{width}")
    if not np.isfinite(grids).all():
        raise ValidationError("maps: values must be finite")
    if (grids < 0.0).any():
        raise ValidationError("maps: values must be non-negative")
    left = region.cx - region.w / 2
    top = region.cy - region.h / 2
    flat = grids.reshape(NUM_LANDMARKS, -1)
    peak = flat.max(axis=1)
    row, col = np.divmod(flat.argmax(axis=1), width)
    lit = peak != 0.0  # an all-zero map gives the region centre
    u = np.where(lit, (col + 0.5) / width, 0.5)
    v = np.where(lit, (row + 0.5) / height, 0.5)
    with np.errstate(over="ignore"):  # an overflow gives inf, which LandmarkSet rejects
        points = np.column_stack((left + u * region.w, top + v * region.h))
    conf = np.where(lit, np.minimum(peak, 1.0), 0.0)
    return LandmarkSet(points=points, handedness=handedness, confidences=conf)


@dataclass(frozen=True)
class PredictionRecord:
    """One raw-prediction file record: the tiling it was made against plus rows."""

    anchors_cfg: AnchorConfig
    preds: np.ndarray  # (N, 5) float64: logit, tx, ty, tw, th

    def __post_init__(self) -> None:
        try:  # numpy's conversion, for speed: it takes true as 1.0 and "0.5" as 0.5
            preds = np.asarray(self.preds, dtype=np.float64)
        except NUMBER_ERRORS as exc:
            raise ValidationError(f"preds: expected rows of numbers ({exc})") from exc
        if preds.ndim != 2 or preds.shape[1] != 5:
            raise ValidationError(f"preds: expected (N, 5) rows, got shape {preds.shape}")
        if not np.isfinite(preds).all():
            raise ValidationError("preds: values must be finite")
        if preds.shape[0] != self.anchors_cfg.num_anchors:
            raise ValidationError(
                f"preds: {preds.shape[0]} rows but the tiling defines "
                f"{self.anchors_cfg.num_anchors} anchors")
        preds.setflags(write=False)
        object.__setattr__(self, "preds", preds)


def _prediction_record(obj: Any) -> PredictionRecord:
    if not isinstance(obj, dict) or "anchors_cfg" not in obj or "preds" not in obj:
        raise ValidationError("expected fields 'anchors_cfg' and 'preds'")
    return PredictionRecord(anchors_cfg=AnchorConfig.from_obj(obj["anchors_cfg"]),
                            preds=obj["preds"])


def read_predictions(source: Iterable[str] | str | Path) -> Iterator[PredictionRecord]:
    """Yield PredictionRecords from raw-prediction JSONL.

    Line schema: {"anchors_cfg": {...}, "preds": [[logit, tx, ty, tw, th] * N]}
    where N must equal the anchor count the config defines.
    """
    return line_records(source, _prediction_record)


def decode_record(record: PredictionRecord,
                  iou_thresh: float = DEFAULT_IOU_THRESH,
                  score_thresh: float = DEFAULT_SCORE_THRESH) -> list[BBox]:
    """Decode a record's rows against its tiling and run NMS.

    Gives what decoding every row with decode_box and passing the boxes to nms
    gives, errors included. numpy only picks the rows that can matter: those
    whose score may reach ``score_thresh`` and those whose decode may fail.
    Those rows go through decode_box in index order, so every returned value
    and the first failure come from the scalar path.
    """
    cfg = record.anchors_cfg
    anchors, geometry = _tiling(cfg)
    logit, tx, ty, tw, th = record.preds.T
    ax, ay, aw, ah = geometry.T
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        cx = ax + tx * cfg.center_variance * aw
        cy = ay + ty * cfg.center_variance * ah
        sw, sh = tw * cfg.size_variance, th * cfg.size_variance
        w, h = aw * np.exp(sw), ah * np.exp(sh)
        z = np.exp(-np.abs(logit))
    score = np.where(logit >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
    safe = (np.isfinite(cx) & np.isfinite(cy)
            & (np.abs(sw) < _EXP_LIMIT) & (np.abs(sh) < _EXP_LIMIT)
            & (w > _SIZE_MIN) & (w < _SIZE_MAX) & (h > _SIZE_MIN) & (h < _SIZE_MAX))
    rows = np.flatnonzero(~safe | (score >= score_thresh - _SCORE_MARGIN))
    boxes = [decode_box(RawPrediction(*record.preds[i].tolist()), anchors[i], cfg) for i in rows]
    return nms(boxes, iou_thresh=iou_thresh, score_thresh=score_thresh)


@dataclass(frozen=True)
class ConfidenceMapRecord:
    """One confidence-map file record: 21 grids plus an optional source region."""

    maps: np.ndarray  # (21, H, W)
    region: BBox | None = None


def _confidence_map_record(obj: Any) -> ConfidenceMapRecord:
    if not isinstance(obj, dict):
        raise ValidationError("expected an object")
    height = number(obj.get("h"), "h", ValidationError, integer=True)
    width = number(obj.get("w"), "w", ValidationError, integer=True)
    rows = obj.get("maps")
    if height < 1 or width < 1:
        raise ValidationError(f"h and w must be at least 1, got h={height}, w={width}")
    if not isinstance(rows, list) or len(rows) != NUM_LANDMARKS:
        raise ValidationError(f"expected {NUM_LANDMARKS} maps")
    try:  # numpy's conversion, for speed: it takes true as 1.0 and "0.5" as 0.5
        grids = np.asarray(rows, dtype=np.float64).reshape(NUM_LANDMARKS, height, width)
    except NUMBER_ERRORS as exc:
        raise ValidationError(f"map size does not match h*w ({exc})") from exc
    region = None
    if "region" in obj:
        vals = obj["region"]
        if not isinstance(vals, list) or len(vals) != 4:
            raise ValidationError("region must be [cx, cy, w, h]")
        region = BBox(*number_array(vals, "region", ValidationError).tolist(), 1.0)
    return ConfidenceMapRecord(maps=grids, region=region)


def read_confidence_maps(source: Iterable[str] | str | Path) -> Iterator[ConfidenceMapRecord]:
    """Yield confidence-map records from JSONL.

    Line schema: {"h": H, "w": W, "maps": [[row-major reals] * 21]} plus an
    optional "region": [cx, cy, w, h] locating the maps inside the image
    (full image when absent).
    """
    return line_records(source, _confidence_map_record)


FULL_IMAGE = BBox(0.5, 0.5, 1.0, 1.0, 1.0)

