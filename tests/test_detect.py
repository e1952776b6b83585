"""Anchor tiling, box decode, IoU/NMS, and confidence-map peak decoding."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handwave import (
    Anchor,
    AnchorConfig,
    BBox,
    ConfigError,
    DecodeError,
    FULL_IMAGE,
    Handedness,
    LayerSpec,
    RawPrediction,
    ValidationError,
    decode_box,
    decode_keypoints,
    generate_anchors,
    iou,
    nms,
)
from handwave import detect
from handwave.detect import (
    PredictionRecord,
    decode_record,
    read_confidence_maps,
    read_predictions,
)


def one_layer(grid_w, grid_h, scales=(0.3,), ratios=(1.0,), **kwargs):
    return AnchorConfig(layers=(LayerSpec(grid_w, grid_h, tuple(scales), tuple(ratios)),),
                        **kwargs)


def boxes_to_corners(arr):
    """(N,4) center boxes -> (N,4) corner boxes, vectorized."""
    half = arr[:, 2:] / 2.0
    return np.concatenate([arr[:, :2] - half, arr[:, :2] + half], axis=1)


def iou_matrix(arr):
    """Pairwise IoU of (N,4) center-format boxes, straight from the overlap formula."""
    corners = boxes_to_corners(arr)
    x1 = np.maximum(corners[:, None, 0], corners[None, :, 0])
    y1 = np.maximum(corners[:, None, 1], corners[None, :, 1])
    x2 = np.minimum(corners[:, None, 2], corners[None, :, 2])
    y2 = np.minimum(corners[:, None, 3], corners[None, :, 3])
    inter = np.clip(x2 - x1, 0.0, None) * np.clip(y2 - y1, 0.0, None)
    areas = (corners[:, 2] - corners[:, 0]) * (corners[:, 3] - corners[:, 1])
    union = areas[:, None] + areas[None, :] - inter
    # No overlap is IoU 0, also for boxes of zero area whose union is 0.
    return np.divide(inter, union, out=np.zeros_like(inter), where=inter > 0.0)


def reference_nms(boxes, iou_thresh, score_thresh):
    """Naive greedy suppression used as the oracle: stable sort, mask sweep."""
    keep_mask = [b.score >= score_thresh for b in boxes]
    candidates = [i for i, ok in enumerate(keep_mask) if ok]
    if not candidates:
        return []
    arr = np.array([[boxes[i].cx, boxes[i].cy, boxes[i].w, boxes[i].h] for i in candidates])
    scores = np.array([boxes[i].score for i in candidates])
    matrix = iou_matrix(arr)
    order = sorted(range(len(candidates)), key=lambda k: (-scores[k], candidates[k]))
    alive = np.ones(len(candidates), dtype=bool)
    kept = []
    for k in order:
        if not alive[k]:
            continue
        kept.append(candidates[k])
        alive &= matrix[k] <= iou_thresh
        alive[k] = False
    return [boxes[i] for i in kept]


def random_box_set(rng, n):
    """Clustered random boxes so suppression actually happens."""
    centers = rng.uniform(0.2, 0.8, size=(max(1, n // 20), 2))
    out = []
    for _ in range(n):
        cx, cy = centers[rng.integers(len(centers))] + rng.normal(0, 0.05, 2)
        out.append(BBox(cx=float(cx), cy=float(cy),
                        w=float(rng.uniform(0.05, 0.3)), h=float(rng.uniform(0.05, 0.3)),
                        score=float(rng.uniform(0, 1))))
    return out


class TestGenerateAnchors:
    def test_single_center_cell(self):
        cfg = one_layer(1, 1, scales=[0.5])
        assert generate_anchors(cfg) == [Anchor(0.5, 0.5, 0.5, 0.5)]

    def test_two_by_two_row_major(self):
        cfg = one_layer(2, 2, scales=[0.25])
        centers = [(a.cx, a.cy) for a in generate_anchors(cfg)]
        assert centers == [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)]

    def test_aspect_ratio_geometry(self):
        # w = 0.2 * sqrt(4) = 0.4, h = 0.2 / sqrt(4) = 0.1
        cfg = one_layer(3, 3, scales=[0.2], ratios=[4.0])
        a = generate_anchors(cfg)[0]
        assert a.w == pytest.approx(0.4, abs=1e-15)
        assert a.h == pytest.approx(0.1, abs=1e-15)

    def test_count_formula_random_configs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            layers = []
            expected = 0
            for _ in range(rng.integers(1, 4)):
                gw, gh = int(rng.integers(1, 9)), int(rng.integers(1, 9))
                scales = tuple(float(s) for s in rng.uniform(0.05, 0.6, rng.integers(1, 4)))
                ratios = tuple(float(r) for r in rng.uniform(0.5, 2.0, rng.integers(1, 3)))
                layers.append(LayerSpec(gw, gh, scales, ratios))
                expected += gw * gh * len(scales) * len(ratios)
            cfg = AnchorConfig(layers=tuple(layers))
            assert cfg.num_anchors == expected
            assert len(generate_anchors(cfg)) == expected

    def test_layer_order_preserved(self):
        cfg = AnchorConfig(layers=(LayerSpec(1, 1, (0.5,), (1.0,)),
                                   LayerSpec(2, 1, (0.25,), (1.0,))))
        anchors = generate_anchors(cfg)
        assert anchors[0].w == 0.5 and anchors[1].w == 0.25

    def test_oversize_anchor_rejected(self):
        with pytest.raises(ConfigError):
            generate_anchors(one_layer(1, 1, scales=[0.8], ratios=[4.0]))  # w = 1.6


class TestDecodeBox:
    def test_zero_offsets_identity(self):
        cfg = one_layer(2, 2)
        for anchor in generate_anchors(cfg):
            box = decode_box(RawPrediction(0.0, 0.0, 0.0, 0.0, 0.0), anchor, cfg)
            assert (box.cx, box.cy, box.w, box.h) == (anchor.cx, anchor.cy, anchor.w, anchor.h)
            assert box.score == 0.5

    def test_zero_offsets_identity_any_variances(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            cfg = one_layer(2, 2, center_variance=float(rng.uniform(0.01, 1)),
                            size_variance=float(rng.uniform(0.01, 1)))
            anchor = generate_anchors(cfg)[1]
            box = decode_box(RawPrediction(1.0, 0.0, 0.0, 0.0, 0.0), anchor, cfg)
            assert (box.cx, box.cy, box.w, box.h) == (anchor.cx, anchor.cy, anchor.w, anchor.h)

    def test_center_shift(self):
        # cx = 0.5 + 1 * 0.1 * 0.2 = 0.52
        cfg = AnchorConfig(layers=(LayerSpec(1, 1, (0.2,), (1.0,)),), center_variance=0.1)
        anchor = Anchor(0.5, 0.5, 0.2, 0.2)
        box = decode_box(RawPrediction(0.0, 1.0, 0.0, 0.0, 0.0), anchor, cfg)
        assert box.cx == pytest.approx(0.52, abs=1e-15)
        assert box.cy == 0.5

    def test_log_size_doubling(self):
        cfg = one_layer(1, 1, scales=[0.2])  # size_variance 0.2
        tw = math.log(2.0) / cfg.size_variance
        box = decode_box(RawPrediction(0.0, 0.0, 0.0, tw, 0.0), generate_anchors(cfg)[0], cfg)
        assert box.w == pytest.approx(0.4, rel=1e-12)

    def test_score_is_sigmoid_of_logit(self):
        cfg = one_layer(1, 1)
        anchor = generate_anchors(cfg)[0]
        for logit in (-30.0, -2.0, 0.0, 3.0, 40.0):
            box = decode_box(RawPrediction(logit, 0, 0, 0, 0), anchor, cfg)
            assert box.score == pytest.approx(1.0 / (1.0 + math.exp(-logit)), abs=1e-15)

    def test_overflowing_size_is_decode_error(self):
        cfg = one_layer(1, 1)
        with pytest.raises(DecodeError):
            decode_box(RawPrediction(0, 0, 0, 1e4, 0), generate_anchors(cfg)[0], cfg)


class TestIou:
    def test_identical(self):
        box = BBox(0.5, 0.5, 0.2, 0.4, 0.9)
        assert iou(box, box) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0.2, 0.2, 0.1, 0.1, 0.5), BBox(0.8, 0.8, 0.1, 0.1, 0.5)) == 0.0

    def test_half_shift_is_one_third(self):
        # overlap 0.5, union 1.5 -> exactly 1/3
        a = BBox(0.5, 0.5, 1.0, 1.0, 0.5)
        b = BBox(1.0, 0.5, 1.0, 1.0, 0.5)
        assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = random_box_set(rng, 2)
            assert iou(a, b) == iou(b, a)
            assert 0.0 <= iou(a, b) <= 1.0

    def test_anchor_box_mix(self):
        assert iou(Anchor(0.5, 0.5, 0.2, 0.2), BBox(0.5, 0.5, 0.2, 0.2, 1.0)) == 1.0


class TestNms:
    def test_empty(self):
        assert nms([], iou_thresh=0.3, score_thresh=0.5) == []

    def test_identical_boxes_suppressed(self):
        a = BBox(0.5, 0.5, 0.2, 0.2, 0.9)
        b = BBox(0.5, 0.5, 0.2, 0.2, 0.8)
        assert nms([b, a], iou_thresh=0.5, score_thresh=0.0) == [a]

    def test_score_threshold_drops_low(self):
        a = BBox(0.2, 0.2, 0.1, 0.1, 0.49)
        b = BBox(0.8, 0.8, 0.1, 0.1, 0.51)
        assert nms([a, b], iou_thresh=0.3, score_thresh=0.5) == [b]

    def test_tie_broken_by_lower_index(self):
        a = BBox(0.5, 0.5, 0.2, 0.2, 0.7)
        b = BBox(0.5, 0.5, 0.2, 0.2, 0.7)
        kept = nms([a, b], iou_thresh=0.3, score_thresh=0.0)
        assert len(kept) == 1 and kept[0] is a

    def test_exact_threshold_survives(self):
        # IoU exactly equal to iou_thresh is NOT suppressed (strict >).
        a = BBox(0.5, 0.5, 1.0, 1.0, 0.9)
        b = BBox(1.0, 0.5, 1.0, 1.0, 0.8)  # IoU 1/3 with a
        kept = nms([a, b], iou_thresh=1.0 / 3.0, score_thresh=0.0)
        assert kept == [a, b]

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ConfigError):
            nms([], iou_thresh=1.5, score_thresh=0.5)
        with pytest.raises(ConfigError):
            nms([], iou_thresh=0.3, score_thresh=-0.1)

    def test_output_properties_random(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            boxes = random_box_set(rng, int(rng.integers(1, 120)))
            kept = nms(boxes, iou_thresh=0.3, score_thresh=0.4)
            assert all(k in boxes for k in kept)
            scores = [k.score for k in kept]
            assert scores == sorted(scores, reverse=True)
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    assert iou(kept[i], kept[j]) <= 0.3 + 1e-12

    def test_matches_vectorized_oracle_on_1000_clustered_boxes(self):
        from test_acceptance import _oracle_nms
        boxes = random_box_set(np.random.default_rng(41), 1000)
        for iou_t, score_t in [(0.3, 0.5), (0.0, 0.0), (0.5, 0.2), (1.0, 0.0), (0.3, 1.0)]:
            kept = nms(boxes, iou_thresh=iou_t, score_thresh=score_t)
            want = _oracle_nms(boxes, iou_t, score_t)
            assert len(kept) == len(want) and all(a is b for a, b in zip(kept, want))

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(23)
        for trial in range(40):
            n = int(rng.integers(1, 200)) if trial < 38 else 1000
            boxes = random_box_set(rng, n)
            iou_t = float(rng.uniform(0.1, 0.7))
            score_t = float(rng.uniform(0.0, 0.6))
            assert nms(boxes, iou_thresh=iou_t, score_thresh=score_t) == \
                reference_nms(boxes, iou_t, score_t)

    def test_boxes_with_coinciding_corners_are_kept(self):
        # Two anchors share a centre; th = -3750 shrinks both heights far
        # below the centre's last bit, so every box has zero area.
        cfg = AnchorConfig(layers=(LayerSpec(1, 1, (0.3,), (1.0, 2.0)),), size_variance=0.1875)
        record = PredictionRecord(anchors_cfg=cfg, preds=[[4.0, 0.0, 0.0, 0.0, -3750.0],
                                                          [3.0, 0.0, 0.0, 0.0, -3750.0]])
        boxes = decode_record(record, iou_thresh=0.0, score_thresh=0.5)
        assert len(boxes) == 2
        assert all(b.cy - b.h / 2 == b.cy + b.h / 2 for b in boxes)
        assert reference_nms(boxes, 0.0, 0.5) == boxes
        assert scalar_decode_record(record, 0.0, 0.5) == boxes


def loop_decode_keypoints(maps, region):
    """decode_keypoints's points and confidences, one map at a time (the reference)."""
    _, height, width = maps.shape
    left = region.cx - region.w / 2
    top = region.cy - region.h / 2
    points = np.empty((21, 2), dtype=np.float64)
    conf = np.empty(21, dtype=np.float64)
    for k in range(21):
        grid = maps[k]
        peak = grid.max()
        if peak == 0.0:
            u, v = 0.5, 0.5
            conf[k] = 0.0
        else:
            row, col = divmod(int(grid.argmax()), width)
            u = (col + 0.5) / width
            v = (row + 0.5) / height
            conf[k] = min(float(peak), 1.0)
        points[k] = (left + u * region.w, top + v * region.h)
    return points, conf


class TestDecodeKeypoints:
    def test_matches_the_loop_bit_for_bit(self):
        rng = np.random.default_rng(20261019)
        for case in range(1000):
            h, w = rng.integers(2, 30, size=2)
            maps = rng.uniform(0.0, 1.5, size=(21, h, w))
            if case % 3 == 1:  # ties: few distinct values
                maps = np.round(maps, 1)
            dark = rng.random(21) < 0.3
            maps[dark] = 0.0
            maps[dark & (rng.random(21) < 0.5)] = -0.0
            cx, cy = rng.uniform(0.2, 0.8, size=2)
            size = rng.uniform(0.05, 0.4, size=2)
            region = BBox(cx, cy, size[0], size[1], 1.0)
            points, conf = loop_decode_keypoints(maps, region)
            lms = decode_keypoints(maps, region)
            assert lms.points.tobytes() == points.tobytes(), case
            assert lms.confidences.tobytes() == conf.tobytes(), case

    def test_negative_zero_map_gives_positive_zero_confidence(self):
        maps = np.full((21, 3, 3), -0.0)
        lms = decode_keypoints(maps, FULL_IMAGE)
        assert lms.confidences.tobytes() == np.zeros(21).tobytes()
        assert (lms.points == 0.5).all()

    @staticmethod
    def maps_with_peaks(cells, h=8, w=8, value=1.0):
        maps = np.zeros((21, h, w))
        for k, (r, c) in enumerate(cells):
            maps[k, r, c] = value
        return maps

    def test_delta_peak_full_image(self):
        maps = self.maps_with_peaks([(2, 3)] + [(0, 0)] * 20)
        lms = decode_keypoints(maps, FULL_IMAGE)
        assert lms.points[0].tolist() == [(3 + 0.5) / 8, (2 + 0.5) / 8]
        assert lms.confidences[0] == 1.0
        assert lms.handedness is Handedness.RIGHT

    def test_tie_takes_first_row_major(self):
        maps = np.zeros((21, 4, 4))
        maps[:, 2, 1] = 0.7
        maps[:, 1, 3] = 0.7  # earlier row wins
        maps[:, 2, 3] = 0.7
        lms = decode_keypoints(maps, FULL_IMAGE)
        assert lms.points[0].tolist() == [(3 + 0.5) / 4, (1 + 0.5) / 4]

    def test_all_zero_map_center_with_zero_confidence(self):
        maps = np.zeros((21, 6, 6))
        maps[1:, 0, 0] = 1.0
        lms = decode_keypoints(maps, FULL_IMAGE)
        assert lms.points[0].tolist() == [0.5, 0.5]
        assert lms.confidences[0] == 0.0
        assert lms.confidences[1] == 1.0

    def test_confidence_clamped_to_one(self):
        maps = self.maps_with_peaks([(1, 1)] * 21, value=3.5)
        lms = decode_keypoints(maps, FULL_IMAGE)
        assert (lms.confidences == 1.0).all()

    def test_region_mapping_left_half(self):
        # Region covering the left half; peak at the map center -> x = 0.25.
        region = BBox(cx=0.25, cy=0.5, w=0.5, h=1.0, score=1.0)
        maps = np.zeros((21, 9, 9))
        maps[:, 4, 4] = 1.0
        lms = decode_keypoints(maps, region)
        assert lms.points[0, 0] == pytest.approx(0.25, abs=1e-15)
        assert lms.points[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(29)
        maps = rng.uniform(0, 1, size=(21, 16, 16))
        base = BBox(0.4, 0.4, 0.3, 0.3, 1.0)
        ref = decode_keypoints(maps, base)
        for _ in range(20):
            dx, dy = rng.uniform(-0.1, 0.2, 2)
            moved = BBox(base.cx + dx, base.cy + dy, base.w, base.h, 1.0)
            shifted = decode_keypoints(maps, moved)
            assert np.allclose(shifted.points - ref.points,
                               np.array([dx, dy]), atol=1e-12)

    def test_planted_gaussian_recovered(self):
        rng = np.random.default_rng(31)
        h = w = 32
        rows = rng.integers(0, h, 21)
        cols = rng.integers(0, w, 21)
        rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        maps = np.stack([np.exp(-((rr - r) ** 2 + (cc - c) ** 2) / (2 * 2.0 ** 2))
                         for r, c in zip(rows, cols)])
        lms = decode_keypoints(maps, FULL_IMAGE)
        assert np.array_equal(lms.points[:, 0], (cols + 0.5) / w)
        assert np.array_equal(lms.points[:, 1], (rows + 0.5) / h)

    def test_handedness_passthrough(self):
        maps = np.zeros((21, 4, 4))
        lms = decode_keypoints(maps, FULL_IMAGE, Handedness.LEFT)
        assert lms.handedness is Handedness.LEFT

    def test_shape_and_value_validation(self):
        with pytest.raises(ValidationError):
            decode_keypoints(np.zeros((20, 4, 4)), FULL_IMAGE)
        with pytest.raises(ValidationError):
            decode_keypoints(np.zeros((21, 1, 4)), FULL_IMAGE)
        bad = np.zeros((21, 4, 4))
        bad[0, 0, 0] = -0.5
        with pytest.raises(ValidationError):
            decode_keypoints(bad, FULL_IMAGE)
        bad = np.zeros((21, 4, 4))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            decode_keypoints(bad, FULL_IMAGE)


class TestRecordFiles:
    def test_prediction_record_round_trip(self, tmp_path):
        cfg = one_layer(2, 2)
        preds = np.zeros((cfg.num_anchors, 5))
        preds[1, 0] = 4.0
        path = tmp_path / "preds.jsonl"
        path.write_text(json.dumps({"anchors_cfg": cfg.to_obj(), "preds": preds.tolist()}) + "\n")
        records = list(read_predictions(path))
        assert len(records) == 1
        boxes = decode_record(records[0], iou_thresh=0.3, score_thresh=0.9)
        anchors = generate_anchors(cfg)
        assert len(boxes) == 1
        assert (boxes[0].cx, boxes[0].cy) == (anchors[1].cx, anchors[1].cy)
        assert all(type(v) is float for v in dataclasses.astuple(boxes[0]))

    def test_prediction_count_mismatch_rejected(self):
        cfg = one_layer(2, 2)
        line = json.dumps({"anchors_cfg": cfg.to_obj(), "preds": [[0, 0, 0, 0, 0]] * 3})
        with pytest.raises(ValidationError):
            list(read_predictions([line]))

    def test_confidence_map_records(self):
        maps = np.zeros((21, 4, 4)).tolist()
        lines = [json.dumps({"h": 4, "w": 4, "maps": maps}),
                 json.dumps({"h": 4, "w": 4, "maps": maps, "region": [0.5, 0.5, 0.4, 0.4]})]
        records = list(read_confidence_maps(lines))
        assert records[0].region is None
        assert records[1].region == BBox(0.5, 0.5, 0.4, 0.4, 1.0)

    @pytest.mark.parametrize("h, w", [(-1, 2), (2, -1), (0, 4)])
    def test_confidence_map_size_below_one_rejected(self, h, w):
        # reshape would read -1 as "infer this dimension" and accept the line
        line = json.dumps({"h": h, "w": w, "maps": [[0, 0, 0, 1]] * 21})
        with pytest.raises(ValidationError, match=f"got h={h}, w={w}"):
            list(read_confidence_maps([line]))

    def test_confidence_map_bad_shape_rejected(self):
        line = json.dumps({"h": 4, "w": 4, "maps": np.zeros((20, 4, 4)).tolist()})
        with pytest.raises(ValidationError):
            list(read_confidence_maps([line]))


def scalar_nms(boxes, iou_thresh, score_thresh):
    """Greedy suppression with the scalar iou, box pair by box pair.

    Like iou, and reference_nms, it takes no overlap as IoU 0, also for
    boxes whose corners coincide (a size far below the center's last bit).
    """
    candidates = sorted((i for i, b in enumerate(boxes) if b.score >= score_thresh),
                        key=lambda i: (-boxes[i].score, i))
    alive = [True] * len(candidates)
    kept = []
    for k, i in enumerate(candidates):
        if alive[k]:
            kept.append(boxes[i])
            for m in range(k + 1, len(candidates)):
                if alive[m] and iou(boxes[i], boxes[candidates[m]]) > iou_thresh:
                    alive[m] = False
    return kept


def scalar_decode_record(record, iou_thresh, score_thresh):
    """Every row through decode_box, then suppression with the scalar iou."""
    anchors = generate_anchors(record.anchors_cfg)
    boxes = [decode_box(RawPrediction(*row), anchor, record.anchors_cfg)
             for row, anchor in zip(record.preds, anchors)]
    return scalar_nms(boxes, iou_thresh, score_thresh)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


THRESHOLDS = st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0)


@st.composite
def tilings(draw):
    layers = tuple(
        LayerSpec(draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                  tuple(draw(st.lists(st.floats(0.05, 0.6) | st.sampled_from([1e-300, 1e-305]),
                                      min_size=1, max_size=2))),
                  tuple(draw(st.lists(st.sampled_from([1.0, 0.5, 2.0]), min_size=1,
                                      max_size=2))))
        for _ in range(draw(st.integers(1, 2))))
    return AnchorConfig(layers=layers, center_variance=draw(st.floats(0.05, 1.0)),
                        size_variance=draw(st.floats(0.05, 1.0)))


class TestDecodeRecord:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_scalar_decode(self, data):
        cfg = data.draw(tilings())
        # logits whose sigmoid lands on or within a few ulps of the threshold
        edge = data.draw(st.floats(-40.0, 40.0))
        iou_t = data.draw(THRESHOLDS)
        score_t = data.draw(THRESHOLDS | st.just(detect._sigmoid(edge)))
        logit = (st.floats(-40.0, 40.0)
                 | st.sampled_from([edge, math.nextafter(edge, -math.inf),
                                    math.nextafter(edge, math.inf), 36.8, 745.0, -745.0])
                 | st.floats(edge - 1e-9, edge + 1e-9))
        offset = st.floats(-5.0, 5.0)
        # sizes that stay finite and positive, or that may overflow or underflow
        size = data.draw(st.sampled_from([offset, st.floats(-700.0, 700.0),
                                          offset | st.floats(-4000.0, 4000.0)]))
        preds = data.draw(st.lists(st.tuples(logit, offset, offset, size, size),
                                   min_size=cfg.num_anchors, max_size=cfg.num_anchors))
        record = PredictionRecord(anchors_cfg=cfg, preds=preds)
        with np.errstate(over="ignore", invalid="ignore"):  # the scalar path on huge boxes
            want = _outcome(scalar_decode_record, record, iou_t, score_t)
        assert _outcome(decode_record, record, iou_t, score_t) == want

    def test_row_at_threshold_kept_where_numpy_rounds_its_score_below(self):
        logits = np.linspace(-30.0, -1.0, 2001)
        z = np.exp(logits)
        below = [x for x, score in zip(logits.tolist(), (z / (1.0 + z)).tolist())
                 if score < detect._sigmoid(x)]
        if not below:
            pytest.skip("numpy's exp matches math.exp on every sampled logit")
        record = PredictionRecord(one_layer(1, 1), [[below[0], 0.0, 0.0, 0.0, 0.0]])
        assert len(decode_record(record, score_thresh=detect._sigmoid(below[0]))) == 1

    def test_tiling_built_once_per_config(self, monkeypatch):
        calls = []

        def counted(cfg):
            calls.append(cfg)
            return generate_anchors(cfg)

        monkeypatch.setattr(detect, "generate_anchors", counted)
        detect._tiling.cache_clear()
        cfg = one_layer(3, 2, scales=(0.2, 0.4))
        rng = np.random.default_rng(43)
        for _ in range(3):  # equal configs built apart share one tiling
            same = AnchorConfig.from_obj(cfg.to_obj())
            decode_record(PredictionRecord(same, rng.normal(0, 1, (cfg.num_anchors, 5))))
        assert calls == [cfg]
        anchors, geometry = detect._tiling(cfg)
        assert geometry.tolist() == [[a.cx, a.cy, a.w, a.h] for a in anchors]
        assert not geometry.flags.writeable
        with pytest.raises(ValueError):
            geometry[0, 0] = 0.0

    def test_bad_tiling_raises_every_time(self):
        cfg = one_layer(1, 1, scales=[0.8], ratios=[4.0])  # w = 1.6
        record = PredictionRecord(cfg, np.zeros((1, 5)))
        for _ in range(2):
            with pytest.raises(ConfigError, match="above 1"):
                decode_record(record)

    def test_first_failing_row_raises_even_below_threshold(self):
        cfg = one_layer(2, 1)
        preds = np.zeros((2, 5))
        preds[:, 0] = -30.0  # both rows far below the score threshold
        preds[1, 3] = 1e4
        with pytest.raises(DecodeError, match="size transform overflowed: tw=10000.0"):
            decode_record(PredictionRecord(cfg, preds))
