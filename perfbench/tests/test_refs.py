"""The reference computations agree with cases worked by hand."""

import math

import numpy as np
import pytest

import common
import refs

REGISTRY = refs.load_registry(common.REGISTRY_JSON)


def hand(thumb_tip=(0.30, 0.70), tips_up=(True, False, False, False)):
    """21 points: thumb MCP at (0.36, 0.72), finger MCPs on y = 0.6."""
    pts = [(0.5, 0.9)] * 21
    pts[2] = (0.36, 0.72)
    pts[4] = thumb_tip
    for f, up in enumerate(tips_up):
        pts[5 + 4 * f] = (0.4 + 0.05 * f, 0.6)
        pts[8 + 4 * f] = (0.4 + 0.05 * f, 0.45 if up else 0.7)
    return pts


class TestPosture:
    def test_open_thumb_and_index(self):
        assert refs.posture(hand()) == (1, 1, 0, 0, 0)

    def test_thumb_needs_lateral_displacement(self):
        assert refs.posture(hand(thumb_tip=(0.33, 0.70)))[0] == 0  # |dx| 0.03 < 0.04

    def test_thumb_needs_a_shallow_slope(self):
        assert refs.posture(hand(thumb_tip=(0.30, 0.60)))[0] == 0  # |dy/dx| 2 > 1

    def test_finger_tip_level_with_mcp_is_folded(self):
        pts = hand(tips_up=(False, False, False, False))
        pts[8] = (0.4, 0.6)
        assert refs.posture(pts)[1] == 0


class TestClassify:
    def test_double_entry_wins_over_single(self):
        fist = (0, 0, 0, 0, 0)
        assert refs.classify({"R": fist, "L": fist}, REGISTRY) == "Collab_2H"
        assert refs.classify({"R": fist}, REGISTRY) == "Punch_VRF"

    def test_single_entry_matches_a_left_hand(self):
        assert refs.classify({"L": (0, 1, 0, 0, 0)}, REGISTRY) == "One_VRF"

    def test_no_match(self):
        assert refs.classify({"R": (1, 0, 1, 0, 1)}, REGISTRY) is None


def test_debounce_fires_after_hold_and_closes_on_change():
    registry = [("a", (1, 1, 1, 1, 1), 2), ("b", (0, 0, 0, 0, 0), 2)]
    debounce = refs.Debounce(registry)
    steps = [debounce.step(name) for name in ("a", "b", "a", "a", "a", None, "b", "b")]
    assert steps == [[], [], [], [("onset", "a")], [], [("offset", "a")], [],
                     [("onset", "b")]]


class TestCentering:
    def test_inside_deadzone_sends_nothing(self):
        assert refs.centering_wire(0.5, 0.54) == []

    def test_half_step_rounds_away_from_zero(self):
        # 0.0625 * 40 = 2.5 exactly
        assert refs.centering_wire(0.5625, 0.4375) == [b"M X +3\n", b"M Y -3\n"]

    def test_clamped_to_max_steps(self):
        assert refs.centering_wire(1.0, 0.0) == [b"M X +20\n", b"M Y -20\n"]


def test_expected_wire_for_a_held_gesture():
    pts = hand(thumb_tip=(0.36, 0.80), tips_up=(True, False, False, False))
    pts[9] = (0.5, 0.5)  # focal point at the centre: no motor commands
    frames = [[("R", pts)]] * 5 + [[]]
    wire, counts = refs.expected_wire(frames, REGISTRY, {"One_VRF": ("tv", "ONE")})
    assert wire == b"D tv ONE\n"
    assert counts == {"onsets": 1, "offsets": 1}


def test_wire_mismatch_names_the_first_differing_byte():
    assert refs.wire_mismatch(b"M X +3\n", b"M X +3\n") is None
    assert "byte 4" in refs.wire_mismatch(b"M X -3\n", b"M X +3\n")


class TestDecodeAndNms:
    def test_anchor_tiling_order(self):
        anchors = refs.anchor_array([(2, 1, (0.5,), (1.0, 4.0))])
        assert anchors.tolist() == [[0.25, 0.5, 0.5, 0.5], [0.25, 0.5, 1.0, 0.25],
                                    [0.75, 0.5, 0.5, 0.5], [0.75, 0.5, 1.0, 0.25]]

    def test_zero_offsets_give_the_anchor(self):
        boxes = refs.decode(np.zeros((1, 5)), np.array([[0.3, 0.4, 0.2, 0.1]]))
        assert boxes.tolist() == [[0.3, 0.4, 0.2, 0.1, 0.5]]

    def test_offsets_and_sigmoid(self):
        boxes = refs.decode(np.array([[math.log(3.0), 1.0, -1.0, 5.0, 0.0]]),
                            np.array([[0.5, 0.5, 0.2, 0.4]]))
        assert boxes[0] == pytest.approx([0.52, 0.46, 0.2 * math.e, 0.4, 0.75])

    def test_greedy_nms(self):
        boxes = np.array([
            [1.0, 0.5, 2.0, 1.0, 0.9],   # kept
            [2.0, 0.5, 2.0, 1.0, 0.9],   # IoU 1/3 with box 0: kept at 1/3, ties after 0
            [1.1, 0.5, 2.0, 1.0, 0.8],   # IoU 0.9 with box 0: suppressed
            [9.0, 9.0, 1.0, 1.0, 0.4],   # below the score threshold
        ])
        assert refs.greedy_nms(boxes, iou_thresh=1 / 3).tolist() == [0, 1]
        assert refs.greedy_nms(boxes, iou_thresh=0.3).tolist() == [0]


def test_keypoint_cell_centre():
    assert refs.keypoint((0.5, 0.5, 1.0, 1.0), 0, 1, 2, 2) == (0.75, 0.25)
    assert refs.keypoint((0.4, 0.6, 0.2, 0.4), 3, 0, 4, 2) == pytest.approx((0.35, 0.75))


class TestPalm:
    IDENTITY = {"w1": np.eye(2), "b1": np.zeros(2), "w2": np.eye(2), "b2": np.zeros(2)}

    def test_embed_is_relu_then_linear(self):
        params = dict(self.IDENTITY, normalize=False)
        assert refs.embed(params, np.array([[3.0, -4.0]])).tolist() == [[3.0, 0.0]]

    def test_embed_normalizes(self):
        params = dict(self.IDENTITY, normalize=True)
        assert refs.embed(params, np.array([[3.0, 4.0]])).tolist() == [[0.6, 0.8]]

    def test_distances(self):
        got = refs.distances(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0], [0.0, 1.0]]))
        assert got.tolist() == [[5.0, 1.0]]

    def test_eer_threshold(self):
        # thresholds 0, .1, .2, .3, .4, inf: |FAR - FRR| = 1, .5, 0, .5, 1, 1
        assert refs.eer_threshold([0.1, 0.2], [0.3, 0.4]) == 0.2

    def test_eer_threshold_takes_the_first_minimum(self):
        # thresholds 0, 1, 2, 3, inf: FAR 0, .5, .5, 1, 1; FRR 1, 1, 0, 0, 0
        assert refs.eer_threshold([2.0], [1.0, 3.0]) == 1.0

    def test_loo_threshold(self):
        embedded = {"a": np.array([[0.0], [1.0]]), "b": np.array([[5.0], [7.0]])}
        # genuine minima 1, 1; impostor minima (b to a) 4, 6: EER at 1
        assert refs.loo_threshold("a", embedded) == 1.0


class TestCells:
    @pytest.mark.parametrize("n, d, want", [(2, 3, "66.66"), (1, 3, "33.33"),
                                            (10816, 11250, "96.14"), (434, 11250, "3.85"),
                                            (1, 1, "100.00"), (0, 5, "0.00")])
    def test_pct_truncated(self, n, d, want):
        assert refs.pct_truncated(n, d) == want

    @pytest.mark.parametrize("n, d, want", [(2, 3, "0.67"), (1, 8, "0.12"), (3, 8, "0.38"),
                                            (1, 40, "0.03"), (1, 1, "1.00")])
    def test_recall_cell(self, n, d, want):
        assert refs.recall_cell(n, d) == want
