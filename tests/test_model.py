"""Core data types: construction invariants, canonical ordering, derived counts."""

import math

import numpy as np
import pytest

from handwave import (
    DoublePattern,
    EvalReport,
    EvalRow,
    GestureDef,
    GestureEvent,
    HandFrame,
    Handedness,
    LandmarkSet,
    Point2,
    PostureArray,
    ValidationError,
)
from handwave.model import NUM_LANDMARKS


def make_hand(handedness="R", x=0.5, y=0.5):
    pts = np.full((NUM_LANDMARKS, 2), (x, y), dtype=np.float64)
    return LandmarkSet(points=pts, handedness=handedness)


class TestPoint2:
    def test_holds_coordinates(self):
        p = Point2(0.25, 0.75)
        assert p.x == 0.25 and p.y == 0.75

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError):
            Point2(bad, 0.5)
        with pytest.raises(ValidationError):
            Point2(0.5, bad)

    def test_out_of_unit_range_allowed_at_construction(self):
        # Intermediate geometry may leave the unit square; only the stream
        # layer enforces [0, 1].
        Point2(-0.25, 1.75)


class TestLandmarkSet:
    def test_requires_21_points(self):
        with pytest.raises(ValidationError, match="21"):
            LandmarkSet(points=np.zeros((20, 2)), handedness="R")

    def test_confidences_default_to_ones(self):
        lms = make_hand()
        assert lms.confidences.shape == (21,)
        assert (lms.confidences == 1.0).all()

    def test_confidence_count_and_range_checked(self):
        pts = np.zeros((21, 2))
        with pytest.raises(ValidationError, match="confidences"):
            LandmarkSet(points=pts, handedness="R", confidences=np.ones(20))
        with pytest.raises(ValidationError, match="confidences"):
            LandmarkSet(points=pts, handedness="R", confidences=np.full(21, 1.5))
        with pytest.raises(ValidationError, match="confidences"):
            LandmarkSet(points=pts, handedness="R", confidences=np.full(21, -0.1))

    def test_handedness_coerced_from_string(self):
        assert make_hand("L").handedness is Handedness.LEFT
        with pytest.raises(ValidationError, match="handedness"):
            make_hand("Z")

    def test_arrays_are_read_only(self):
        lms = make_hand()
        with pytest.raises(ValueError):
            lms.points[0, 0] = 0.9
        with pytest.raises(ValueError):
            lms.confidences[0] = 0.5

    def test_rejects_non_finite_points(self):
        pts = np.zeros((21, 2))
        pts[3, 1] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            LandmarkSet(points=pts, handedness="R")

    def test_point_accessor(self):
        pts = np.zeros((21, 2))
        pts[9] = (0.2, 0.8)
        lms = LandmarkSet(points=pts, handedness="R")
        assert lms.point(9) == Point2(0.2, 0.8)

    def test_equality_is_structural(self):
        a, b = make_hand(), make_hand()
        assert a == b
        assert a != make_hand("L")
        assert a != make_hand(x=0.4)


class TestHandFrame:
    def test_empty_frame(self):
        frame = HandFrame(t_ms=0)
        assert frame.hands == ()

    def test_timestamp_must_be_non_negative_int(self):
        with pytest.raises(ValidationError, match="t"):
            HandFrame(t_ms=-1)
        with pytest.raises(ValidationError, match="t"):
            HandFrame(t_ms=1.5)
        with pytest.raises(ValidationError, match="t"):
            HandFrame(t_ms=True)

    def test_canonical_order_right_first(self):
        frame = HandFrame(t_ms=0, hands=(make_hand("L"), make_hand("R")))
        assert [h.handedness for h in frame.hands] == [Handedness.RIGHT, Handedness.LEFT]

    def test_rejects_duplicate_handedness(self):
        with pytest.raises(ValidationError, match="duplicate"):
            HandFrame(t_ms=0, hands=(make_hand("R"), make_hand("R")))

    def test_rejects_three_hands(self):
        with pytest.raises(ValidationError, match="at most 2"):
            HandFrame(t_ms=0, hands=(make_hand("R"), make_hand("L"), make_hand("R")))


class TestPostureArray:
    def test_of_and_iteration(self):
        arr = PostureArray.of(1, 0, 1, 0, 1)
        assert tuple(arr) == (1, 0, 1, 0, 1)
        assert arr[0] == 1 and arr[1] == 0

    def test_requires_five_binary_states(self):
        with pytest.raises(ValidationError):
            PostureArray.of(1, 0, 1)
        with pytest.raises(ValidationError):
            PostureArray.of(1, 0, 2, 0, 1)

    def test_equality(self):
        assert PostureArray.of(0, 1, 0, 0, 0) == PostureArray.of(0, 1, 0, 0, 0)
        assert PostureArray.of(0, 1, 0, 0, 0) != PostureArray.of(1, 1, 0, 0, 0)


class TestGestureDef:
    def test_single_and_double_patterns(self):
        single = GestureDef("One", PostureArray.of(0, 1, 0, 0, 0))
        assert single.hold_frames == 5
        double = GestureDef("TimeOut", DoublePattern(
            right=PostureArray.of(1, 1, 1, 1, 1), left=PostureArray.of(1, 1, 1, 1, 1)))
        assert isinstance(double.pattern, DoublePattern)

    def test_invalid_defs_rejected(self):
        with pytest.raises(ValidationError):
            GestureDef("", PostureArray.of(0, 1, 0, 0, 0))
        with pytest.raises(ValidationError):
            GestureDef("X", (0, 1, 0, 0, 0))
        with pytest.raises(ValidationError):
            GestureDef("X", PostureArray.of(0, 1, 0, 0, 0), hold_frames=0)


class TestGestureEvent:
    def test_onset_and_closed_events(self):
        onset = GestureEvent("One", onset_ms=100)
        assert onset.is_onset and onset.offset_ms is None
        closed = GestureEvent("One", onset_ms=100, offset_ms=180)
        assert not closed.is_onset

    def test_offset_cannot_precede_onset(self):
        with pytest.raises(ValidationError):
            GestureEvent("One", onset_ms=200, offset_ms=100)

    def test_zero_length_event_allowed(self):
        GestureEvent("One", onset_ms=100, offset_ms=100)


class TestEvalRow:
    def test_from_counts_arithmetic(self):
        # 9 of 10 correct: accuracy 90, error 10, recall 0.9 (plain counting).
        row = EvalRow.from_counts("A", 10, 9)
        assert row.false_frames == 1
        assert row.accuracy_pct == 90.0
        assert row.error_pct == 10.0
        assert row.recall == 0.9

    def test_accuracy_plus_error_is_100(self):
        for total, correct in [(750, 718), (11250, 10816), (3, 1), (7, 7)]:
            row = EvalRow.from_counts("x", total, correct)
            assert abs(row.accuracy_pct + row.error_pct - 100.0) <= 1e-9
            assert row.correct_frames + row.false_frames == row.total_frames
            assert row.recall == pytest.approx(row.accuracy_pct / 100.0, abs=1e-12)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValidationError):
            EvalRow.from_counts("x", 0, 0)
        with pytest.raises(ValidationError):
            EvalRow.from_counts("x", 5, 6)
        with pytest.raises(ValidationError):
            EvalRow("x", 10, 6, 5, 60.0, 40.0, 0.6)


class TestEvalReport:
    @staticmethod
    def tiny_report(confusion):
        rows = (EvalRow.from_counts("A", 3, 2), EvalRow.from_counts("B", 2, 2))
        totals = EvalRow.from_counts("total", 5, 4)
        return EvalReport(rows=rows, totals=totals, labels=("A", "B"),
                          columns=("A", "B", "none"), confusion=np.array(confusion))

    def test_consistent_report_accepted(self):
        report = self.tiny_report([[2, 0, 1], [0, 2, 0]])
        assert report.confusion.sum() == 5
        assert not report.confusion.flags.writeable

    def test_row_sum_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="row"):
            self.tiny_report([[2, 0, 0], [0, 2, 0]])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            self.tiny_report([[4, 0, -1], [0, 2, 0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            self.tiny_report([[2, 1], [0, 2]])
