"""Frame and event evaluation, plus the truncated-percentage table formatting."""

import io

import pytest

from handwave import (
    DEFAULT_FINGER_PARAMS,
    DataError,
    DoublePattern,
    EvalRow,
    FingerStateParams,
    GestureDef,
    GestureRegistry,
    PostureArray,
    StreamOrderError,
    SynthSpec,
    default_registry,
    evaluate,
    evaluate_events,
    format_report_table,
    format_row_cells,
    hand_template,
    pct_floor,
    read_labelled,
    report_to_obj,
    synth_corpus,
    write_labelled,
)
from handwave.evaluate import evaluate_corpus
from handwave.model import HandFrame

ONE = PostureArray.of(0, 1, 0, 0, 0)
TWO = PostureArray.of(0, 1, 1, 0, 0)
FIVE = PostureArray.of(1, 1, 1, 1, 1)


def small_registry(hold_frames=3):
    return GestureRegistry([
        GestureDef("One", ONE, hold_frames=hold_frames),
        GestureDef("Two", TWO, hold_frames=hold_frames),
        GestureDef("Five", FIVE, hold_frames=hold_frames),
    ])


def frames_of(posture, count, label, start_t=0, step=40):
    lms = hand_template(posture)
    return [(HandFrame(t_ms=start_t + i * step, hands=(lms,)), label)
            for i in range(count)]


class TestEvaluate:
    def test_clean_corpus_is_perfect(self):
        spec = SynthSpec.from_registry(default_registry(), frames_per_gesture=4,
                                       jitter_sigma=0.0)
        report = evaluate(synth_corpus(spec), default_registry())
        assert report.totals.total_frames == 64
        assert report.totals.correct_frames == 64
        assert report.totals.accuracy_pct == 100.0
        for row in report.rows:
            assert row.error_pct == 0.0 and row.recall == 1.0

    def test_micro_corpus_with_one_wrong_frame(self):
        # ten "One" frames, one of which actually shows Two
        pairs = frames_of(ONE, 9, "One") + frames_of(TWO, 1, "One", start_t=360)
        report = evaluate(pairs, small_registry())
        row = report.rows[0]
        assert (row.total_frames, row.correct_frames, row.false_frames) == (10, 9, 1)
        assert format_row_cells(row) == ("90.00", "10.00", "0.90")
        assert row.recall == pytest.approx(0.9)

    def test_accuracy_error_partition(self):
        pairs = (frames_of(ONE, 7, "One")
                 + frames_of(TWO, 2, "One", start_t=280)
                 + frames_of(TWO, 5, "Two", start_t=360))
        report = evaluate(pairs, small_registry())
        for row in (*report.rows, report.totals):
            assert row.accuracy_pct + row.error_pct == pytest.approx(100.0)
            assert row.recall == pytest.approx(row.correct_frames / row.total_frames)

    def test_confusion_counts(self):
        pairs = (frames_of(ONE, 3, "One")
                 + frames_of(TWO, 1, "One", start_t=120)
                 + frames_of(TWO, 4, "Two", start_t=160))
        report = evaluate(pairs, small_registry())
        assert report.labels == ("One", "Two")
        one_row = report.confusion[report.labels.index("One")]
        assert one_row[report.columns.index("One")] == 3
        assert one_row[report.columns.index("Two")] == 1
        assert int(report.confusion.sum()) == 8

    def test_unmatched_frames_land_in_none_column(self):
        three = PostureArray.of(0, 1, 1, 1, 0)  # not in the small registry
        pairs = frames_of(ONE, 2, "One") + frames_of(three, 2, "One", start_t=80)
        report = evaluate(pairs, small_registry())
        none_col = report.columns.index("none")
        assert report.confusion[0][none_col] == 2

    def test_stray_predicted_name_gets_a_column(self):
        pairs = frames_of(ONE, 2, "Mystery")
        report = evaluate(pairs, small_registry())
        assert "Mystery" in report.labels
        assert "One" in report.columns
        assert report.totals.correct_frames == 0

    def test_empty_stream_rejected(self):
        with pytest.raises(DataError):
            evaluate([], small_registry())

    def test_stray_columns_sorted_after_labels(self):
        pairs = (frames_of(TWO, 1, "X") + frames_of(FIVE, 2, "X", start_t=40)
                 + frames_of(ONE, 1, "X", start_t=120))
        report = evaluate(pairs, small_registry())
        assert report.columns == ("X", "Five", "One", "Two", "none")
        assert report.confusion.tolist() == [[0, 2, 1, 1, 0]]

    def test_gesture_named_none_shares_the_none_column(self):
        registry = GestureRegistry([GestureDef("none", ONE), GestureDef("Two", TWO)])
        pairs = frames_of(ONE, 2, "none") + frames_of(FIVE, 1, "none", start_t=80)
        report = evaluate(pairs, registry)
        assert (report.labels, report.columns) == (("none",), ("none",))
        assert report.confusion.tolist() == [[3]]
        assert report.totals.correct_frames == 3


def scored(report):
    return report_to_obj(report), format_report_table(report), report.confusion.dtype


class TestEvaluateCorpus:
    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.2])
    @pytest.mark.parametrize("registry, params", [
        (default_registry(), DEFAULT_FINGER_PARAMS),
        (GestureRegistry([GestureDef("none", ONE), GestureDef("Two", TWO),
                          GestureDef("Both", DoublePattern(right=FIVE, left=TWO))]),
         FingerStateParams(thumb_slope_max=0.5, thumb_min_dx=0.1)),
    ], ids=["stock", "custom"])
    def test_arrays_give_the_frame_by_frame_report(self, sigma, registry, params):
        spec = SynthSpec.from_registry(default_registry(), frames_per_gesture=7,
                                       jitter_sigma=sigma, seed=11)
        text = io.StringIO()
        write_labelled(text, synth_corpus(spec))
        lines = text.getvalue().splitlines()
        want = evaluate(read_labelled(lines), registry, params)
        assert scored(evaluate_corpus(lines, registry, params)) == scored(want)

    def test_rejected_corpus_raises_the_line_error(self):
        lines = ['{"t": 0, "hands": []}', '{"t": 0, "hands": []}']
        with pytest.raises(StreamOrderError,
                           match="^line 2: timestamp 0 does not increase past 0$"):
            evaluate_corpus(lines, small_registry())

    def test_empty_corpus_rejected_as_evaluate_rejects_it(self):
        with pytest.raises(DataError, match="^evaluate: the labelled stream is empty$"):
            evaluate_corpus(["\n"], small_registry())


class TestPctFloor:
    @pytest.mark.parametrize("n,d,expected", [
        (714, 750, "95.20"),
        (718, 750, "95.73"),
        (10816, 11250, "96.14"),
        (434, 11250, "3.85"),
        (1, 3, "33.33"),
        (2, 3, "66.66"),     # truncation, not rounding
        (750, 750, "100.00"),
        (0, 5, "0.00"),
    ])
    def test_exact_strings(self, n, d, expected):
        assert pct_floor(n, d) == expected

    def test_bad_denominator(self):
        with pytest.raises(DataError):
            pct_floor(1, 0)


class TestFormatting:
    def test_truncated_percentages_rounded_recall(self):
        # 718/750: accuracy truncates (95.733 -> 95.73), error truncates
        # (4.266 -> 4.26), recall rounds (0.9573 -> 0.96)
        row = EvalRow.from_counts("x", 750, 718)
        assert format_row_cells(row) == ("95.73", "4.26", "0.96")

    def test_table_header_and_total_line(self):
        pairs = frames_of(ONE, 4, "One")
        table = format_report_table(evaluate(pairs, small_registry()))
        lines = table.splitlines()
        assert lines[0].split() == [
            "gesture", "total", "correct", "false", "accuracy%", "error%", "recall"]
        assert lines[-1].split() == ["total", "4", "4", "0", "100.00", "0.00", "1.00"]

    def test_report_to_obj_shape(self):
        pairs = frames_of(ONE, 2, "One") + frames_of(TWO, 2, "Two", start_t=80)
        obj = report_to_obj(evaluate(pairs, small_registry()))
        assert {r["name"] for r in obj["rows"]} == {"One", "Two"}
        assert obj["totals"]["total_frames"] == 4
        assert obj["confusion"]["labels"] == ["One", "Two"]
        matrix = obj["confusion"]["counts"]
        assert sum(sum(r) for r in matrix) == 4


class TestEvaluateEvents:
    def test_clean_runs_all_detected(self):
        registry = small_registry(hold_frames=3)
        pairs = frames_of(ONE, 6, "One") + frames_of(TWO, 6, "Two", start_t=240)
        result = evaluate_events(pairs, registry)
        assert result["per_gesture"]["One"] == {
            "expected": 1, "detected": 1, "spurious": 0}
        assert result["totals"] == {"expected": 2, "detected": 2, "spurious": 0}

    def test_run_shorter_than_hold_missed(self):
        registry = small_registry(hold_frames=5)
        pairs = frames_of(ONE, 3, "One")  # never reaches the hold requirement
        result = evaluate_events(pairs, registry)
        assert result["per_gesture"]["One"] == {
            "expected": 1, "detected": 0, "spurious": 0}

    def test_onset_under_wrong_label_is_spurious(self):
        registry = small_registry(hold_frames=3)
        pairs = frames_of(ONE, 6, "Two")  # shows One while labelled Two
        result = evaluate_events(pairs, registry)
        assert result["per_gesture"]["Two"]["detected"] == 0
        assert result["per_gesture"]["One"]["spurious"] == 1

    def test_none_spans_are_not_expected_events(self):
        registry = small_registry(hold_frames=3)
        folded = PostureArray.of(0, 0, 0, 0, 0)
        pairs = (frames_of(ONE, 5, "One")
                 + frames_of(folded, 4, "none", start_t=200)
                 + frames_of(ONE, 5, "One", start_t=360))
        result = evaluate_events(pairs, registry)
        assert result["per_gesture"]["One"]["expected"] == 2
        assert result["totals"]["expected"] == 2

    def test_empty_stream_rejected(self):
        with pytest.raises(DataError):
            evaluate_events([], small_registry())
