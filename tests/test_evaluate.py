"""Frame and event evaluation, plus the truncated-percentage table formatting."""

import contextlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handwave import (
    DEFAULT_FINGER_PARAMS,
    DataError,
    DoublePattern,
    EvalRow,
    FingerStateParams,
    GestureDef,
    GestureRegistry,
    HandwaveError,
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
from handwave import cli, save_registry
from handwave._jsonio import dumps
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

    def test_streamed_frames_hold_no_per_frame_state(self):
        # Frames are scored as they arrive, so the peak does not grow with the
        # stream: two ids kept per frame would take about 400 KB here.
        frames = [*frames_of(ONE, 1, "One"), *frames_of(TWO, 1, "Two"),
                  *frames_of(FIVE, 1, "Two")]
        stream = (frames[i % 3] for i in range(10_000))
        registry = small_registry()
        tracemalloc.start()
        try:
            report = evaluate(stream, registry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.totals.total_frames == 10_000
        assert peak < 64 * 1024


def run_eval(lines, registry, params=DEFAULT_FINGER_PARAMS, *flags):
    """``handwave eval`` on a corpus of ``lines``, in process: (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus, registry_path, config = (Path(tmp, name) for name in
                                         ("corpus.jsonl", "registry.json", "config.json"))
        corpus.write_text("".join(line + "\n" for line in lines), "ascii")
        save_registry(registry_path, registry)
        config.write_text(dumps({"finger_params": {"thumb_slope_max": params.thumb_slope_max,
                                                   "thumb_min_dx": params.thumb_min_dx}}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["eval", "--corpus", str(corpus), "--registry", str(registry_path),
                             "--config", str(config), *flags])
    return code, out.getvalue(), err.getvalue()


class TestEvaluateCorpus:
    """``eval`` prints what evaluate(read_labelled(corpus)) reports, or the error it raises."""

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
        table = format_report_table(want)
        assert run_eval(lines, registry, params) == \
            (0, f"{dumps(report_to_obj(want))}\n{table}\n", "")

    def test_rejected_corpus_raises_the_line_error(self):
        lines = ['{"t": 0, "hands": []}', '{"t": 0, "hands": []}']
        message = "line 2: timestamp 0 does not increase past 0"
        with pytest.raises(StreamOrderError, match=f"^{message}$"):
            evaluate(read_labelled(lines), small_registry())
        assert run_eval(lines, small_registry()) == (1, "", f"error: {message}\n")

    def test_empty_corpus_rejected_as_evaluate_rejects_it(self):
        message = "evaluate: the labelled stream is empty"
        with pytest.raises(DataError, match=f"^{message}$"):
            evaluate(read_labelled(["\n"]), small_registry())
        assert run_eval(["\n"], small_registry()) == (1, "", f"error: {message}\n")


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

    def test_rows_in_order_of_first_appearance(self):
        # A run's row comes before the row of a spurious onset inside it.
        pairs = frames_of(ONE, 4, "Two") + frames_of(FIVE, 4, "One", start_t=160)
        result = evaluate_events(pairs, small_registry(hold_frames=3))
        assert list(result["per_gesture"].items()) == [
            ("Two", {"expected": 1, "detected": 0, "spurious": 0}),
            ("One", {"expected": 1, "detected": 0, "spurious": 1}),
            ("Five", {"expected": 0, "detected": 0, "spurious": 1})]


# The stock gestures with hold_frames 1 to 4 and the fourth renamed "none".
MIXED_HOLDS = GestureRegistry([
    GestureDef("none" if i == 3 else d.name, d.pattern, hold_frames=i % 4 + 1)
    for i, d in enumerate(default_registry())])


def corpus_lines(registry, seed, sigma, frames=12):
    spec = SynthSpec.from_registry(registry, frames_per_gesture=frames, jitter_sigma=sigma,
                                   seed=seed)
    text = io.StringIO()
    write_labelled(text, synth_corpus(spec))
    return text.getvalue().splitlines()


def events_outcome(lines, registry, params=DEFAULT_FINGER_PARAMS):
    """(eval --events, evaluate_events(read_labelled(lines))): each one's tally, or its error line."""
    code, out, err = run_eval(lines, registry, params, "--events")
    outcomes = [json.loads(out) if (code, err) == (0, "") else (code, out, err)]
    try:
        outcomes.append(evaluate_events(read_labelled(lines), registry, params))
    except HandwaveError as exc:
        outcomes.append((1, "", f"error: {exc}\n"))
    return outcomes


def _nodes(obj, path=()):
    yield path
    children = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield from _nodes(value, path + (key,))


ODD_VALUES = st.sampled_from([None, True, 0, 1, -1, 40, 1.5, 10**400, float("nan"), "", "R",
                              "none", "One_VRF", [], {}, [0.5, 0.5]])


class TestEvaluateCorpusEvents:
    """``eval --events`` prints what evaluate_events(read_labelled(corpus)) tallies, or its error."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("sigma", [0.0, 0.03, 0.05])
    @pytest.mark.parametrize("registry", [default_registry(), MIXED_HOLDS],
                             ids=["stock", "mixed-holds"])
    def test_arrays_give_the_frame_path_tally(self, seed, sigma, registry):
        corpus, frames = events_outcome(corpus_lines(registry, seed, sigma), registry)
        assert corpus == frames and type(corpus) is dict
        assert list(corpus["per_gesture"]) == list(frames["per_gesture"])
        assert corpus["totals"]["detected"] > 0

    def test_gesture_named_none_is_never_expected(self):
        lines = corpus_lines(MIXED_HOLDS, 3, 0.0)
        corpus, frames = events_outcome(lines, MIXED_HOLDS)
        assert corpus == frames and "none" not in corpus["per_gesture"]
        assert corpus["totals"] == {"expected": 15, "detected": 15, "spurious": 0}
        # Under another label its onset is spurious.
        lines = [line.replace('"label":"none"', '"label":"Other"') for line in lines]
        corpus, frames = events_outcome(lines, MIXED_HOLDS)
        assert corpus == frames
        assert corpus["per_gesture"]["Other"] == {"expected": 1, "detected": 0, "spurious": 0}
        assert corpus["per_gesture"]["none"] == {"expected": 0, "detected": 0, "spurious": 1}

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def test_mutated_corpus_fails_alike(self, data):
        lines = corpus_lines(MIXED_HOLDS, 4, 0.02, frames=2)
        line = data.draw(st.integers(0, len(lines) - 1))
        obj = json.loads(lines[line])
        path = data.draw(st.sampled_from(list(_nodes(obj))))
        if not path:
            obj = data.draw(ODD_VALUES)
        else:
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            if data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(ODD_VALUES)
        lines[line] = json.dumps(obj)
        corpus, frames = events_outcome(lines, MIXED_HOLDS)
        assert corpus == frames

    def test_empty_corpus_rejected_as_evaluate_events_rejects_it(self):
        assert events_outcome(["\n", " "], small_registry()) == \
            [(1, "", "error: evaluate: empty stream\n")] * 2
