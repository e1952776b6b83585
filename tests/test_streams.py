"""Frame JSONL: parse/serialize round trips, strict schema rejection, stream order."""

import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handwave import (
    HandFrame,
    HandwaveError,
    Handedness,
    LandmarkSet,
    ParseError,
    StreamOrderError,
    ValidationError,
    frame_from_obj,
    frame_to_obj,
    parse_frame,
    read_frames,
    read_labelled,
    serialize_frame,
    validate_frame,
    write_frames,
    write_labelled,
)
from handwave import streams

VALID_LINE = json.dumps({
    "t": 40,
    "hands": [{
        "hd": "R",
        "pts": [[0.5, 0.9]] * 21,
        "conf": [1.0] * 21,
    }],
})


def make_hand(handedness="R", value=0.5):
    return LandmarkSet(points=np.full((21, 2), value), handedness=handedness)


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def frames(draw):
    n_hands = draw(st.integers(min_value=0, max_value=2))
    sides = (["R"], ["L"], ["R", "L"])[n_hands - 1] if n_hands else []
    if n_hands == 1:
        sides = [draw(st.sampled_from(["R", "L"]))]
    hands = []
    for side in sides:
        pts = np.array(draw(st.lists(st.tuples(unit, unit), min_size=21, max_size=21)))
        conf = np.array(draw(st.lists(unit, min_size=21, max_size=21)))
        hands.append(LandmarkSet(points=pts, handedness=side, confidences=conf))
    return HandFrame(t_ms=draw(st.integers(min_value=0, max_value=10**9)), hands=tuple(hands))


class TestParse:
    def test_empty_frame_line(self):
        frame = parse_frame('{"t":0,"hands":[]}')
        assert frame.t_ms == 0 and frame.hands == ()

    def test_one_hand_line(self):
        frame = parse_frame(VALID_LINE)
        assert frame.t_ms == 40
        assert frame.hands[0].handedness is Handedness.RIGHT
        assert frame.hands[0].points[0].tolist() == [0.5, 0.9]

    def test_conf_defaults_to_ones_when_absent(self):
        obj = json.loads(VALID_LINE)
        del obj["hands"][0]["conf"]
        frame = frame_from_obj(obj)
        assert (frame.hands[0].confidences == 1.0).all()

    def test_malformed_json_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_frame('{"t":0,')

    @pytest.mark.parametrize("line, message", [
        ('{"t":0,', "malformed JSON: Expecting property name enclosed in double quotes"),
        ("[" * 100_000, "malformed JSON: maximum recursion depth exceeded"),
        ("1" * 5000, "malformed JSON: Exceeds the limit (4300 digits)"),
    ], ids=["syntax", "too-deep", "huge-integer"])
    def test_unreadable_json_is_parse_error(self, line, message):
        with pytest.raises(ParseError) as info:
            parse_frame(line)
        assert str(info.value).startswith(message)

    def test_out_of_range_coordinate_rejected(self):
        obj = json.loads(VALID_LINE)
        obj["hands"][0]["pts"][3] = [0.5, 1.2]
        with pytest.raises(ValidationError, match=r"pts\[3\]"):
            frame_from_obj(obj)

    def test_unknown_field_rejected(self):
        obj = json.loads(VALID_LINE)
        obj["extra"] = 1
        with pytest.raises(ValidationError, match="extra"):
            frame_from_obj(obj)
        obj = json.loads(VALID_LINE)
        obj["hands"][0]["color"] = "red"
        with pytest.raises(ValidationError, match="color"):
            frame_from_obj(obj)

    @pytest.mark.parametrize("mutate, field", [
        (lambda o: o.__setitem__("t", -5), "t"),
        (lambda o: o.__setitem__("t", 1.5), "t"),
        (lambda o: o.__setitem__("t", True), "t"),
        (lambda o: o.__setitem__("hands", {}), "hands"),
        (lambda o: o["hands"][0].__setitem__("hd", "Q"), "hd"),
        (lambda o: o["hands"][0].__setitem__("pts", [[0.5, 0.5]] * 20), "pts"),
        (lambda o: o["hands"][0].__setitem__("conf", [1.0] * 22), "conf"),
        (lambda o: o["hands"][0]["conf"].__setitem__(4, 1.5), "conf"),
        (lambda o: o["hands"][0]["conf"].__setitem__(4, True), "conf"),
        (lambda o: o["hands"][0]["pts"].__setitem__(0, [0.5]), "pts"),
        (lambda o: o["hands"][0]["pts"][0].__setitem__(0, -0.1), "pts"),
        (lambda o: o["hands"][0]["pts"][0].__setitem__(0, None), "pts"),
    ])
    def test_single_field_mutations_all_rejected(self, mutate, field):
        obj = json.loads(VALID_LINE)
        mutate(obj)
        with pytest.raises(ValidationError, match=field):
            frame_from_obj(obj)

    def test_duplicate_handedness_rejected(self):
        obj = json.loads(VALID_LINE)
        obj["hands"].append(json.loads(json.dumps(obj["hands"][0])))
        with pytest.raises(ValidationError, match="duplicate"):
            frame_from_obj(obj)


class TestSerialize:
    def test_empty_frame_exact_bytes(self):
        assert serialize_frame(HandFrame(t_ms=0)) == '{"t":0,"hands":[]}'

    def test_two_hands_right_listed_first(self):
        frame = HandFrame(t_ms=7, hands=(make_hand("L"), make_hand("R")))
        obj = json.loads(serialize_frame(frame))
        assert [h["hd"] for h in obj["hands"]] == ["R", "L"]

    def test_serialize_always_writes_conf(self):
        obj = frame_to_obj(HandFrame(t_ms=0, hands=(make_hand(),)))
        assert obj["hands"][0]["conf"] == [1.0] * 21

    @settings(max_examples=150, deadline=None)
    @given(frame=frames())
    def test_round_trip_identity(self, frame):
        again = parse_frame(serialize_frame(frame))
        assert again.t_ms == frame.t_ms
        assert again.hands == frame.hands

    def test_validate_frame_enforces_unit_square(self):
        hand = LandmarkSet(points=np.full((21, 2), 1.25), handedness="R")
        with pytest.raises(ValidationError):
            validate_frame(HandFrame(t_ms=0, hands=(hand,)))
        validate_frame(HandFrame(t_ms=0, hands=(make_hand(),)))


class TestStreams:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        frames_in = [HandFrame(t_ms=0, hands=(make_hand(),)),
                     HandFrame(t_ms=40),
                     HandFrame(t_ms=80, hands=(make_hand("L"), make_hand("R")))]
        assert write_frames(path, frames_in) == 3
        assert list(read_frames(path)) == frames_in

    def test_blank_lines_skipped(self):
        lines = ['{"t":0,"hands":[]}', '', '   ', '{"t":40,"hands":[]}']
        assert [f.t_ms for f in read_frames(lines)] == [0, 40]

    def test_non_increasing_timestamp_rejected(self):
        lines = ['{"t":40,"hands":[]}', '{"t":40,"hands":[]}']
        with pytest.raises(StreamOrderError, match="line 2"):
            list(read_frames(lines))
        lines = ['{"t":40,"hands":[]}', '{"t":39,"hands":[]}']
        with pytest.raises(StreamOrderError):
            list(read_frames(lines))

    def test_labelled_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        pairs = [(HandFrame(t_ms=0, hands=(make_hand(),)), "One_VRF"),
                 (HandFrame(t_ms=40), "none")]
        assert write_labelled(path, pairs) == 2
        assert list(read_labelled(path)) == pairs

    @pytest.mark.parametrize("write, items", [
        (write_frames, [HandFrame(t_ms=0, hands=(make_hand(),)), HandFrame(t_ms=40)]),
        (write_labelled, [(HandFrame(t_ms=0, hands=(make_hand("L"),)), "One_VRF"),
                          (HandFrame(t_ms=40), "none")]),
    ], ids=["frames", "labelled"])
    def test_stream_gets_the_file_text(self, tmp_path, write, items):
        path = tmp_path / "out.jsonl"
        stream = io.StringIO()
        assert write(path, items) == write(stream, items) == 2
        assert stream.getvalue() == path.read_text("ascii")
        assert not stream.closed

    def test_labelled_defaults_to_none(self):
        pairs = list(read_labelled(['{"t":0,"hands":[]}']))
        assert pairs == [(HandFrame(t_ms=0), "none")]


# --- the bulk hand check against the field-by-field walker -------------------

def walked(obj):
    """frame_from_obj with every hand sent through the walker."""
    with mock.patch.object(streams, "_hand_from_array", lambda hand: None):
        return frame_from_obj(obj)


def outcome(fn, *args):
    """A frame as its exact array bytes, or an exception as (class, message)."""
    try:
        frame = fn(*args)
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)
    return frame.t_ms, [(h.handedness, h.points.dtype, h.points.shape, h.points.tobytes(),
                         h.confidences.dtype, h.confidences.tobytes(),
                         h.points.flags.writeable, h.confidences.flags.writeable)
                        for h in frame.hands]


edge_unit = st.sampled_from([0, 1, 0.0, 1.0, -0.0, 5e-324]) | unit


@st.composite
def frame_objs(draw):
    sides = draw(st.sampled_from([[], ["R"], ["L"], ["R", "L"], ["L", "R"]]))
    hands = []
    for side in sides:
        pairs = draw(st.lists(st.lists(edge_unit, min_size=2, max_size=2), min_size=21, max_size=21))
        hand = {"hd": side, "pts": pairs}
        if draw(st.booleans()):
            hand["conf"] = draw(st.lists(edge_unit, min_size=21, max_size=21))
        hands.append(hand)
    return {"t": draw(st.integers(min_value=0, max_value=10**9)), "hands": hands}


# (hand index, mutation) pairs that make one hand of a valid frame invalid.
BAD_HANDS = [
    (0, lambda h: h["pts"][0].__setitem__(0, True)),
    (1, lambda h: h["pts"][3].__setitem__(1, "0.5")),
    (0, lambda h: h["conf"].__setitem__(2, float("nan"))),
    (1, lambda h: h["pts"][5].__setitem__(0, float("nan"))),
    (0, lambda h: h["pts"][5].__setitem__(0, float("inf"))),
    (0, lambda h: h["conf"].__setitem__(7, float("-inf"))),
    (1, lambda h: h["pts"][1].__setitem__(1, 10**400)),
    (0, lambda h: h["conf"].__setitem__(0, 1.0000001)),
    (0, lambda h: h["pts"][20].__setitem__(1, -1e-300)),
    (0, lambda h: h["pts"].pop()),
    (1, lambda h: h["pts"].append([0.5, 0.5])),
    (0, lambda h: h["pts"].__setitem__(4, [0.5, 0.5, 0.5])),
    (0, lambda h: h["pts"].__setitem__(4, [])),
    (0, lambda h: h["pts"].__setitem__(4, 0.5)),
    (0, lambda h: h.__setitem__("pts", {})),
    (0, lambda h: h.__setitem__("x", 1)),
    (0, lambda h: h.__setitem__("hd", "Q")),
    (1, lambda h: h.__setitem__("hd", ["L"])),
    (0, lambda h: h.pop("hd")),
    (0, lambda h: h.pop("pts")),
    (0, lambda h: h.__setitem__("conf", [0.5] * 20)),
    (1, lambda h: h.__setitem__("conf", "0.5")),
    (0, lambda h: h["conf"].__setitem__(3, None)),
    (0, lambda h: h["conf"].__setitem__(3, [0.5])),
]
BAD_HAND_IDS = [
    "true", "string", "nan-conf", "nan-pt", "infinity", "minus-infinity", "400-digit-int",
    "above-one", "below-zero", "20-points", "22-points", "3-element-pair", "empty-pair",
    "number-pair", "pts-object", "extra-key", "bad-hd", "list-hd", "no-hd", "no-pts",
    "20-conf", "string-conf", "null-conf", "list-in-conf",
]


class TestBulkHandCheck:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(obj=frame_objs())
    def test_valid_frames_equal_the_walkers(self, obj):
        assert all(streams._hand_from_array(hand) is not None for hand in obj["hands"])
        want = outcome(walked, obj)
        assert outcome(frame_from_obj, obj) == want
        assert outcome(parse_frame, json.dumps(obj)) == want

    @staticmethod
    def two_hands():
        obj = json.loads(VALID_LINE)
        left = json.loads(json.dumps(obj["hands"][0]))
        left["hd"] = "L"
        del left["conf"]
        obj["hands"].append(left)
        return obj

    @pytest.mark.parametrize("hand, mutate", BAD_HANDS, ids=BAD_HAND_IDS)
    def test_bad_hand_fails_as_the_walker_fails(self, hand, mutate):
        obj = self.two_hands()
        mutate(obj["hands"][hand])
        assert streams._hand_from_array(obj["hands"][hand]) is None
        with pytest.raises(ValidationError) as info:
            streams._hand_from_obj(obj["hands"][hand], f"hands[{hand}]")
        want = (ValidationError, str(info.value))
        assert outcome(frame_from_obj, obj) == want
        assert outcome(parse_frame, json.dumps(obj)) == want

    @pytest.mark.parametrize("mutate", [
        lambda o: o["hands"][1].__setitem__("hd", "R"),
        lambda o: o["hands"].append(o["hands"][0]),
    ], ids=["duplicate-hands", "three-hands"])
    def test_bad_frame_fails_as_the_walker_fails(self, mutate):
        obj = self.two_hands()
        mutate(obj)
        want = outcome(walked, obj)
        assert want[0] is ValidationError
        assert outcome(frame_from_obj, obj) == want

    @pytest.mark.parametrize("mutate", [
        lambda h: h["pts"][2].__setitem__(0, np.float64(0.25)),
        lambda h: h["conf"].__setitem__(2, np.float32(0.5)),
        lambda h: h["pts"][2].__setitem__(1, np.int64(1)),
        lambda h: h["pts"].__setitem__(4, (0.5, 0.5)),
        lambda h: h.__setitem__("pts", tuple(h["pts"])),
        lambda h: h.__setitem__("conf", np.full(21, 0.5)),
    ], ids=["float64", "float32", "int64", "tuple-pair", "tuple-pts", "array-conf"])
    def test_python_values_give_the_walkers_outcome(self, mutate):
        obj = self.two_hands()
        mutate(obj["hands"][0])
        assert streams._hand_from_array(obj["hands"][0]) is None
        assert outcome(frame_from_obj, obj) == outcome(walked, obj)


# --- the lean frame path against the public constructors --------------------

def constructed(obj):
    """The frame obj describes, built with the public LandmarkSet and HandFrame."""
    hands = tuple(LandmarkSet(points=np.array(h["pts"], dtype=np.float64),
                              handedness=h["hd"], confidences=h.get("conf"))
                  for h in obj["hands"])
    return HandFrame(t_ms=obj["t"], hands=hands)


# (mutation of a valid two-handed frame, the error the walker and HandFrame give).
BAD_HEADERS = [
    (lambda o: o.__setitem__("t", -1), "t: must be non-negative, got -1"),
    (lambda o: o.__setitem__("t", True), "t: expected integer milliseconds, got True"),
    (lambda o: o.__setitem__("t", 40.0), "t: expected integer milliseconds, got 40.0"),
    (lambda o: o.__setitem__("x", 1), "frame: unexpected field 'x'"),
    (lambda o: o.pop("t"), "frame: missing field 't'"),
    (lambda o: o.pop("hands"), "frame: missing field 'hands'"),
    (lambda o: o["hands"].append(o["hands"][0]), "hands: at most 2 hands per frame, got 3"),
    (lambda o: o["hands"][1].__setitem__("hd", "R"), "hands: duplicate handedness"),
    (lambda o: o.__setitem__("hands", {}), "hands: expected a list"),
    (lambda o: o.__setitem__("hands", None), "hands: expected a list"),
    (lambda o: (o.__setitem__("t", -1), o["hands"][0].__setitem__("hd", "Q")),
     "hands[0].hd: expected 'L' or 'R', got 'Q'"),
]
BAD_HEADER_IDS = ["negative-t", "bool-t", "float-t", "extra-key", "no-t", "no-hands",
                  "three-hands", "duplicate-side", "hands-object", "null-hands",
                  "negative-t-bad-hand"]


class TestLeanFramePath:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(obj=frame_objs(), zero_t=st.booleans())
    def test_frames_equal_the_constructed_ones(self, obj, zero_t):
        if zero_t:
            obj["t"] = 0
        want = constructed(obj)
        for frame in (frame_from_obj(obj), parse_frame(json.dumps(obj))):
            assert frame == want
            assert outcome(lambda: frame) == outcome(lambda: want)
            assert type(frame.hands) is tuple

    def test_canonical_frames_skip_the_constructor(self):
        obj = TestBulkHandCheck.two_hands()
        with mock.patch.object(HandFrame, "__post_init__", side_effect=AssertionError):
            for hands in ([], obj["hands"][:1], obj["hands"][1:], obj["hands"]):
                frame_from_obj({"t": 0, "hands": hands})
        obj["hands"].reverse()  # left first: the constructor sorts them
        with mock.patch.object(HandFrame, "__post_init__", autospec=True,
                               side_effect=HandFrame.__post_init__) as post_init:
            frame = frame_from_obj(obj)
        assert post_init.called
        assert [h.handedness for h in frame.hands] == [Handedness.RIGHT, Handedness.LEFT]

    @pytest.mark.parametrize("mutate, message", BAD_HEADERS, ids=BAD_HEADER_IDS)
    def test_bad_header_keeps_its_error(self, mutate, message):
        obj = TestBulkHandCheck.two_hands()
        mutate(obj)
        with pytest.raises(ValidationError) as info:
            parse_frame(json.dumps(obj))
        assert type(info.value) is ValidationError and str(info.value) == message
        assert outcome(frame_from_obj, obj) == (ValidationError, message)

    def test_non_object_frame_keeps_its_error(self):
        with pytest.raises(ValidationError, match="^frame: expected an object, got list$"):
            parse_frame("[1]")


# --- the labelled corpus as arrays against read_labelled ---------------------

def arrays_outcome(lines):
    """labelled_arrays' frames as (label, {side: point bytes}), or its error's (type, text)."""
    frames = []
    try:
        for chunk in streams.labelled_arrays(lines):
            assert chunk.points.dtype == np.float64 and chunk.points.shape[1:] == (21, 2)
            assert len(chunk.points) == len(chunk.frame_of) == len(chunk.side)
            these = [(label, {}) for label in chunk.labels]
            for pts, f, side in zip(chunk.points, chunk.frame_of, chunk.side):
                these[f][1]["RL"[side]] = pts.tobytes()
            frames += these
    except HandwaveError as exc:
        return type(exc), str(exc)
    return frames


def read_outcome(lines):
    """The same from read_labelled."""
    try:
        return [(label, {h.handedness.value: h.points.tobytes() for h in frame.hands})
                for frame, label in read_labelled(lines)]
    except HandwaveError as exc:
        return type(exc), str(exc)


def assert_same_error(lines):
    """labelled_arrays raises what read_labelled raises on ``lines``, type and text."""
    error = read_outcome(lines)
    assert type(error) is tuple
    assert arrays_outcome(lines) == error


ODD_VALUES = st.sampled_from([None, True, 0, 1, -1, 2, 21, 1.5, -0.0, 5e-324, 10**400, "R", "L",
                              "", "none", [], {}, [0.5, 0.5], float("nan"), float("inf")])


def _nodes(obj, path=()):
    yield path
    children = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield from _nodes(value, path + (key,))


@st.composite
def corpus_lines(draw):
    """A labelled corpus, valid or with one node replaced or deleted."""
    objs = draw(st.lists(frame_objs(), max_size=3))
    t = draw(st.integers(0, 3))
    for obj in objs:
        obj["t"] = t
        t += draw(st.integers(1, 50))
        label = draw(st.sampled_from([None, "none", "A", "B"]))
        if label is not None:
            obj["label"] = label
    if objs and draw(st.booleans()):
        line = draw(st.integers(0, len(objs) - 1))
        path = draw(st.sampled_from(list(_nodes(objs[line]))))
        if not path:
            objs[line] = draw(ODD_VALUES)
        else:
            parent = objs[line]
            for key in path[:-1]:
                parent = parent[key]
            if draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = draw(ODD_VALUES)
    return [json.dumps(obj) + "\n" for obj in objs]


def _one_hand_at(x):
    """One right hand whose first point's x is ``x`` and every other value 0.5."""
    return [{"hd": "R", "pts": [[x, 0.5]] + [[0.5, 0.5]] * 20}]


class TestLabelledArrays:
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(lines=corpus_lines(), chunk_frames=st.sampled_from([1, 2, streams._CHUNK_FRAMES]))
    def test_arrays_hold_what_read_labelled_reads(self, lines, chunk_frames):
        with mock.patch.object(streams, "_CHUNK_FRAMES", chunk_frames):
            assert arrays_outcome(lines) == read_outcome(lines)

    @pytest.mark.parametrize("hand, mutate", BAD_HANDS, ids=BAD_HAND_IDS)
    def test_bad_hand_gives_up(self, hand, mutate):
        obj = TestBulkHandCheck.two_hands()
        mutate(obj["hands"][hand])
        assert_same_error(['{"t": 0, "hands": []}', json.dumps(obj)])

    @pytest.mark.parametrize("line", [
        '{"t": 40, "hands": [], "label": ""}', '{"t": 40, "hands": [], "label": 1}',
        '{"t": 0, "hands": []}', '{"t": 40.0, "hands": []}', '{"t": true, "hands": []}',
        '{"t": 40, "hands": {}}', '{"t": 40}', '{"hands": []}', '{"t": 40, "hands": [], "x": 1}',
        '[]', '"One_VRF"', '{"t": 40', '{"t": 40, "hands": [], "label": "\u00e9"}',
        json.dumps({"t": 40, "hands": [{"hd": "R", "pts": [[0.5, 0.5]] * 21}] * 2}),
        json.dumps({"t": 40, "hands": [{"hd": "L", "pts": [[0.5, 0.5]] * 21}] * 3}),
    ], ids=["empty-label", "number-label", "same-t", "float-t", "bool-t", "hands-object",
            "no-hands", "no-t", "extra-key", "list-line", "string-line", "malformed",
            "non-ascii", "duplicate-hands", "three-hands"])
    def test_bad_line_gives_up(self, line):
        assert_same_error(['{"t": 0, "hands": []}', line])

    def test_escaped_label_is_read(self):
        lines = [r'{"t": 0, "hands": [], "label": "\u00e9t\u00e9"}']
        assert arrays_outcome(lines) == read_outcome(lines) == [("\u00e9t\u00e9", {})]

    def test_negative_first_timestamp_gives_up(self):
        assert_same_error(['{"t": -1, "hands": []}'])

    def test_chunks_restart_frame_numbers(self, monkeypatch):
        monkeypatch.setattr(streams, "_CHUNK_FRAMES", 2)
        hand = {"hd": "L", "pts": [[0.25, 0.75]] * 21}
        lines = [json.dumps({"t": t, "hands": [hand] * (t % 2), "label": str(t)})
                 for t in range(5)]
        chunks = list(streams.labelled_arrays(lines))
        assert [c.labels for c in chunks] == [["0", "1"], ["2", "3"], ["4"]]
        assert [c.frame_of.tolist() for c in chunks] == [[1], [1], []]
        assert [c.side.tolist() for c in chunks] == [[1], [1], []]
        assert arrays_outcome(lines) == read_outcome(lines)

    def test_a_fault_in_a_later_chunk_gives_up(self, monkeypatch):
        monkeypatch.setattr(streams, "_CHUNK_FRAMES", 2)
        lines = [json.dumps({"t": t, "hands": []}) for t in range(4)] + ['{"t": 9, "hands": 0}']
        chunks = streams.labelled_arrays(lines)
        assert [next(chunks).labels, next(chunks).labels] == [["none"] * 2] * 2
        with pytest.raises(ValidationError, match="^line 5: hands: expected a list$"):
            next(chunks)
        assert_same_error(lines)

    @pytest.mark.parametrize("edits, error, message", [
        ({2: {"t": 1}}, StreamOrderError, "line 3: timestamp 1 does not increase past 1"),
        ({3: {"hands": _one_hand_at(1.5)}}, ValidationError,
         "line 4: hands[0].pts[0].x: must lie in [0, 1], got 1.5"),
        ({2: {"hands": _one_hand_at(True)}, 3: '{"t": 3, "hands": ['}, ValidationError,
         "line 3: hands[0].pts[0].x: expected a number, got True"),
        ({2: {"hands": _one_hand_at(-0.5)}, 3: {"x": 1}}, ValidationError,
         "line 3: hands[0].pts[0].x: must lie in [0, 1], got -0.5"),
        ({4: {"hands": _one_hand_at("0.5")}}, ValidationError,
         "line 5: hands[0].pts[0].x: expected a number, got '0.5'"),
    ], ids=["order-opens-a-chunk", "value-in-a-later-chunk", "value-then-malformed-json",
            "value-then-unexpected-key", "value-in-the-partial-chunk"])
    def test_a_fault_near_a_chunk_boundary_is_named(self, monkeypatch, edits, error, message):
        """Five one-hand lines in chunks of two; an edit is a line's text or fields to set."""
        monkeypatch.setattr(streams, "_CHUNK_FRAMES", 2)
        objs = [{"t": t, "hands": _one_hand_at(0.5), "label": "A"} for t in range(5)]
        lines = [json.dumps(obj) for obj in objs]
        for i, edit in edits.items():
            lines[i] = edit if isinstance(edit, str) else json.dumps({**objs[i], **edit})
        assert arrays_outcome(lines) == read_outcome(lines) == (error, message)

    def test_empty_corpus_has_no_chunks(self):
        assert list(streams.labelled_arrays(["\n", "  \n"])) == []


class _Path:
    """A path-like object that is neither str nor pathlib.Path."""

    def __init__(self, path):
        self.path = str(path)

    def __fspath__(self):
        return self.path


class TestPathLike:
    def test_readers_and_writers_take_any_path_like(self, tmp_path):
        pairs = [(HandFrame(t_ms=0, hands=(make_hand("L"),)), "One_VRF"),
                 (HandFrame(t_ms=40), "none")]
        assert write_labelled(_Path(tmp_path / "corpus.jsonl"), pairs) == 2
        assert list(read_labelled(_Path(tmp_path / "corpus.jsonl"))) == pairs
        frames = [frame for frame, _ in pairs]
        assert write_frames(_Path(tmp_path / "frames.jsonl"), frames) == 2
        assert list(read_frames(_Path(tmp_path / "frames.jsonl"))) == frames
