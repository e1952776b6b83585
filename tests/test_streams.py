"""Frame JSONL: parse/serialize round trips, strict schema rejection, stream order."""

import importlib
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
    default_registry,
    evaluate,
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

evaluate_module = importlib.import_module("handwave.evaluate")  # the package exports a function

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

    def test_non_ascii_line_is_parse_error_as_in_files(self):
        line = '{"t": 0, "hands": [], "\u00e9": 1}'
        message = ("not ASCII: 'ascii' codec can't encode character '\\xe9' in position 23: "
                   "ordinal not in range(128)")
        with pytest.raises(ParseError) as info:
            parse_frame(line)
        assert type(info.value) is ParseError and str(info.value) == message
        with pytest.raises(ParseError) as info:
            list(read_frames([line]))
        assert str(info.value) == f"line 1: {message}"
        with pytest.raises(ParseError, match="^not ASCII: 'ascii' codec can't decode byte 0xc3 "
                                             "in position 23: ordinal not in range"):
            parse_frame(line.encode())

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


# --- the bulk hand check against the value-by-value walk ---------------------

def walked(obj):
    """frame_from_obj with every hand's values walked one by one."""
    with mock.patch.object(streams, "_unit_values", lambda *args: None):
        return frame_from_obj(obj)


def bulk_values(obj):
    """The bulk check's one array for each hand of ``obj``, None where it fails."""
    return [streams._unit_values(h["pts"], h.get("conf", streams._ONES)) for h in obj["hands"]]


def root(arr):
    """The array that owns the memory ``arr`` views."""
    while arr.base is not None:
        arr = arr.base
    return arr


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
# The rows _hand_from_obj rejects before any value is checked.
STRUCTURAL_HANDS = {"20-points", "22-points", "pts-object", "extra-key", "bad-hd", "list-hd",
                    "no-hd", "no-pts", "20-conf", "string-conf"}


# Frames with more than one fault, and the first error, which the walk order decides.
_PTS = [[0.5, 0.5]] * 21
FIRST_ERRORS = [
    ({"t": 0, "hands": [{"hd": "R", "pts": [[0.5, 2.0]] + _PTS[1:]}, {"hd": "L"}]},
     "hands[0].pts[0].y: must lie in [0, 1], got 2.0"),
    ({"t": 0, "hands": [{"hd": "R", "pts": _PTS[:3] + [[-1, 0.5]] + _PTS[4:],
                         "conf": [0.5] * 20}]},
     "hands[0].pts[3].x: must lie in [0, 1], got -1"),
    ({"t": "5", "hands": [{"hd": "Q", "pts": _PTS}]},
     "t: expected integer milliseconds, got '5'"),
    ({"t": -1, "hands": [{"hd": "R", "pts": _PTS}, {"hd": "R", "pts": _PTS}]},
     "t: must be non-negative, got -1"),
    ({"t": 0, "hands": [{"hd": "R", "pts": _PTS},
                        {"hd": "L", "pts": _PTS, "conf": [0.5] * 20 + [2.0], "x": 1}]},
     "hands[1]: unexpected field 'x'"),
    ({"t": 0, "hands": [{"hd": "L", "pts": _PTS},
                        {"hd": "L", "pts": [[0.5, None]] + _PTS[1:]}]},
     "hands[1].pts[0].y: expected a number, got None"),
    ({"t": 0, "hands": [{"hd": "L", "pts": _PTS, "conf": [True] * 21},
                        {"hd": "R", "pts": _PTS[:20]}]},
     "hands[0].conf[0]: expected a number, got True"),
]
FIRST_ERROR_IDS = ["value-then-missing-pts", "point-then-conf-length", "string-t-then-bad-hd",
                   "negative-t-then-duplicate", "key-then-value", "value-then-duplicate",
                   "left-first-conf-then-points"]


class TestBulkHandCheck:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(obj=frame_objs())
    def test_valid_frames_equal_the_walkers(self, obj):
        assert all(arr is not None for arr in bulk_values(obj))
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

    @pytest.mark.parametrize("name, hand, mutate",
                             [(name, *row) for name, row in zip(BAD_HAND_IDS, BAD_HANDS)],
                             ids=BAD_HAND_IDS)
    def test_bad_hand_fails_as_the_walker_fails(self, name, hand, mutate):
        obj = self.two_hands()
        mutate(obj["hands"][hand])
        if name not in STRUCTURAL_HANDS:
            assert bulk_values(obj)[hand] is None
        with pytest.raises(ValidationError) as info:
            streams._hand_from_obj(obj["hands"][hand], f"hands[{hand}]")
        want = (ValidationError, str(info.value))
        assert outcome(frame_from_obj, obj) == want
        assert outcome(parse_frame, json.dumps(obj)) == want

    @pytest.mark.parametrize("obj, message", FIRST_ERRORS, ids=FIRST_ERROR_IDS)
    def test_first_error_across_hands(self, obj, message):
        assert outcome(frame_from_obj, obj) == (ValidationError, message)
        assert outcome(parse_frame, json.dumps(obj)) == (ValidationError, message)

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

    @pytest.mark.parametrize("mutate, structural", [
        (lambda h: h["pts"][2].__setitem__(0, np.float64(0.25)), False),
        (lambda h: h["conf"].__setitem__(2, np.float32(0.5)), False),
        (lambda h: h["pts"][2].__setitem__(1, np.int64(1)), False),
        (lambda h: h["pts"].__setitem__(4, (0.5, 0.5)), False),
        (lambda h: h.__setitem__("pts", tuple(h["pts"])), True),
        (lambda h: h.__setitem__("conf", np.full(21, 0.5)), False),
    ], ids=["float64", "float32", "int64", "tuple-pair", "tuple-pts", "array-conf"])
    def test_python_values_give_the_walkers_outcome(self, mutate, structural):
        obj = self.two_hands()
        mutate(obj["hands"][0])
        if not structural:
            assert bulk_values(obj)[0] is None
        assert outcome(frame_from_obj, obj) == outcome(walked, obj)

    @pytest.mark.parametrize("left_first", [False, True], ids=["right-first", "left-first"])
    def test_two_hands_view_one_read_only_array(self, left_first):
        """Each hand views its own read-only array; no value is walked."""
        obj = self.two_hands()  # the left hand has no "conf"
        if left_first:
            obj["hands"].reverse()
        with mock.patch.object(streams, "_unit_number", side_effect=AssertionError):
            frame = frame_from_obj(obj)
        owners = [root(h.points) for h in frame.hands]
        assert owners[0] is not owners[1]
        for hand, owner in zip(frame.hands, owners):
            assert owner.shape == (21 * 2 + 21,) and not owner.flags.writeable
            assert root(hand.confidences) is owner
            assert not hand.points.flags.writeable and not hand.confidences.flags.writeable
        assert [h.handedness for h in frame.hands] == [Handedness.RIGHT, Handedness.LEFT]
        assert frame.hands[1].confidences.tolist() == [1.0] * 21
        assert frame == constructed(obj)

    def test_negative_t_frame_is_walked(self):
        obj = self.two_hands()
        obj["t"] = -1
        assert all(arr is not None for arr in bulk_values(obj))  # the hands pass, the frame not
        with mock.patch.object(streams, "_hand_from_obj", autospec=True,
                               side_effect=streams._hand_from_obj) as walker:
            got = outcome(frame_from_obj, obj)
        assert walker.call_count == 2
        assert got == outcome(constructed, obj)

    def test_hand_without_conf_gets_read_only_ones(self):
        one = json.loads(VALID_LINE)
        del one["hands"][0]["conf"]
        two = self.two_hands()  # a right hand with "conf", a left one without
        for obj, hand in ((one, 0), (two, 1)):
            conf = frame_from_obj(obj).hands[hand].confidences
            assert conf.tolist() == [1.0] * 21 and not conf.flags.writeable
        lines = [json.dumps({**one, "t": 0}), json.dumps({**two, "t": 1, "label": "A"})]
        (first, _), (second, label) = read_labelled(lines)
        assert [len(first.hands), len(second.hands), label] == [1, 2, "A"]
        for conf in (first.hands[0].confidences, second.hands[1].confidences):
            assert conf.tolist() == [1.0] * 21 and not conf.flags.writeable


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


# --- the labelled corpus: read_labelled against the walker -------------------

def read_outcome(lines):
    """read_labelled's frames as (label, t, {side: point bytes}), or its error's (type, text)."""
    try:
        return [(label, frame.t_ms, {h.handedness.value: h.points.tobytes() for h in frame.hands})
                for frame, label in read_labelled(lines)]
    except HandwaveError as exc:
        return type(exc), str(exc)


def walked_outcome(lines):
    """The same with every hand's values walked one by one."""
    with mock.patch.object(streams, "_unit_values", lambda *args: None):
        return read_outcome(lines)


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
    """read_labelled's frames and errors (the class keeps the name of a reader it replaced)."""

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(lines=corpus_lines())
    def test_arrays_hold_what_read_labelled_reads(self, lines):
        assert read_outcome(lines) == walked_outcome(lines)

    @pytest.mark.parametrize("hand, mutate", BAD_HANDS, ids=BAD_HAND_IDS)
    def test_bad_hand_gives_up(self, hand, mutate):
        obj = TestBulkHandCheck.two_hands()
        mutate(obj["hands"][hand])
        with pytest.raises(ValidationError) as info:
            streams._hand_from_obj(obj["hands"][hand], f"hands[{hand}]")
        lines = ['{"t": 0, "hands": []}', json.dumps(obj)]
        assert read_outcome(lines) == (ValidationError, f"line 2: {info.value}")

    @pytest.mark.parametrize("line, error, message", [
        ('{"t": 40, "hands": [], "label": ""}', ValidationError,
         "label must be a non-empty string"),
        ('{"t": 40, "hands": [], "label": 1}', ValidationError,
         "label must be a non-empty string"),
        ('{"t": 0, "hands": []}', StreamOrderError, "timestamp 0 does not increase past 0"),
        ('{"t": 40.0, "hands": []}', ValidationError, "t: expected integer milliseconds, got 40.0"),
        ('{"t": true, "hands": []}', ValidationError, "t: expected integer milliseconds, got True"),
        ('{"t": 40, "hands": {}}', ValidationError, "hands: expected a list"),
        ('{"t": 40}', ValidationError, "frame: missing field 'hands'"),
        ('{"hands": []}', ValidationError, "frame: missing field 't'"),
        ('{"t": 40, "hands": [], "x": 1}', ValidationError, "frame: unexpected field 'x'"),
        ('[]', ValidationError, "expected an object"),
        ('"One_VRF"', ValidationError, "expected an object"),
        ('{"t": 40', ParseError, "malformed JSON: Expecting ',' delimiter: line 1 column 9 (char 8)"),
        ('{"t": 40, "hands": [], "label": "\u00e9"}', ParseError,
         "not ASCII: 'ascii' codec can't encode character '\\xe9' in position 33: "
         "ordinal not in range(128)"),
        (json.dumps({"t": 40, "hands": [{"hd": "R", "pts": [[0.5, 0.5]] * 21}] * 2}),
         ValidationError, "hands: duplicate handedness"),
        (json.dumps({"t": 40, "hands": [{"hd": "L", "pts": [[0.5, 0.5]] * 21}] * 3}),
         ValidationError, "hands: at most 2 hands per frame, got 3"),
    ], ids=["empty-label", "number-label", "same-t", "float-t", "bool-t", "hands-object",
            "no-hands", "no-t", "extra-key", "list-line", "string-line", "malformed",
            "non-ascii", "duplicate-hands", "three-hands"])
    def test_bad_line_gives_up(self, line, error, message):
        lines = ['{"t": 0, "hands": []}', line]
        assert read_outcome(lines) == walked_outcome(lines) == (error, f"line 2: {message}")

    def test_escaped_label_is_read(self):
        lines = [r'{"t": 0, "hands": [], "label": "\u00e9t\u00e9"}']
        assert read_outcome(lines) == [("\u00e9t\u00e9", 0, {})]

    def test_negative_first_timestamp_gives_up(self):
        assert read_outcome(['{"t": -1, "hands": []}']) == \
            (ValidationError, "line 1: t: must be non-negative, got -1")

    def test_a_fault_in_a_later_chunk_gives_up(self):
        lines = [json.dumps({"t": t, "hands": []}) for t in range(4)] + ['{"t": 9, "hands": 0}']
        pairs = read_labelled(lines)
        assert [next(pairs) for _ in range(4)] == [(HandFrame(t_ms=t), "none") for t in range(4)]
        with pytest.raises(ValidationError, match="^line 5: hands: expected a list$"):
            next(pairs)

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
    def test_a_fault_near_a_chunk_boundary_is_named(self, edits, error, message):
        """Five one-hand lines; an edit is a line's text or fields to set.

        The ids name where the fault sat when the corpus was read in chunks of two.
        """
        objs = [{"t": t, "hands": _one_hand_at(0.5), "label": "A"} for t in range(5)]
        lines = [json.dumps(obj) for obj in objs]
        for i, edit in edits.items():
            lines[i] = edit if isinstance(edit, str) else json.dumps({**objs[i], **edit})
        assert read_outcome(lines) == (error, message)

    def test_empty_corpus_has_no_chunks(self):
        assert list(read_labelled(["\n", "  \n"])) == []

    def test_reads_no_line_ahead(self):
        """Each frame is read, and scored, before the next line is drawn.

        So a late fault is raised after every earlier frame was scored.
        """
        lines = [json.dumps({"t": t, "hands": _one_hand_at(0.5), "label": "A"})
                 for t in range(1499)] + ['{"t": 1499, "hands": 0}']
        fault = r"^line 1500: hands: expected a list$"
        drawn = []

        def source():
            for line in lines:
                drawn.append(line)
                yield line

        pairs = read_labelled(source())
        for t in range(1499):
            frame, label = next(pairs)
            assert (label, frame.t_ms, len(drawn)) == ("A", t, t + 1)
        assert frame == parse_frame(json.dumps({"t": 1498, "hands": _one_hand_at(0.5)}))
        with pytest.raises(ValidationError, match=fault):
            next(pairs)
        assert len(drawn) == 1500

        drawn.clear()
        scored = []
        classify = evaluate_module._classify_frame

        def recording(frame, *args):
            scored.append((frame.t_ms, len(drawn)))
            return classify(frame, *args)

        with mock.patch.object(evaluate_module, "_classify_frame", recording), \
                pytest.raises(ValidationError, match=fault):
            evaluate(read_labelled(source()), default_registry())
        assert scored == [(t, t + 1) for t in range(1499)]


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
