"""Finger rules, posture arrays, registry classification, and debounced events."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handwave import (
    DEFAULT_FINGER_PARAMS,
    DoublePattern,
    FingerStateParams,
    GestureDef,
    GestureEngine,
    GestureRegistry,
    HandFrame,
    Handedness,
    LandmarkSet,
    Point2,
    PostureArray,
    StreamOrderError,
    ValidationError,
    classify,
    default_registry,
    focal_point,
    load_registry,
    posture_array,
    save_registry,
)
from handwave.gestures import _classify_frame, registry_to_obj
from handwave.model import INDEX_MCP, INDEX_TIP, MCP, MIDDLE_MCP, THUMB_MCP, THUMB_TIP, TIP
from handwave.synth import hand_template


def hand_with(updates, handedness="R"):
    """A flat hand at (0.5, 0.5) with selected landmarks overridden."""
    pts = np.full((21, 2), 0.5)
    for index, (x, y) in updates.items():
        pts[index] = (x, y)
    return LandmarkSet(points=pts, handedness=handedness)


ONE = PostureArray.of(0, 1, 0, 0, 0)
TWO = PostureArray.of(0, 1, 1, 0, 0)
FIVE = PostureArray.of(1, 1, 1, 1, 1)


def small_registry():
    return GestureRegistry([
        GestureDef("TimeOut", DoublePattern(right=FIVE, left=FIVE), hold_frames=3),
        GestureDef("One", ONE, hold_frames=3),
        GestureDef("Two", TWO, hold_frames=3),
        GestureDef("Five", FIVE, hold_frames=3),
    ])


class TestFingerState:
    def test_tip_above_mcp_is_open(self):
        lms = hand_with({INDEX_MCP: (0.5, 0.60), INDEX_TIP: (0.5, 0.40)})
        assert posture_array(lms)[1] == 1

    def test_tip_below_mcp_is_folded(self):
        lms = hand_with({INDEX_MCP: (0.5, 0.60), INDEX_TIP: (0.5, 0.70)})
        assert posture_array(lms)[1] == 0

    def test_exact_tie_is_folded(self):
        lms = hand_with({INDEX_MCP: (0.5, 0.60), INDEX_TIP: (0.4, 0.60)})
        assert posture_array(lms)[1] == 0

    def test_each_finger_reads_its_own_joints(self):
        for bit, mcp, tip in [(1, 5, 8), (2, 9, 12), (3, 13, 16), (4, 17, 20)]:
            lms = hand_with({mcp: (0.5, 0.6), tip: (0.5, 0.4)})
            assert posture_array(lms)[bit] == 1, bit


class TestThumbState:
    def test_lateral_thumb_open(self):
        # slope -0.2 over dx 0.10: both guards pass
        lms = hand_with({THUMB_MCP: (0.50, 0.50), THUMB_TIP: (0.60, 0.48)})
        assert posture_array(lms)[0] == 1

    def test_narrow_dx_folded(self):
        lms = hand_with({THUMB_MCP: (0.50, 0.50), THUMB_TIP: (0.52, 0.40)})
        assert posture_array(lms)[0] == 0

    def test_vertical_thumb_folded(self):
        lms = hand_with({THUMB_MCP: (0.50, 0.50), THUMB_TIP: (0.50, 0.30)})
        assert posture_array(lms)[0] == 0

    def test_steep_slope_folded(self):
        # dx 0.05 passes the width guard, slope -4 fails the slope guard
        lms = hand_with({THUMB_MCP: (0.50, 0.50), THUMB_TIP: (0.55, 0.30)})
        assert posture_array(lms)[0] == 0

    def test_slope_exactly_at_limit_is_open(self):
        lms = hand_with({THUMB_MCP: (0.50, 0.50), THUMB_TIP: (0.60, 0.60)})
        assert posture_array(lms)[0] == 1

    def test_params_are_adjustable(self):
        lms = hand_with({THUMB_MCP: (0.50, 0.50), THUMB_TIP: (0.52, 0.50)})
        assert posture_array(lms)[0] == 0
        assert posture_array(lms, FingerStateParams(thumb_min_dx=0.01))[0] == 1

    @pytest.mark.parametrize("field", ["thumb_slope_max", "thumb_min_dx"])
    @pytest.mark.parametrize("value, message", [
        (0.0, "must be positive, got 0.0"), (-1.0, "must be positive, got -1.0"),
        (float("nan"), "must be finite, got nan"), (float("inf"), "must be finite, got inf"),
        (float("-inf"), "must be finite, got -inf")])
    def test_params_must_be_positive_and_finite(self, field, value, message):
        with pytest.raises(ValidationError) as info:
            FingerStateParams(**{field: value})
        assert str(info.value) == f"{field} {message}"


class TestPostureArray:
    def test_all_open(self):
        assert posture_array(hand_template(FIVE)) == FIVE

    def test_all_folded(self):
        assert posture_array(hand_template(PostureArray.of(0, 0, 0, 0, 0))) == \
            PostureArray.of(0, 0, 0, 0, 0)

    def test_index_only(self):
        assert posture_array(hand_template(ONE)) == ONE


def onset_cursor(lms):
    """The cursor GestureEngine reports when a one-frame gesture of lms's posture starts."""
    engine = GestureEngine(GestureRegistry([GestureDef("G", posture_array(lms), hold_frames=1)]))
    [event] = engine.step(HandFrame(t_ms=0, hands=(lms,)))
    assert event.is_onset
    return event.cursor


class TestControlPoints:
    def test_cursor_is_thumb_index_midpoint(self):
        lms = hand_with({THUMB_TIP: (0.4, 0.6), INDEX_TIP: (0.6, 0.4)})
        assert onset_cursor(lms) == reference_cursor(lms) == Point2(0.5, 0.5)

    def test_cursor_of_coincident_tips(self):
        lms = hand_with({THUMB_TIP: (0.3, 0.7), INDEX_TIP: (0.3, 0.7)})
        assert onset_cursor(lms) == reference_cursor(lms) == Point2(0.3, 0.7)

    def test_focal_is_middle_mcp(self):
        lms = hand_with({MIDDLE_MCP: (0.2, 0.8)})
        assert focal_point(lms) == Point2(0.2, 0.8)


class TestRegistry:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValidationError, match="name"):
            GestureRegistry([GestureDef("One", ONE), GestureDef("One", TWO)])

    def test_duplicate_pattern_rejected(self):
        with pytest.raises(ValidationError, match="pattern"):
            GestureRegistry([GestureDef("One", ONE), GestureDef("Uno", ONE)])

    def test_lookup_and_iteration(self):
        reg = small_registry()
        assert reg.get("Two").pattern == TWO
        assert "Five" in reg and "Nope" not in reg
        assert [d.name for d in reg] == ["TimeOut", "One", "Two", "Five"]
        with pytest.raises(KeyError):
            reg.get("Nope")

    def test_default_registry_shape(self):
        reg = default_registry()
        assert len(reg) == 16
        defs = list(reg)
        doubles = [d for d in defs if isinstance(d.pattern, DoublePattern)]
        assert len(doubles) == 4
        # doubles come first so they win first-match against their halves
        assert all(isinstance(d.pattern, DoublePattern) for d in defs[:4])
        assert len({d.name for d in defs}) == 16

    def test_default_registry_is_parsed_once(self, tmp_path):
        reg = default_registry()
        assert default_registry() is reg
        path = tmp_path / "registry.json"
        save_registry(path, reg)
        loaded = [load_registry(path), load_registry(path)]
        assert loaded[0] is not loaded[1] and reg not in loaded
        assert all(again.defs == reg.defs and again._table == reg._table for again in loaded)

    def test_registry_file_round_trip(self, tmp_path):
        path = tmp_path / "registry.json"
        reg = small_registry()
        save_registry(path, reg)
        again = load_registry(path)
        assert [d.name for d in again] == [d.name for d in reg]
        assert again.get("TimeOut").pattern == reg.get("TimeOut").pattern
        assert again.get("One").hold_frames == 3

    def test_registry_file_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"name": "X", "pattern": {"single": [0, 1, 0, 0]}}]')
        with pytest.raises(ValidationError):
            load_registry(path)
        path.write_text('[{"name": "X", "pattern": {"triple": [0, 1, 0, 0, 0]}}]')
        with pytest.raises(ValidationError):
            load_registry(path)


class TestClassify:
    def test_single_right_hand(self):
        assert classify({Handedness.RIGHT: ONE}, small_registry()) == "One"

    def test_single_matches_left_hand_too(self):
        assert classify({Handedness.LEFT: TWO}, small_registry()) == "Two"

    def test_no_hands_is_none(self):
        assert classify({}, small_registry()) is None

    def test_no_match_is_none(self):
        assert classify({Handedness.RIGHT: PostureArray.of(1, 0, 1, 0, 1)},
                        small_registry()) is None

    def test_double_beats_single_by_order(self):
        both = {Handedness.RIGHT: FIVE, Handedness.LEFT: FIVE}
        assert classify(both, small_registry()) == "TimeOut"

    def test_double_requires_both_hands(self):
        assert classify({Handedness.RIGHT: FIVE}, small_registry()) == "Five"

    def test_first_match_wins_among_singles(self):
        reg = GestureRegistry([GestureDef("A", ONE), GestureDef("B", TWO)])
        mixed = {Handedness.RIGHT: ONE, Handedness.LEFT: TWO}
        assert classify(mixed, reg) == "A"
        reg2 = GestureRegistry([GestureDef("B", TWO), GestureDef("A", ONE)])
        assert classify(mixed, reg2) == "B"

    def test_permuting_non_matching_defs_is_inert(self):
        rng = np.random.default_rng(41)
        patterns = [PostureArray.of(*bits) for bits in
                    {tuple(rng.integers(0, 2, 5)) for _ in range(12)}]
        defs = [GestureDef(f"g{i}", p) for i, p in enumerate(patterns)]
        arrays = {Handedness.RIGHT: patterns[0]}
        base = classify(arrays, GestureRegistry(defs))
        for _ in range(10):
            others = defs[1:]
            rng.shuffle(others)
            assert classify(arrays, GestureRegistry([defs[0], *others])) == base


def frame_of(posture_or_none, t_ms, registryless_noise=False):
    if posture_or_none is None:
        return HandFrame(t_ms=t_ms)
    return HandFrame(t_ms=t_ms, hands=(hand_template(posture_or_none),))


class TestEngine:
    def test_onset_after_hold_frames(self):
        engine = GestureEngine(small_registry())
        events = []
        for i in range(3):
            events += engine.step(frame_of(ONE, i * 40))
        assert len(events) == 1
        onset = events[0]
        assert onset.name == "One" and onset.is_onset and onset.onset_ms == 80
        assert onset.cursor is not None

    def test_interrupted_streak_never_fires(self):
        engine = GestureEngine(small_registry())
        events = []
        for i, posture in enumerate([ONE, ONE, TWO]):
            events += engine.step(frame_of(posture, i * 40))
        assert events == []

    def test_offset_on_first_differing_frame(self):
        engine = GestureEngine(small_registry())
        events = []
        seq = [ONE, ONE, ONE, ONE, None]
        for i, posture in enumerate(seq):
            events += engine.step(frame_of(posture, i * 40))
        assert [e.is_onset for e in events] == [True, False]
        closed = events[1]
        assert closed.name == "One"
        assert closed.onset_ms == 80 and closed.offset_ms == 160

    def test_switch_emits_offset_then_later_new_onset(self):
        engine = GestureEngine(small_registry())
        events = []
        seq = [ONE] * 3 + [TWO] * 3
        for i, posture in enumerate(seq):
            events += engine.step(frame_of(posture, i * 40))
        kinds = [(e.name, e.is_onset) for e in events]
        assert kinds == [("One", True), ("One", False), ("Two", True)]

    def test_out_of_order_frames_rejected(self):
        engine = GestureEngine(small_registry())
        engine.step(frame_of(ONE, 100))
        with pytest.raises(StreamOrderError):
            engine.step(frame_of(ONE, 100))
        with pytest.raises(StreamOrderError):
            engine.step(frame_of(ONE, 60))

    def test_onset_count_bounded_by_window(self):
        # No more than floor(n / hold_frames) onsets can fit in n frames.
        rng = np.random.default_rng(43)
        postures = [ONE, TWO, FIVE, None]
        engine = GestureEngine(small_registry())
        n = 200
        onsets = 0
        for i in range(n):
            for event in engine.step(frame_of(postures[rng.integers(4)], i * 40)):
                onsets += event.is_onset
        assert onsets <= n // 3

    def test_onsets_and_offsets_alternate_per_name(self):
        rng = np.random.default_rng(47)
        postures = [ONE, TWO, None]
        engine = GestureEngine(small_registry())
        open_names = set()
        for i in range(300):
            for event in engine.step(frame_of(postures[rng.integers(3)], i * 40)):
                if event.is_onset:
                    assert event.name not in open_names
                    open_names.add(event.name)
                else:
                    assert event.name in open_names
                    open_names.remove(event.name)
            assert len(open_names) <= 1

    def test_run_generator_matches_step(self):
        frames = [frame_of(p, i * 40) for i, p in enumerate([ONE] * 4 + [None])]
        engine = GestureEngine(small_registry())
        collected = list(engine.run(iter(frames)))
        engine2 = GestureEngine(small_registry())
        stepped = [e for f in frames for e in engine2.step(f)]
        assert collected == stepped

    def test_frame_classification_maps_both_hands(self):
        right = hand_template(ONE, Handedness.RIGHT)
        left = hand_template(FIVE, Handedness.LEFT)
        reg = GestureRegistry([GestureDef("OneFive", DoublePattern(right=ONE, left=FIVE))])
        assert _classify_frame(HandFrame(t_ms=0, hands=(left, right)), reg,
                               DEFAULT_FINGER_PARAMS) == "OneFive"
        swapped = (hand_template(FIVE, Handedness.RIGHT), hand_template(ONE, Handedness.LEFT))
        assert _classify_frame(HandFrame(t_ms=0, hands=swapped), reg, DEFAULT_FINGER_PARAMS) is None


def reference_cursor(lms):
    """The thumb-tip/index-tip midpoint in numpy float64 arithmetic."""
    thumb, index = lms.points[THUMB_TIP], lms.points[INDEX_TIP]
    return Point2(float((thumb[0] + index[0]) / 2.0), float((thumb[1] + index[1]) / 2.0))


@st.composite
def hand_streams(draw):
    """Frames in runs of one pose (no hand, one hand of either side, or two),
    each hand a template with per-frame jitter, so that gestures fire."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames, t = [], 0
    for _ in range(draw(st.integers(1, 8))):
        sides = draw(st.sampled_from([(), ("R",), ("L",), ("R", "L"), ("L", "R")]))
        postures = [draw(st.sampled_from([ONE, TWO, FIVE])) for _ in sides]
        for _ in range(draw(st.integers(1, 6))):
            hands = tuple(
                LandmarkSet(points=np.clip(hand_template(p, Handedness(side)).points
                                           + rng.normal(0.0, 0.01, (21, 2)), 0.0, 1.0),
                            handedness=side)
                for side, p in zip(sides, postures))
            frames.append(HandFrame(t_ms=t, hands=hands))
            t += int(rng.integers(1, 50))
    return frames


class TestEngineCursor:
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(frames=hand_streams())
    def test_onset_cursor_is_the_last_hands_cursor(self, frames):
        reg = small_registry()
        engine = GestureEngine(reg)
        last_hand = None
        active = None
        for frame in frames:
            if frame.hands:
                last_hand = frame.hands[0]
            name = classify({h.handedness: posture_array(h) for h in frame.hands}, reg)
            for event in engine.step(frame):
                if event.is_onset:
                    assert event.name == name and event.onset_ms == frame.t_ms
                    want = None if last_hand is None else reference_cursor(last_hand)
                    assert event.cursor == want
                    assert event.cursor is None or type(event.cursor.x) is float
                    active = event.name
                else:
                    assert event.name == active != name and event.offset_ms == frame.t_ms
                    active = None

    @pytest.mark.parametrize("y, message", [
        (1.5e308, "point: coordinates must be finite, got (inf, inf)"),
        (0.5, "point: coordinates must be finite, got (inf, 0.5)"),
    ])
    def test_overflowing_cursor_fails_on_its_frame(self, y, message):
        engine = GestureEngine(small_registry())
        assert engine.step(frame_of(ONE, 0)) == []
        huge = hand_with({THUMB_TIP: (1.5e308, y), INDEX_TIP: (1.5e308, y)})
        with pytest.raises(ValidationError) as info:
            engine.step(HandFrame(t_ms=40, hands=(huge,)))
        assert type(info.value) is ValidationError and str(info.value) == message


# --- the hand code and the compiled table against the scalar rules ------------

def scalar_posture(lms, params):
    """The posture rule as separate per-finger tests on numpy scalars."""
    pts = lms.points
    dx = pts[THUMB_TIP, 0] - pts[THUMB_MCP, 0]
    if abs(dx) < params.thumb_min_dx:
        thumb = 0
    else:
        thumb = 1 if abs((pts[THUMB_TIP, 1] - pts[THUMB_MCP, 1]) / dx) <= params.thumb_slope_max else 0
    fingers = tuple(1 if pts[TIP[f], 1] < pts[MCP[f], 1] else 0
                    for f in ("index", "middle", "ring", "pinky"))
    return PostureArray((thumb,) + fingers)


def first_match(arrays, registry):
    """The first definition the present hands satisfy, by a loop over the registry."""
    if not arrays:
        return None
    right, left = arrays.get(Handedness.RIGHT), arrays.get(Handedness.LEFT)
    for d in registry:
        if isinstance(d.pattern, DoublePattern):
            if right is not None and left is not None \
                    and right == d.pattern.right and left == d.pattern.left:
                return d.name
        elif right == d.pattern or left == d.pattern:
            return d.name
    return None


ALL_POSTURES = [PostureArray(tuple(int(b) for b in f"{code:05b}")) for code in range(32)]
ALL_PAIRS = [{side: p for side, p in ((Handedness.RIGHT, right), (Handedness.LEFT, left))
              if p is not None}
             for right in ALL_POSTURES + [None] for left in ALL_POSTURES + [None]]

posture_st = st.sampled_from(ALL_POSTURES)
pattern_st = posture_st | st.builds(DoublePattern, right=posture_st, left=posture_st)


@st.composite
def registries(draw):
    patterns = draw(st.lists(pattern_st, max_size=24, unique=True))
    return GestureRegistry([GestureDef(f"g{i}", p) for i, p in enumerate(patterns)])


extreme = st.sampled_from([0.0, -0.0, 1.0, 1e308, -1e308, 5e-324, -5e-324, 0.5, 0.54])
coordinate = extreme | st.floats(-1e308, 1e308) | st.floats(0.0, 1.0)
params_st = st.builds(FingerStateParams,
                      thumb_slope_max=st.floats(1e-300, 1e308) | st.sampled_from([1.0, 5e-324]),
                      thumb_min_dx=st.floats(1e-300, 1e308) | st.sampled_from([0.04, 5e-324]))


@st.composite
def odd_hands(draw, handedness="R"):
    pts = np.array(draw(st.lists(st.tuples(coordinate, coordinate), min_size=21, max_size=21)))
    for tip, base in draw(st.lists(st.sampled_from([(4, 2), (8, 5), (12, 9), (16, 13), (20, 17),
                                                    (4, 8)]), max_size=3)):
        pts[tip] = pts[base]  # coinciding joints
    return LandmarkSet(points=pts, handedness=handedness)


class TestCompiledRules:
    def test_stock_table_matches_first_match_on_every_code_pair(self):
        reg = default_registry()
        assert len(ALL_PAIRS) == 33 * 33
        for arrays in ALL_PAIRS:
            assert classify(arrays, reg) == first_match(arrays, reg)

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(reg=registries())
    def test_random_tables_match_first_match_on_every_code_pair(self, reg):
        for arrays in ALL_PAIRS:
            assert classify(arrays, reg) == first_match(arrays, reg)

    def test_values_that_are_no_posture_match_as_absent_hands(self):
        reg = small_registry()
        for arrays in ({Handedness.RIGHT: (0, 1, 0, 0, 0)},
                       {Handedness.RIGHT: (1, 1, 1, 1, 1), Handedness.LEFT: FIVE},
                       {"R": ONE}):
            assert classify(arrays, reg) == first_match(arrays, reg)
        loose = GestureRegistry([GestureDef("Loose", DoublePattern(right=(1, 1, 1, 1, 1), left=FIVE)),
                                 GestureDef("Five", FIVE)])
        both = {Handedness.RIGHT: FIVE, Handedness.LEFT: FIVE}
        assert classify(both, loose) == first_match(both, loose) == "Five"

    def test_float_bits_match_as_ints(self, tmp_path):
        """Posture states may be 1.0, 0.0 or -0.0 (as a registry file can spell them)."""
        ints = default_registry()
        data = registry_to_obj(ints)
        for entry in data:
            pattern = entry["pattern"]
            for bits in ([pattern["single"]] if "single" in pattern
                         else [pattern["double"]["R"], pattern["double"]["L"]]):
                bits[:] = [float(b) if b else (-0.0, 0.0)[i % 2] for i, b in enumerate(bits)]
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(data))
        floats = load_registry(path)
        assert any(type(b) is float for d in floats if not isinstance(d.pattern, DoublePattern)
                   for b in d.pattern)
        for arrays in ALL_PAIRS:
            assert classify(arrays, floats) == first_match(arrays, floats) == classify(arrays, ints)
            as_floats = {h: PostureArray(tuple(float(b) for b in p)) for h, p in arrays.items()}
            assert classify(as_floats, ints) == classify(arrays, ints)

    @settings(derandomize=True, max_examples=250, deadline=None, database=None)
    @given(lms=odd_hands(), params=params_st, data=st.data())
    def test_hand_code_matches_the_scalar_rules(self, lms, params, data):
        dx = float(lms.points[THUMB_TIP, 0] - lms.points[THUMB_MCP, 0])
        if 0.0 < abs(dx) < math.inf and data.draw(st.booleans()):
            # the thumb exactly at the width limit, and its slope exactly at the slope limit
            slope = abs(float(lms.points[THUMB_TIP, 1] - lms.points[THUMB_MCP, 1]) / dx)
            params = FingerStateParams(
                thumb_min_dx=abs(dx),
                thumb_slope_max=slope if 0.0 < slope < math.inf else params.thumb_slope_max)
        with np.errstate(all="ignore"):
            want = scalar_posture(lms, params)
        assert posture_array(lms, params) == want

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(right=odd_hands("R") | st.none(), left=odd_hands("L") | st.none(),
           params=params_st, reg=registries())
    def test_frame_classification_matches_posture_objects(self, right, left, params, reg):
        frame = HandFrame(t_ms=0, hands=tuple(h for h in (right, left) if h is not None))
        with np.errstate(all="ignore"):
            arrays = {h.handedness: scalar_posture(h, params) for h in frame.hands}
        assert {h.handedness: posture_array(h, params) for h in frame.hands} == arrays
        assert _classify_frame(frame, reg, params) == first_match(arrays, reg)
