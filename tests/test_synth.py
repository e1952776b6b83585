"""Template geometry and labelled corpus generation."""

import io
import itertools

import numpy as np
import pytest

from handwave import (
    DoublePattern,
    FingerStateParams,
    HandFrame,
    Handedness,
    LandmarkSet,
    PostureArray,
    SynthError,
    SynthSpec,
    ValidationError,
    default_registry,
    hand_template,
    posture_array,
    serialize_frame,
    synth_corpus,
    write_labelled,
)
from handwave import synth
from handwave.model import FRAME_INTERVAL_MS, INDEX_MCP, INDEX_TIP, THUMB_MCP, THUMB_TIP


class TestHandTemplate:
    @pytest.mark.parametrize("bits", list(itertools.product((0, 1), repeat=5)))
    @pytest.mark.parametrize("handedness", [Handedness.RIGHT, Handedness.LEFT])
    def test_every_posture_reads_back(self, bits, handedness):
        posture = PostureArray.of(*bits)
        lms = hand_template(posture, handedness)
        assert posture_array(lms) == posture
        assert lms.handedness is handedness

    def test_open_index_geometry(self):
        lms = hand_template(PostureArray.of(0, 1, 0, 0, 0))
        mcp = lms.point(INDEX_MCP)
        tip = lms.point(INDEX_TIP)
        assert tip.x == mcp.x
        assert tip.y == pytest.approx(mcp.y - 0.15)

    def test_folded_index_geometry(self):
        lms = hand_template(PostureArray.of(0, 0, 0, 0, 0))
        mcp = lms.point(INDEX_MCP)
        tip = lms.point(INDEX_TIP)
        assert tip.y == pytest.approx(mcp.y + 0.10)

    def test_open_thumb_geometry(self):
        lms = hand_template(PostureArray.of(1, 0, 0, 0, 0))
        mcp = lms.point(THUMB_MCP)
        tip = lms.point(THUMB_TIP)
        assert abs(tip.x - mcp.x) == pytest.approx(0.12)
        assert abs((tip.y - mcp.y) / (tip.x - mcp.x)) < 1.0

    def test_folded_thumb_has_no_lateral_offset(self):
        lms = hand_template(PostureArray.of(0, 0, 0, 0, 0))
        assert lms.point(THUMB_TIP).x == lms.point(THUMB_MCP).x

    def test_left_hand_is_mirrored(self):
        right = hand_template(PostureArray.of(1, 1, 0, 0, 1), Handedness.RIGHT)
        left = hand_template(PostureArray.of(1, 1, 0, 0, 1), Handedness.LEFT)
        assert np.allclose(left.points[:, 0], 1.0 - right.points[:, 0])
        assert np.array_equal(left.points[:, 1], right.points[:, 1])

    def test_all_points_inside_unit_square(self):
        for bits in itertools.product((0, 1), repeat=5):
            lms = hand_template(PostureArray.of(*bits))
            assert (lms.points >= 0.0).all() and (lms.points <= 1.0).all()

    def test_extreme_thresholds_rejected(self):
        # a thumb-span requirement wider than the template can satisfy
        params = FingerStateParams(thumb_min_dx=0.2)
        with pytest.raises(SynthError):
            hand_template(PostureArray.of(1, 0, 0, 0, 0), params=params)

    def test_failures_raise_on_every_call(self):
        params = FingerStateParams(thumb_min_dx=0.2)
        spec = SynthSpec(gestures=(("open", PostureArray.of(1, 1, 1, 1, 1)),), frames_per_gesture=2)
        for _ in range(3):
            with pytest.raises(SynthError, match=r"^template for \(1, 0, 0, 0, 0\) reads back as "):
                hand_template(PostureArray.of(1, 0, 0, 0, 0), params=params)
            with pytest.raises(SynthError):
                synth_corpus(spec, params)

    def test_templates_are_built_once(self, monkeypatch):
        posture = PostureArray.of(1, 1, 0, 0, 1)
        first = hand_template(posture, Handedness.LEFT)
        assert hand_template(posture, Handedness.LEFT) is first
        assert hand_template(PostureArray.of(1.0, 1, 0, 0, 1.0), Handedness.LEFT) is first
        assert hand_template(posture, Handedness.RIGHT) is not first
        assert hand_template(posture, Handedness.LEFT, FingerStateParams(thumb_min_dx=0.05)) \
            is not first
        monkeypatch.setattr(synth, "_TEMPLATES", {})
        fresh = hand_template(posture, Handedness.LEFT)
        assert fresh is not first and fresh == first
        assert not (first.points.flags.writeable or first.confidences.flags.writeable)

    def test_non_posture_arguments_are_not_shared(self):
        hand_template(PostureArray.of(0, 1, 0, 0, 0))
        with pytest.raises(ValidationError,
                           match=r"^posture: expected a PostureArray, got list$"):
            hand_template([0, 1, 0, 0, 0])
        both = DoublePattern(right=PostureArray.of(0, 1, 0, 0, 0), left=[0, 1, 0, 0, 0])
        with pytest.raises(ValidationError,
                           match=r"^posture: expected a PostureArray, got list$"):
            synth_corpus(SynthSpec(gestures=(("Both", both),), frames_per_gesture=1))

    def test_side_spelled_as_a_string_is_that_side(self, monkeypatch):
        monkeypatch.setattr(synth, "_TEMPLATES", {})
        one = PostureArray.of(0, 1, 0, 0, 0)
        spelled = hand_template(one, "L")
        built = synth._build_template(one, Handedness.LEFT, FingerStateParams())
        assert spelled.handedness is Handedness.LEFT
        assert spelled.points.tobytes() == built.points.tobytes()
        assert spelled.points.tobytes() != hand_template(one, "R").points.tobytes()
        assert hand_template(one, Handedness.LEFT) is spelled  # one cache entry per side
        assert hand_template(one, "R") is hand_template(one, Handedness.RIGHT)
        with pytest.raises(ValidationError, match=r"^handedness: expected 'R' or 'L', got 'X'$"):
            hand_template(one, "X")


class TestSynthSpec:
    def test_from_registry_covers_all_gestures(self):
        registry = default_registry()
        spec = SynthSpec.from_registry(registry, frames_per_gesture=3)
        assert [name for name, _ in spec.gestures] == [d.name for d in registry]

    @pytest.mark.parametrize("kwargs", [
        {"gestures": ()},
        {"gestures": (("", PostureArray.of(1, 1, 1, 1, 1)),)},
        {"gestures": (("x", "not-a-pattern"),)},
        {"gestures": (("x", PostureArray.of(1, 1, 1, 1, 1)),), "frames_per_gesture": 0},
        {"gestures": (("x", PostureArray.of(1, 1, 1, 1, 1)),), "jitter_sigma": -0.1},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            SynthSpec(**kwargs)


class TestSynthCorpus:
    def test_counts_and_timestamps(self):
        spec = SynthSpec.from_registry(default_registry(), frames_per_gesture=150)
        pairs = synth_corpus(spec)
        assert len(pairs) == 16 * 150
        for i, (frame, _) in enumerate(pairs):
            assert frame.t_ms == i * 40

    def test_label_blocks_in_registry_order(self):
        spec = SynthSpec.from_registry(default_registry(), frames_per_gesture=2)
        labels = [label for _, label in synth_corpus(spec)]
        expected = [d.name for d in default_registry() for _ in range(2)]
        assert labels == expected

    def test_double_gesture_gets_two_hands(self):
        pattern = DoublePattern(right=PostureArray.of(1, 1, 1, 1, 1),
                                left=PostureArray.of(0, 1, 1, 0, 0))
        spec = SynthSpec(gestures=(("Both", pattern),), frames_per_gesture=1)
        (frame, label), = synth_corpus(spec)
        assert label == "Both"
        assert [h.handedness for h in frame.hands] == [Handedness.RIGHT, Handedness.LEFT]

    def test_zero_sigma_frames_classify_exactly(self):
        spec = SynthSpec(
            gestures=(("One", PostureArray.of(0, 1, 0, 0, 0)),),
            frames_per_gesture=3, jitter_sigma=0.0)
        for frame, _ in synth_corpus(spec):
            assert posture_array(frame.hands[0]) == PostureArray.of(0, 1, 0, 0, 0)

    def test_determinism_bytewise(self):
        spec = SynthSpec.from_registry(default_registry(), frames_per_gesture=5,
                                       jitter_sigma=0.02, seed=99)
        a = [serialize_frame(f) for f, _ in synth_corpus(spec)]
        b = [serialize_frame(f) for f, _ in synth_corpus(spec)]
        assert a == b

    def test_different_seeds_differ(self):
        base = dict(gestures=(("Five", PostureArray.of(1, 1, 1, 1, 1)),),
                    frames_per_gesture=2, jitter_sigma=0.02)
        a = synth_corpus(SynthSpec(seed=1, **base))
        b = synth_corpus(SynthSpec(seed=2, **base))
        assert not np.array_equal(a[0][0].hands[0].points, b[0][0].hands[0].points)

    def test_jitter_stays_in_unit_square(self):
        spec = SynthSpec(gestures=(("Five", PostureArray.of(1, 1, 1, 1, 1)),),
                         frames_per_gesture=50, jitter_sigma=0.4, seed=7)
        for frame, _ in synth_corpus(spec):
            pts = frame.hands[0].points
            assert (pts >= 0.0).all() and (pts <= 1.0).all()

    def test_jitter_magnitude_tracks_sigma(self):
        base = hand_template(PostureArray.of(1, 1, 1, 1, 1)).points
        spec = SynthSpec(gestures=(("Five", PostureArray.of(1, 1, 1, 1, 1)),),
                         frames_per_gesture=200, jitter_sigma=0.01, seed=3)
        deviations = np.concatenate(
            [(f.hands[0].points - base).ravel() for f, _ in synth_corpus(spec)])
        assert abs(float(np.std(deviations)) - 0.01) < 0.002


def per_frame_corpus(spec):
    """synth_corpus as one noise draw per hand per frame: the reference for the bulk draw."""
    rng = np.random.default_rng(spec.seed)
    pairs, t = [], 0
    for name, pattern in spec.gestures:
        bases = [hand_template(pattern.right, Handedness.RIGHT),
                 hand_template(pattern.left, Handedness.LEFT)] \
            if isinstance(pattern, DoublePattern) else [hand_template(pattern)]
        for _ in range(spec.frames_per_gesture):
            hands = []
            for base in bases:
                noisy = base.points + rng.normal(0.0, spec.jitter_sigma, (21, 2)) \
                    if spec.jitter_sigma > 0 else base.points.copy()
                np.clip(noisy, 0.0, 1.0, out=noisy)
                hands.append(LandmarkSet(points=noisy, handedness=base.handedness))
            pairs.append((HandFrame(t_ms=t, hands=tuple(hands)), name))
            t += FRAME_INTERVAL_MS
    return pairs


TWO_HANDED = (
    ("Both", DoublePattern(right=PostureArray.of(1, 1, 1, 1, 1), left=PostureArray.of(0, 1, 1, 0, 0))),
    ("Point", PostureArray.of(0, 1, 0, 0, 0)),
    ("Fists", DoublePattern(right=PostureArray.of(0, 0, 0, 0, 0), left=PostureArray.of(0, 0, 0, 0, 0))),
    ("Span", PostureArray.of(1, 0, 0, 0, 1)),
)


class TestBulkNoise:
    @pytest.mark.parametrize("seed", [0, 1, 20261017])
    @pytest.mark.parametrize("frames", [1, 5, 13])
    @pytest.mark.parametrize("sigma", [0.0, 0.01, 0.12, 0.3])
    def test_corpus_bytes_equal_the_per_frame_draws(self, sigma, frames, seed):
        spec = SynthSpec(gestures=TWO_HANDED, frames_per_gesture=frames,
                         jitter_sigma=sigma, seed=seed)
        got, want = io.StringIO(), io.StringIO()
        pairs = synth_corpus(spec)
        write_labelled(got, pairs)
        write_labelled(want, per_frame_corpus(spec))
        assert got.getvalue() == want.getvalue()
        for frame, _ in pairs:
            for hand in frame.hands:
                assert not (hand.points.flags.writeable or hand.confidences.flags.writeable)
                assert hand.confidences.tolist() == [1.0] * 21
