"""Acceptance gate: one test per shipped guarantee.

Each test exercises one end-to-end behaviour the package commits to, at its
stated tolerance, so `pytest -v` prints one pass/fail line per guarantee.
"""

import itertools
import math
import string
import time
from decimal import ROUND_DOWN, Context, Decimal
from fractions import Fraction

import numpy as np
import pytest

from handwave import (
    AdamState,
    AnchorConfig,
    Axis,
    ControllerConfig,
    DeviceCommand,
    DoublePattern,
    EvalRow,
    GestureDef,
    GestureRegistry,
    Handedness,
    LandmarkSet,
    LayerSpec,
    MotorCommand,
    Point2,
    PostureArray,
    ProtocolError,
    RawPrediction,
    SynthSpec,
    adam_step,
    centering_step,
    classify,
    decode_box,
    decode_keypoints,
    decode_wire,
    default_registry,
    encode_wire,
    encoder_backward,
    encoder_forward,
    enroll,
    evaluate,
    format_row_cells,
    generate_anchors,
    hand_template,
    init_encoder,
    nms,
    posture_array,
    roc_sweep,
    synth_corpus,
    train,
    triplet_grad,
    triplet_loss,
    verify,
)
from handwave.detect import FULL_IMAGE, BBox


# --- criterion 1: gesture accuracy on the synthetic desk-scale corpus -------

def test_criterion_01_synth_corpus_accuracy():
    registry = default_registry()
    started = time.perf_counter()

    clean = SynthSpec.from_registry(registry, frames_per_gesture=150,
                                    jitter_sigma=0.0, seed=0)
    report = evaluate(synth_corpus(clean), registry)
    assert report.totals.total_frames == 16 * 150
    assert report.totals.accuracy_pct == 100.0
    assert format_row_cells(report.totals)[0] == "100.00"

    noisy = SynthSpec.from_registry(registry, frames_per_gesture=150,
                                    jitter_sigma=0.01, seed=0)
    noisy_report = evaluate(synth_corpus(noisy), registry)
    assert noisy_report.totals.accuracy_pct >= 95.0

    assert time.perf_counter() - started < 5.0


# --- criterion 2: metric arithmetic on the published-scale counts -----------
# The paper's headline accuracy figure is not reproducible from its frame
# counts: 10816/11250 = 96.1422...% shows as "96.14" whether truncated or
# rounded. So this criterion pins the counts plus the documented display rule:
# accuracy and error truncated to two decimals, recall rounded to two.

def _truncated_pct(numerator, denominator):
    """100 * numerator / denominator rounded down to two decimals, exactly.

    Rounding down at the context precision and again at the quantize gives
    the same digits as one exact truncation.
    """
    pct = Context(rounding=ROUND_DOWN).divide(Decimal(100 * numerator), Decimal(denominator))
    return str(pct.quantize(Decimal("0.01"), rounding=ROUND_DOWN))


def _rounded_ratio(numerator, denominator):
    """numerator / denominator rounded half-even to two decimals, exactly."""
    return str(Decimal(round(Fraction(100 * numerator, denominator))).scaleb(-2))


def _cells_sum(accuracy, error):
    return str(Decimal(accuracy) + Decimal(error))


def test_criterion_02_metric_display_from_counts():
    total, correct = 11250, 10816
    accuracy, error, recall = format_row_cells(EvalRow.from_counts("total", total, correct))
    assert accuracy == _truncated_pct(correct, total) == "96.14", (
        f"10816/11250 = 96.1422...% must display '96.14', got {accuracy!r}")
    assert error == _truncated_pct(total - correct, total) == "3.85", (
        f"434/11250 = 3.8577...% must display '3.85', got {error!r}")
    assert recall == _rounded_ratio(correct, total) == "0.96"
    # The exact percentages sum to 100, so their truncated cells sum to 99.99
    # (both had a fractional remainder) or 100.00 (neither had one).
    assert _cells_sum(accuracy, error) == "99.99"

    for total in (1, 3, 7, 750, 11250):
        for correct in range(total + 1):
            accuracy, error, _ = format_row_cells(EvalRow.from_counts("row", total, correct))
            assert accuracy == _truncated_pct(correct, total), (total, correct)
            assert error == _truncated_pct(total - correct, total), (total, correct)
            assert _cells_sum(accuracy, error) in ("99.99", "100.00"), (total, correct)


# --- criterion 3: detection decode against brute-force oracles --------------

def _corners(box):
    return (box.cx - box.w / 2, box.cy - box.h / 2,
            box.cx + box.w / 2, box.cy + box.h / 2)


def _oracle_nms(boxes, iou_thresh, score_thresh):
    """Vectorized greedy reference; corner-derived areas like the library."""
    order = sorted((i for i, b in enumerate(boxes) if b.score >= score_thresh),
                   key=lambda i: (-boxes[i].score, i))
    if not order:
        return []
    corners = np.array([_corners(boxes[i]) for i in order])
    x1, y1, x2, y2 = corners.T
    areas = (x2 - x1) * (y2 - y1)
    alive = np.ones(len(order), dtype=bool)
    kept = []
    for i in range(len(order)):
        if not alive[i]:
            continue
        kept.append(boxes[order[i]])
        ix1 = np.maximum(x1[i], x1)
        iy1 = np.maximum(y1[i], y1)
        ix2 = np.minimum(x2[i], x2)
        iy2 = np.minimum(y2[i], y2)
        inter = np.maximum(ix2 - ix1, 0.0) * np.maximum(iy2 - iy1, 0.0)
        union = areas[i] + areas - inter
        overlap = np.divide(inter, union, out=np.zeros_like(union),
                            where=union > 0)
        alive &= ~(overlap > iou_thresh)
        alive[: i + 1] = False
        alive[i] = False
    return kept


def _random_boxes(rng, n):
    # clustered so suppression actually triggers
    centers = rng.uniform(0.1, 0.9, size=(max(1, n // 12), 2))
    boxes = []
    for _ in range(n):
        cx, cy = centers[rng.integers(0, len(centers))]
        boxes.append(BBox(
            cx=float(np.clip(cx + rng.normal(0, 0.03), 0.02, 0.98)),
            cy=float(np.clip(cy + rng.normal(0, 0.03), 0.02, 0.98)),
            w=float(rng.uniform(0.02, 0.3)),
            h=float(rng.uniform(0.02, 0.3)),
            score=float(rng.uniform(0, 1)),
        ))
    return boxes


def test_criterion_03_detection_decode_oracles():
    rng = np.random.default_rng(2024)

    # NMS equals the brute-force oracle on 500 random sets, sizes <= 1000
    sizes = [int(rng.integers(1, 61)) for _ in range(470)]
    sizes += [int(rng.integers(61, 401)) for _ in range(25)]
    sizes += [int(rng.integers(800, 1000)) for _ in range(4)] + [1000]
    for n in sizes:
        boxes = _random_boxes(rng, n)
        iou_thresh = float(rng.choice([0.3, 0.5, 0.7]))
        score_thresh = float(rng.choice([0.0, 0.2, 0.5]))
        assert nms(boxes, iou_thresh=iou_thresh, score_thresh=score_thresh) == \
            _oracle_nms(boxes, iou_thresh, score_thresh)

    # zero offsets decode to the anchors themselves, exactly
    cfg = AnchorConfig(layers=(LayerSpec(8, 8, (0.2, 0.5), (1.0, 0.5, 2.0)),
                               LayerSpec(4, 4, (0.7,), (1.0,))))
    for anchor in generate_anchors(cfg):
        box = decode_box(RawPrediction(0.0, 0.0, 0.0, 0.0, 0.0), anchor, cfg)
        assert (box.cx, box.cy, box.w, box.h) == \
            (anchor.cx, anchor.cy, anchor.w, anchor.h)

    # 21 planted Gaussian peaks on 64x64 maps, 100/100 seeded trials
    size = 64
    yy, xx = np.mgrid[0:size, 0:size]
    for trial in range(100):
        trial_rng = np.random.default_rng(9000 + trial)
        rows = trial_rng.integers(0, size, 21)
        cols = trial_rng.integers(0, size, 21)
        maps = np.empty((21, size, size))
        for k in range(21):
            maps[k] = np.exp(-((yy - rows[k]) ** 2 + (xx - cols[k]) ** 2) / (2 * 2.0 ** 2))
        lms = decode_keypoints(maps, FULL_IMAGE)
        for k in range(21):
            point = lms.point(k)
            assert point.x == (cols[k] + 0.5) / size
            assert point.y == (rows[k] + 0.5) / size


# --- criterion 4: palm verification training end to end ---------------------

def test_criterion_04_training_reaches_holdout_accuracy():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    n_subjects, per_subject, dim, sigma = 10, 20, 16, 1.0

    # isotropic clusters with pairwise center distance >= 6 sigma
    centers = []
    while len(centers) < n_subjects:
        candidate = rng.uniform(-12.0, 12.0, size=dim)
        if all(np.linalg.norm(candidate - c) >= 6.0 * sigma for c in centers):
            centers.append(candidate)
    subjects = {f"s{i:02d}": centers[i] + rng.normal(0, sigma, (per_subject, dim))
                for i in range(n_subjects)}

    train_split = {s: v[:12] for s, v in subjects.items()}
    holdout = {s: v[12:] for s, v in subjects.items()}

    params, curve = train(train_split, embed_dim=8, hidden_dim=24,
                          epochs=100, alpha=0.2, seed=1)
    assert len(curve) == 100

    # threshold from the training split: leave-one-out genuine distances,
    # cross-subject impostor distances, both min-over-anchors
    records = {s: enroll(s, v, params, threshold=0.0)
               for s, v in train_split.items()}

    def min_distance(probe_vec, record):
        embedded = encoder_forward(params, probe_vec)
        return float(np.sqrt(((record.anchors - embedded) ** 2).sum(axis=1)).min())

    genuine, impostor = [], []
    for s, vectors in train_split.items():
        own = encoder_forward(params, vectors)
        for i in range(len(vectors)):
            others = np.delete(own, i, axis=0)
            probe = own[i]
            genuine.append(float(np.sqrt(((others - probe) ** 2).sum(axis=1)).min()))
        for t, record in records.items():
            if t == s:
                continue
            for vec in vectors:
                impostor.append(min_distance(vec, record))
    threshold = roc_sweep(genuine, impostor).eer_threshold

    # held-out verification at that threshold
    calibrated = {t: enroll(t, v, params, threshold=threshold)
                  for t, v in train_split.items()}
    correct = total = 0
    for s, vectors in holdout.items():
        for vec in vectors:
            for t, record in calibrated.items():
                decision = verify(vec, record, params)
                correct += int(decision.accepted == (s == t))
                total += 1
    assert total == n_subjects * 8 * n_subjects
    assert correct / total >= 0.90
    assert time.perf_counter() - started < 60.0


# --- criterion 5: analytic gradients match finite differences ---------------

def _fd_rel_error(analytic, numeric):
    denom = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)), 1e-6)
    return float(np.linalg.norm(analytic - numeric)) / denom


def test_criterion_05_gradients_match_finite_differences():
    h = 1e-5
    rng = np.random.default_rng(31337)
    checked = 0

    # triplet_grad on raw embeddings
    while checked < 10:
        a, p, n = rng.normal(scale=0.9, size=(3, 5))
        alpha = float(rng.uniform(0.1, 0.5))
        margin = np.sum((a - p) ** 2) - np.sum((a - n) ** 2) + alpha
        if abs(margin) < 1e-2:
            continue
        grads = triplet_grad(a, p, n, alpha=alpha)
        vectors = [a, p, n]
        for which, grad in enumerate(grads):
            numeric = np.zeros_like(grad)
            for i in range(numeric.size):
                probe = [v.copy() for v in vectors]
                probe[which][i] += h
                up = triplet_loss(*probe, alpha=alpha)
                probe[which][i] -= 2 * h
                down = triplet_loss(*probe, alpha=alpha)
                numeric[i] = (up - down) / (2 * h)
            assert _fd_rel_error(np.asarray(grad), numeric) <= 1e-4
        checked += 1

    # encoder_backward through the full pipeline
    checked = 0
    while checked < 10:
        params = init_encoder(4, 3, 2, seed=int(rng.integers(1 << 30)),
                              normalize=bool(rng.integers(2)), init_scale=0.4)
        batch = rng.normal(scale=1.1, size=(3, 3, 4))
        anchors, positives, negatives = batch
        alpha = float(rng.uniform(0.1, 0.4))

        stacked = np.concatenate(batch)
        pre = stacked @ params.w1.T + params.b1
        if np.abs(pre).min() < 1e-3:
            continue
        lin = np.maximum(pre, 0.0) @ params.w2.T + params.b2
        if params.normalize and np.linalg.norm(lin, axis=1).min() < 1e-2:
            continue
        ea = encoder_forward(params, anchors)
        ep = encoder_forward(params, positives)
        en = encoder_forward(params, negatives)
        margins = np.sum((ea - ep) ** 2, 1) - np.sum((ea - en) ** 2, 1) + alpha
        if np.abs(margins).min() < 1e-2 or not (margins > 0).any():
            continue

        grads, _ = encoder_backward(params, anchors, positives, negatives, alpha=alpha)
        for key, value in params.as_dict().items():
            numeric = np.zeros_like(value)
            flat = numeric.reshape(-1)
            for i in range(value.size):
                for sign in (+1.0, -1.0):
                    bumped = value.copy().reshape(-1)
                    bumped[i] += sign * h
                    arrays = dict(params.as_dict())
                    arrays[key] = bumped.reshape(value.shape)
                    p2 = params.with_arrays(arrays)
                    flat[i] += sign * triplet_loss(
                        encoder_forward(p2, anchors),
                        encoder_forward(p2, positives),
                        encoder_forward(p2, negatives), alpha=alpha)
                flat[i] /= 2 * h
            assert _fd_rel_error(grads[key], numeric) <= 1e-4
        checked += 1

    # adam with zero gradient leaves fresh parameters untouched
    params = {"w": np.array([[0.4, -1.2], [3.0, 0.0]])}
    state = AdamState.initial(params, lr=0.05)
    stepped, _ = adam_step(params, {"w": np.zeros((2, 2))}, state)
    assert np.array_equal(stepped["w"], params["w"])


# --- criterion 6: triplet-loss fixed points ----------------------------------

def test_criterion_06_triplet_loss_fixed_points():
    z = np.zeros(3)
    assert triplet_loss(z, z, z, alpha=0.2) == 0.2
    assert triplet_loss(np.array([0.0, 0.0]), np.array([0.0, 1.0]),
                        np.array([0.0, 3.0]), alpha=0.5) == 0.0
    assert triplet_loss(np.array([0.0, 0.0]), np.array([0.0, 2.0]),
                        np.array([0.0, 1.0]), alpha=0.5) == 3.5


# --- criterion 7: wire protocol round-trips and fuzz dichotomy ---------------

def test_criterion_07_wire_codec():
    rng = np.random.default_rng(424242)
    token_chars = list(string.ascii_letters + string.digits + "_")

    for _ in range(10_000):
        if rng.random() < 0.5:
            steps = int(rng.integers(1, 1000)) * (1 if rng.random() < 0.5 else -1)
            cmd = MotorCommand(Axis.X if rng.random() < 0.5 else Axis.Y, steps)
        else:
            cmd = DeviceCommand(
                "".join(rng.choice(token_chars, size=int(rng.integers(1, 17)))),
                "".join(rng.choice(token_chars, size=int(rng.integers(1, 17)))))
        encoded = encode_wire(cmd)
        assert decode_wire(encoded) == cmd
        assert encode_wire(decode_wire(encoded)) == encoded

    seeds = [b"M X +8\n", b"M Y -999\n", b"D tv POWER\n", b"D dev_1 VOL_UP\n"]
    alphabet = b"MDXY+- 0123456789tvPOWERdev_1\n\x00\x7f\xff"
    for trial in range(10_000):
        data = bytearray(seeds[trial % len(seeds)])
        for _ in range(int(rng.integers(0, 4))):
            op = int(rng.integers(0, 3))
            pos = int(rng.integers(0, len(data))) if data else 0
            byte = alphabet[int(rng.integers(0, len(alphabet)))]
            if op == 0 and data:
                data[pos] = byte
            elif op == 1:
                data.insert(pos, byte)
            elif data:
                del data[pos]
        blob = bytes(data)
        try:
            cmd = decode_wire(blob)
        except ProtocolError as exc:
            assert 0 <= exc.offset <= len(blob)
            continue
        assert encode_wire(cmd) == blob


# --- criterion 8: centering loop convergence ---------------------------------

def test_criterion_08_centering_converges():
    cfg = ControllerConfig(deadzone=0.05, gain=40.0, max_steps=20)
    bound = math.ceil(cfg.gain / cfg.max_steps) + 2

    assert centering_step(Point2(0.5, 0.5), cfg) == []

    rng = np.random.default_rng(515)
    for _ in range(100):
        focal = Point2(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        for _ in range(bound):
            commands = centering_step(focal, cfg)
            if not commands:
                break
            x, y = focal.x, focal.y
            for cmd in commands:
                if cmd.axis is Axis.X:
                    x -= cmd.steps / cfg.gain
                else:
                    y -= cmd.steps / cfg.gain
            focal = Point2(x, y)
        assert centering_step(focal, cfg) == [], \
            f"not centered after {bound} iterations: {focal}"


# --- criterion 9: geometric invariance and registry-order property ----------

def test_criterion_09_invariance_suite():
    rng = np.random.default_rng(616)
    templates = [hand_template(PostureArray.of(*bits), handedness)
                 for bits in itertools.product((0, 1), repeat=5)
                 for handedness in (Handedness.RIGHT, Handedness.LEFT)]

    # posture reading survives translation and positive scaling; scale factors
    # stay within [0.5, 1.8] because the thumb-spread test uses an absolute
    # lateral threshold that deliberately bounds how small a hand can appear
    for _ in range(100):
        base = templates[int(rng.integers(0, len(templates)))]
        expected = posture_array(base)
        scale = float(rng.uniform(0.5, 1.8))
        shift = rng.uniform(-3.0, 3.0, size=2)
        moved = LandmarkSet(points=base.points * scale + shift,
                            handedness=base.handedness)
        assert posture_array(moved) == expected

    # classification = first matching definition in registry order
    one, two, five = (PostureArray.of(0, 1, 0, 0, 0),
                      PostureArray.of(0, 1, 1, 0, 0),
                      PostureArray.of(1, 1, 1, 1, 1))
    both = DoublePattern(right=one, left=two)
    defs = [GestureDef("Pair", both, hold_frames=1),
            GestureDef("One", one, hold_frames=1),
            GestureDef("Two", two, hold_frames=1),
            GestureDef("Five", five, hold_frames=1)]
    arrays = {Handedness.RIGHT: one, Handedness.LEFT: two}

    for _ in range(50):
        order = [defs[i] for i in rng.permutation(len(defs))]
        registry = GestureRegistry(order)
        matches = [d.name for d in order
                   if (isinstance(d.pattern, DoublePattern)
                       and d.pattern.right == one and d.pattern.left == two)
                   or (not isinstance(d.pattern, DoublePattern)
                       and d.pattern in (one, two))]
        assert classify(arrays, registry) == matches[0]

    # permuting definitions that never match changes nothing
    frame_arrays_fixed = {Handedness.RIGHT: five}
    for _ in range(50):
        order = [defs[i] for i in rng.permutation(len(defs))]
        assert classify(frame_arrays_fixed, GestureRegistry(order)) == "Five"
