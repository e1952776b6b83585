"""Triplet loss, analytic gradients vs finite differences, Adam, mining,
training, enrollment/verification, and ROC calibration."""

import json
import math
import re
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handwave import (
    AdamState,
    AuthDecision,
    DataError,
    DimensionError,
    EmptyBatchError,
    EncoderParams,
    EnrollmentRecord,
    NumericsError,
    ValidationError,
    adam_step,
    encoder_backward,
    encoder_forward,
    enroll,
    euclidean_distance,
    init_encoder,
    load_features,
    load_params,
    load_store,
    mine_triplets,
    roc_sweep,
    save_features,
    save_params,
    save_store,
    train,
    triplet_grad,
    triplet_loss,
    validate_frame,
    verify,
)
from handwave import palmauth
from handwave.palmauth import NORMALIZE_EPS, pairwise_distances

FD_H = 1e-5
FD_TOL = 1e-4


def rel_error(analytic, numeric):
    # the floor absorbs central-difference noise when the true gradient is zero
    denom = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)), 1e-6)
    return float(np.linalg.norm(np.asarray(analytic) - np.asarray(numeric))) / denom


def traced_peak(fn, *args) -> int:
    """Bytes that ``fn(*args)`` allocates at its peak, above what was live before."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


class TestEuclideanDistance:
    def test_identical_is_zero(self):
        v = np.array([0.3, -1.2, 4.0])
        assert euclidean_distance(v, v) == 0.0

    def test_three_four_five(self):
        assert euclidean_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_matches_component_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.normal(size=(2, 6))
            by_hand = math.sqrt(sum((ai - bi) ** 2 for ai, bi in zip(a, b)))
            assert euclidean_distance(a, b) == pytest.approx(by_hand, rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            euclidean_distance(np.zeros(3), np.zeros(4))

    # D > 128 makes numpy's pairwise summation split each row into blocks.
    @pytest.mark.parametrize("n, m, dim", [(1, 1, 1), (1, 6, 3), (5, 1, 1), (4, 7, 8),
                                           (3, 4, 129), (2, 3, 200), (20, 20, 64)])
    def test_pairwise_matches_per_pair_exactly(self, n, m, dim):
        rng = np.random.default_rng(n * 1000 + dim)
        a, b = rng.normal(size=(n, dim)) * 3.0, rng.normal(size=(m, dim))
        got = pairwise_distances(a, b)
        assert got.shape == (n, m)
        for i in range(n):
            for j in range(m):
                assert got[i, j] == euclidean_distance(a[i], b[j])
        # A vector b is one row.
        got = pairwise_distances(a, b[-1])
        assert got.shape == (n, 1)
        for i in range(n):
            assert got[i, 0] == euclidean_distance(a[i], b[-1])

    def test_pairwise_peak_memory_is_one_temporary(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=(240, 32)), rng.normal(size=(240, 32))
        # The (N, M, D) difference is squared in place; a second live copy
        # would double the peak.
        assert traced_peak(pairwise_distances, a, b) < 1.5 * 240 * 240 * 32 * 8

    def test_metric_axioms_on_embeddings(self):
        rng = np.random.default_rng(2)
        params = init_encoder(5, 4, 3, seed=0)
        e = [encoder_forward(params, rng.normal(size=5)) for _ in range(8)]
        for a in e:
            assert euclidean_distance(a, a) == 0.0
        for a in e:
            for b in e:
                assert euclidean_distance(a, b) == euclidean_distance(b, a)
                for c in e:
                    assert euclidean_distance(a, c) <= (
                        euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-12)


class TestTripletLoss:
    def test_degenerate_triplet_pins_at_margin(self):
        z = np.zeros(4)
        assert triplet_loss(z, z, z, alpha=0.2) == 0.2

    def test_hand_example_inactive(self):
        # 1 - 9 + 0.5 < 0 -> hinge clamps to 0
        a = np.array([0.0, 0.0])
        p = np.array([0.0, 1.0])
        n = np.array([0.0, 3.0])
        assert triplet_loss(a, p, n, alpha=0.5) == 0.0

    def test_hand_example_active(self):
        # 4 - 1 + 0.5 = 3.5
        a = np.array([0.0, 0.0])
        p = np.array([0.0, 2.0])
        n = np.array([0.0, 1.0])
        assert triplet_loss(a, p, n, alpha=0.5) == 3.5

    def test_empty_batch_rejected(self):
        with pytest.raises(EmptyBatchError):
            triplet_loss(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))

    def test_mean_of_mixed_batch(self):
        # two triplets pinned at alpha, two fully inactive -> mean = alpha/2
        anchors = np.zeros((4, 2))
        positives = np.zeros((4, 2))
        negatives = np.zeros((4, 2))
        negatives[2] = (9.0, 0.0)
        negatives[3] = (0.0, 9.0)
        loss = triplet_loss(anchors, positives, negatives, alpha=0.2)
        assert loss == pytest.approx(0.1, abs=1e-15)

    def test_loss_never_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, p, n = rng.normal(size=(3, 4))
            assert triplet_loss(a, p, n, alpha=float(rng.uniform(0, 1))) >= 0.0


class TestTripletGrad:
    def test_inactive_triplet_zero_gradients(self):
        a = np.array([0.0, 0.0])
        p = np.array([0.0, 1.0])
        n = np.array([0.0, 3.0])
        ga, gp, gn = triplet_grad(a, p, n, alpha=0.5)
        assert not ga.any() and not gp.any() and not gn.any()

    def test_anchor_equals_positive_gives_zero_positive_grad(self):
        a = np.array([1.0, 2.0])
        n = np.array([1.1, 2.1])
        ga, gp, gn = triplet_grad(a, a.copy(), n, alpha=0.5)
        assert not gp.any()
        assert ga.any()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 8:
            a, p, n = rng.normal(scale=0.8, size=(3, 4))
            alpha = float(rng.uniform(0.1, 0.6))
            margin = (np.sum((a - p) ** 2) - np.sum((a - n) ** 2) + alpha)
            if abs(margin) < 1e-2:
                continue  # keep the loss differentiable at the probe point
            ga, gp, gn = triplet_grad(a, p, n, alpha=alpha)
            for vec, grad in ((a, ga), (p, gp), (n, gn)):
                numeric = np.zeros_like(vec)
                for i in range(vec.size):
                    for sign in (+1.0, -1.0):
                        shifted = vec.copy()
                        shifted[i] += sign * FD_H
                        args = {id(a): a, id(p): p, id(n): n}
                        args[id(vec)] = shifted
                        numeric[i] += sign * triplet_loss(
                            args[id(a)], args[id(p)], args[id(n)], alpha=alpha)
                    numeric[i] /= 2 * FD_H
                if grad.any() or numeric.any():
                    assert rel_error(grad, numeric) <= FD_TOL
            checked += 1

    def test_batch_mean_scaling(self):
        # duplicating a triplet leaves the batch-mean gradient unchanged
        a = np.array([[0.0, 0.0]])
        p = np.array([[0.0, 2.0]])
        n = np.array([[0.0, 1.0]])
        ga1, _, _ = triplet_grad(a, p, n, alpha=0.5)
        ga2, _, _ = triplet_grad(np.repeat(a, 2, 0), np.repeat(p, 2, 0),
                                 np.repeat(n, 2, 0), alpha=0.5)
        assert np.allclose(ga2.sum(axis=0), ga1.sum(axis=0), atol=1e-15)


class TestEncoderForward:
    def test_zero_params_zero_embedding(self):
        params = EncoderParams(w1=np.zeros((3, 4)), b1=np.zeros(3),
                               w2=np.zeros((2, 3)), b2=np.zeros(2), normalize=False)
        assert not encoder_forward(params, np.array([1.0, -2.0, 3.0, 0.5])).any()

    def test_identity_composition_by_hand(self):
        # relu is inert on non-negative input, so e = W2 @ x
        params = EncoderParams(w1=np.eye(2), b1=np.zeros(2),
                               w2=np.array([[2.0, 0.0], [0.0, 3.0]]), b2=np.zeros(2),
                               normalize=False)
        out = encoder_forward(params, np.array([0.5, 1.5]))
        assert out.tolist() == [1.0, 4.5]

    def test_normalized_output_is_unit(self):
        params = init_encoder(6, 5, 4, seed=1, normalize=True)
        rng = np.random.default_rng(7)
        for _ in range(20):
            e = encoder_forward(params, rng.normal(size=6))
            assert abs(np.linalg.norm(e) - 1.0) <= 1e-6

    def test_batch_matches_single(self):
        params = init_encoder(5, 4, 3, seed=2)
        rng = np.random.default_rng(8)
        batch = rng.normal(size=(6, 5))
        stacked = encoder_forward(params, batch)
        for i, row in enumerate(batch):
            # BLAS may order the sums differently for batched vs single input
            assert np.allclose(stacked[i], encoder_forward(params, row),
                               rtol=1e-12, atol=0.0)

    def test_dimension_mismatch(self):
        params = init_encoder(5, 4, 3, seed=0)
        with pytest.raises(DimensionError):
            encoder_forward(params, np.zeros(6))

    def test_nan_norm_is_not_floored(self):
        # An infinite input makes the output (inf, inf - inf) = (inf, nan); its
        # norm is NaN, and dividing by it leaves no entry finite or infinite.
        params = EncoderParams(w1=np.ones((2, 1)), b1=np.zeros(2),
                               w2=np.array([[1.0, 1.0], [1.0, -1.0]]), b2=np.zeros(2))
        with np.errstate(invalid="ignore"):  # inf - inf in the matmul
            vector = encoder_forward(params, np.array([np.inf]))
            batch = encoder_forward(params, np.array([[np.inf]]))
        assert np.isnan(vector).all()
        assert vector.tobytes() == batch[0].tobytes()

    def test_init_bounds_and_determinism(self):
        a = init_encoder(7, 6, 5, seed=9)
        b = init_encoder(7, 6, 5, seed=9)
        for k in a.as_dict():
            assert np.array_equal(a.as_dict()[k], b.as_dict()[k])
            assert (np.abs(a.as_dict()[k]) <= 0.05).all()
        c = init_encoder(7, 6, 5, seed=10)
        assert not np.array_equal(a.w1, c.w1)


def fd_encoder_gradient(params, anchors, positives, negatives, alpha):
    """Central finite differences through the full loss pipeline."""
    def loss_at(p):
        ea = encoder_forward(p, anchors)
        ep = encoder_forward(p, positives)
        en = encoder_forward(p, negatives)
        return triplet_loss(ea, ep, en, alpha=alpha)

    grads = {}
    for key, value in params.as_dict().items():
        grad = np.zeros_like(value)
        flat = grad.reshape(-1)
        for i in range(value.size):
            for sign in (+1.0, -1.0):
                perturbed = value.copy().reshape(-1)
                perturbed[i] += sign * FD_H
                arrays = dict(params.as_dict())
                arrays[key] = perturbed.reshape(value.shape)
                flat[i] += sign * loss_at(params.with_arrays(arrays))
            flat[i] /= 2 * FD_H
        grads[key] = grad
    return grads


def well_conditioned_case(rng, n_triplets, d_in, d_h, d_out, normalize, alpha):
    """Random config that stays away from the loss's kinks so FD is trustworthy."""
    while True:
        params = init_encoder(d_in, d_h, d_out, seed=int(rng.integers(1 << 30)),
                              normalize=normalize, init_scale=0.4)
        anchors = rng.normal(scale=1.2, size=(n_triplets, d_in))
        positives = rng.normal(scale=1.2, size=(n_triplets, d_in))
        negatives = rng.normal(scale=1.2, size=(n_triplets, d_in))
        stacked = np.concatenate([anchors, positives, negatives])
        pre = stacked @ params.w1.T + params.b1
        if np.abs(pre).min() < 1e-3:
            continue  # ReLU kink too close to a probe point
        lin = np.maximum(pre, 0.0) @ params.w2.T + params.b2
        if normalize and np.linalg.norm(lin, axis=1).min() < 1e-2:
            continue  # normalization near-singular
        ea = encoder_forward(params, anchors)
        ep = encoder_forward(params, positives)
        en = encoder_forward(params, negatives)
        margins = np.sum((ea - ep) ** 2, 1) - np.sum((ea - en) ** 2, 1) + alpha
        if np.abs(margins).min() < 1e-2:
            continue  # hinge kink
        if not (margins > 0).any():
            continue  # all inactive: gradient trivially zero, nothing to check
        return params, anchors, positives, negatives


class TestEncoderBackward:
    @pytest.mark.parametrize("normalize", [False, True])
    def test_matches_finite_differences(self, normalize):
        rng = np.random.default_rng(11 + normalize)
        for _ in range(3):
            alpha = float(rng.uniform(0.1, 0.5))
            params, a, p, n = well_conditioned_case(
                rng, n_triplets=2, d_in=4, d_h=3, d_out=2,
                normalize=normalize, alpha=alpha)
            grads, loss = encoder_backward(params, a, p, n, alpha=alpha)
            assert loss > 0
            numeric = fd_encoder_gradient(params, a, p, n, alpha)
            for key in ("w1", "b1", "w2", "b2"):
                assert rel_error(grads[key], numeric[key]) <= FD_TOL, key

    def test_all_inactive_batch_zero_gradients(self):
        # hand-built params: embeddings of 0 and 50 are far apart, hinge inactive
        params = EncoderParams(w1=np.eye(3), b1=np.zeros(3),
                               w2=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                               b2=np.zeros(2), normalize=False)
        anchors = np.zeros((2, 3))
        positives = np.zeros((2, 3))
        negatives = np.full((2, 3), 50.0)
        grads, loss = encoder_backward(params, anchors, positives, negatives, alpha=0.1)
        assert loss == 0.0
        assert all(not g.any() for g in grads.values())


class TestAdam:
    def test_zero_gradient_fresh_state_is_noop(self):
        params = {"w": np.array([[1.0, -2.0], [0.5, 3.0]]), "b": np.array([0.1])}
        grads = {"w": np.zeros((2, 2)), "b": np.zeros(1)}
        state = AdamState.initial(params)
        new_params, new_state = adam_step(params, grads, state)
        for k in params:
            assert np.array_equal(new_params[k], params[k])
        assert new_state.t == 1

    def test_scalar_hand_example(self):
        # theta' = 1 - 0.1 * mhat / (sqrt(vhat) + eps) with mhat = vhat = 1
        params = {"x": np.array([1.0])}
        state = AdamState.initial(params, lr=0.1)
        new_params, _ = adam_step(params, {"x": np.array([1.0])}, state)
        expected = 1.0 - 0.1 * 1.0 / (1.0 + 1e-8)
        assert new_params["x"][0] == pytest.approx(expected, abs=1e-12)
        assert new_params["x"][0] == pytest.approx(0.9, abs=1e-8)

    def test_two_steps_match_hand_recursion(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        g = 0.7
        params = {"x": np.array([2.0])}
        state = AdamState.initial(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        # independent recursion
        theta, m, v = 2.0, 0.0, 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            theta -= lr * mhat / (math.sqrt(vhat) + eps)
            params, state = adam_step(params, {"x": np.array([g])}, state)
            assert params["x"][0] == pytest.approx(theta, abs=1e-15)
            assert state.t == t

    def test_non_finite_gradient_rejected(self):
        params = {"x": np.array([1.0])}
        state = AdamState.initial(params)
        with pytest.raises(NumericsError):
            adam_step(params, {"x": np.array([np.nan])}, state)

    def test_state_shapes_follow_params(self):
        params = {"w": np.zeros((3, 2)), "b": np.zeros(3)}
        state = AdamState.initial(params)
        assert state.m["w"].shape == (3, 2) and state.v["b"].shape == (3,)


class TestMineTriplets:
    @staticmethod
    def features(n_subjects=4, per=5, dim=6, seed=13):
        rng = np.random.default_rng(seed)
        return {f"s{i}": rng.normal(size=(per, dim)) for i in range(n_subjects)}

    @staticmethod
    def subject_of(features):
        """Each fixture row's subject, keyed by its bytes (the rows are distinct)."""
        table = {row.tobytes(): s for s, rows in features.items() for row in rows}
        assert len(table) == sum(len(rows) for rows in features.values())
        return table

    def test_label_constraint(self):
        feats = self.features()
        subject_of = self.subject_of(feats)
        anchors, positives, negatives = mine_triplets(feats, 50, rng=0)
        assert anchors.shape == positives.shape == negatives.shape == (50, 6)
        for a, p, n in zip(anchors, positives, negatives):
            assert subject_of[a.tobytes()] == subject_of[p.tobytes()]
            assert subject_of[n.tobytes()] != subject_of[a.tobytes()]
            assert not np.array_equal(a, p)

    def test_determinism(self):
        a = mine_triplets(self.features(), 30, rng=7)
        b = mine_triplets(self.features(), 30, rng=7)
        for xa, xb in zip(a, b):
            assert np.array_equal(xa, xb)

    def test_negative_subject_distribution_uniform(self):
        feats = self.features(n_subjects=10, per=3)
        subject_of = self.subject_of(feats)
        _, _, negatives = mine_triplets(feats, 2000, rng=17)
        counts = Counter(subject_of[n.tobytes()] for n in negatives)
        expected = 2000 / 10
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert len(counts) == 10
        assert chi2 < 27.88  # chi-square 99.9th percentile, 9 dof

    def test_zero_count_gives_empty_arrays(self):
        for arr in mine_triplets(self.features(), 0, rng=0):
            assert arr.shape == (0, 6)

    def test_insufficient_data_rejected(self):
        with pytest.raises(DataError):
            mine_triplets({"only": np.zeros((3, 4))}, 5, rng=0)
        with pytest.raises(DataError):
            mine_triplets({"a": np.zeros((1, 4)), "b": np.zeros((3, 4))}, 5, rng=0)


class TestTrain:
    def test_identical_features_pin_loss_at_alpha(self):
        feats = {"a": np.ones((4, 5)), "b": np.ones((4, 5))}
        params, curve = train(feats, embed_dim=3, hidden_dim=4, epochs=10,
                              alpha=0.2, seed=0)
        assert curve == [0.2] * 10

    def test_fixed_seed_bit_identical(self):
        rng = np.random.default_rng(19)
        feats = {f"s{i}": rng.normal(size=(6, 8)) for i in range(3)}
        p1, c1 = train(feats, embed_dim=4, hidden_dim=6, epochs=5, seed=21)
        p2, c2 = train(feats, embed_dim=4, hidden_dim=6, epochs=5, seed=21)
        assert c1 == c2
        for k in p1.as_dict():
            assert np.array_equal(p1.as_dict()[k], p2.as_dict()[k])

    def test_separable_subjects_loss_decreases(self):
        rng = np.random.default_rng(23)
        feats = {
            "a": rng.normal(0.0, 0.6, size=(12, 6)),
            "b": rng.normal(0.0, 0.6, size=(12, 6)) + 2.5,
        }
        _, curve = train(feats, embed_dim=4, hidden_dim=8, epochs=40, seed=5)
        assert curve[-1] < curve[0]

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            train({}, epochs=1)


class TestEnrollVerify:
    @staticmethod
    def setup_params(dim=5):
        return init_encoder(dim, 6, 4, seed=31)

    def test_single_sample_enrollment(self):
        params = self.setup_params()
        record = enroll("alice", np.ones((1, 5)), params, threshold=0.5)
        assert record.subject_id == "alice"
        assert record.anchors.shape == (1, 4)

    def test_anchors_in_input_order(self):
        params = self.setup_params()
        samples = np.arange(15, dtype=np.float64).reshape(3, 5)
        record = enroll("bob", samples, params, threshold=0.5)
        for i in range(3):
            assert np.allclose(record.anchors[i], encoder_forward(params, samples[i]),
                               rtol=1e-12, atol=0.0)

    def test_empty_enrollment_rejected(self):
        with pytest.raises(EmptyBatchError):
            enroll("carol", np.zeros((0, 5)), self.setup_params(), threshold=0.5)

    def test_probe_equal_to_anchor_accepted(self):
        params = self.setup_params()
        sample = np.array([0.3, -0.4, 1.0, 0.2, 0.9])
        record = enroll("dan", sample[None, :], params, threshold=0.0)
        decision = verify(sample, record, params)
        assert decision.accepted and decision.distance == 0.0

    def test_threshold_zero_rejects_everything_else(self):
        params = self.setup_params()
        record = enroll("eve", np.ones((1, 5)), params, threshold=0.0)
        decision = verify(np.full(5, 2.0), record, params)
        assert not decision.accepted and decision.distance > 0.0

    def test_distance_is_min_over_anchors(self):
        params = self.setup_params()
        rng = np.random.default_rng(37)
        samples = rng.normal(size=(4, 5))
        record = enroll("fay", samples, params, threshold=1.0)
        probe = rng.normal(size=5)
        decision = verify(probe, record, params)
        embedded = encoder_forward(params, probe)
        by_hand = min(euclidean_distance(embedded, anchor) for anchor in record.anchors)
        assert decision.distance == by_hand

    def test_decision_is_the_dataclass_one(self):
        params = self.setup_params()
        record = enroll("joy", np.ones((2, 5)), params, threshold=0.5)
        decision = verify(np.full(5, 1.5), record, params)
        built = AuthDecision(decision.accepted, decision.distance, "joy")
        assert type(decision) is AuthDecision and type(decision.accepted) is bool
        assert decision == built and hash(decision) == hash(built)
        assert repr(decision) == repr(built) and vars(decision) == vars(built)
        with pytest.raises(AttributeError):
            decision.accepted = not decision.accepted

    def test_monotonicity(self):
        params = self.setup_params()
        rng = np.random.default_rng(41)
        record = enroll("gus", rng.normal(size=(3, 5)), params, threshold=0.8)
        probes = rng.normal(size=(20, 5))
        decisions = [verify(p, record, params) for p in probes]
        for d1 in decisions:
            for d2 in decisions:
                if d2.accepted and d1.distance <= d2.distance:
                    assert d1.accepted

    def test_probe_dimension_checked(self):
        params = self.setup_params()
        record = enroll("hal", np.ones((1, 5)), params, threshold=0.5)
        with pytest.raises(DimensionError):
            verify(np.ones(6), record, params)
        narrow = EnrollmentRecord("ida", np.zeros((2, 3)), 0.5)
        wide = init_encoder(64, 8, 4, seed=5)
        # Checked in this order: the probe's rank, its width, then the record.
        for probe, rec, prm, message in (
                (np.ones((2, 5)), record, params, "probe: expected a vector, got shape (2, 5)"),
                (np.ones((1, 6)), narrow, params, "probe: expected a vector, got shape (1, 6)"),
                (np.ones(6), record, params,
                 "features: expected inner dimension 5, got shape (6,)"),
                ([1.0] * 4, narrow, params,
                 "features: expected inner dimension 5, got shape (4,)"),
                (np.ones(5), narrow, params, "probe embedding dimension 4 != enrolled 3"),
                (np.ones((1, 63)), narrow, wide, "probe: expected a vector, got shape (1, 63)"),
                (np.ones(63), narrow, wide,
                 "features: expected inner dimension 64, got shape (63,)"),
                (np.ones(64), narrow, wide, "probe embedding dimension 4 != enrolled 3")):
            with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
                verify(probe, rec, prm)


def oracle_forward(params, x):
    """The encoder as first written: out-of-place steps and np.linalg.norm."""
    batch = np.atleast_2d(np.asarray(x, dtype=np.float64))
    hidden = np.maximum(batch @ params.w1.T + params.b1, 0.0)
    out = hidden @ params.w2.T + params.b2
    if params.normalize:
        out = out / np.maximum(np.linalg.norm(out, axis=1, keepdims=True), NORMALIZE_EPS)
    return out


def oracle_distance(probe, record, params):
    """The least of the rooted anchor distances, as verify first took it."""
    embedded = oracle_forward(params, probe)
    return float(np.sqrt(np.sum((record.anchors - embedded) ** 2, axis=1)).min())


def float_bits(value):
    return np.float64(value).tobytes()


class TestVerifyOracle:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(dims=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
           anchors=st.integers(1, 20), normalize=st.booleans(),
           weights=st.sampled_from(["uniform", "large", "tiny", "zero_head"]),
           probe_kind=st.sampled_from(["normal", "far", "nan"]),
           threshold=st.floats(0.0, 2.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_first_formulas_bit_for_bit(self, dims, anchors, normalize, weights,
                                                    probe_kind, threshold, seed):
        input_dim, hidden_dim, embed_dim = dims
        rng = np.random.default_rng(seed)
        scale = {"uniform": 0.05, "large": 3.0, "tiny": 1e-15, "zero_head": 0.05}[weights]
        params = init_encoder(input_dim, hidden_dim, embed_dim, seed=rng,
                              normalize=normalize, init_scale=scale)
        if weights == "zero_head":  # every embedding is exactly zero
            params = params.with_arrays({**params.as_dict(), "w2": np.zeros_like(params.w2),
                                         "b2": np.zeros_like(params.b2)})
        samples = rng.normal(size=(anchors, input_dim))
        probe = rng.normal(size=input_dim) * (1e6 if probe_kind == "far" else 1.0)
        if probe_kind == "nan":
            probe[rng.integers(input_dim)] = np.nan

        record = enroll("s", samples, params, threshold)
        assert record.anchors.tobytes() == oracle_forward(params, samples).tobytes()
        assert encoder_forward(params, probe).tobytes() == \
            oracle_forward(params, probe)[0].tobytes()
        decision = verify(probe, record, params)
        want = oracle_distance(probe, record, params)
        assert float_bits(decision.distance) == float_bits(want)
        assert type(decision.distance) is float
        assert decision.accepted is (want <= threshold)
        if probe_kind == "nan":
            assert math.isnan(decision.distance) and not decision.accepted
        elif weights == "zero_head":
            assert decision.distance == 0.0 and decision.accepted


def batch_path_verify(probe, record, params):
    """verify through the batch path: the probe as a (1, D) batch, then the
    least of the rooted anchor distances."""
    embedded = encoder_forward(params, probe[None, :])
    return float(pairwise_distances(record.anchors, embedded).min())


def warning_texts(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn()
    return result, [str(w.message) for w in caught]


class TestVerifyAsVector:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(dims=st.tuples(st.integers(1, 130), st.integers(1, 130), st.integers(1, 130)),
           anchors=st.integers(1, 12), normalize=st.booleans(),
           weights=st.sampled_from(["uniform", "large", "tiny", "zero_head"]),
           probe_kind=st.sampled_from(["normal", "huge", "nan", "inf", "zero"]),
           threshold=st.floats(0.0, 2.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_batch_path_bit_for_bit(self, dims, anchors, normalize, weights,
                                                probe_kind, threshold, seed):
        input_dim, hidden_dim, embed_dim = dims
        rng = np.random.default_rng(seed)
        scale = {"uniform": 0.05, "large": 3.0, "tiny": 1e-15, "zero_head": 0.05}[weights]
        params = init_encoder(input_dim, hidden_dim, embed_dim, seed=rng,
                              normalize=normalize, init_scale=scale)
        if weights == "zero_head":  # every embedding is exactly zero
            params = params.with_arrays({**params.as_dict(), "w2": np.zeros_like(params.w2),
                                         "b2": np.zeros_like(params.b2)})
        record = enroll("s", rng.normal(size=(anchors, input_dim)), params, threshold)
        probe = rng.normal(size=input_dim)
        if probe_kind == "huge":  # squaring the embedding overflows without normalising
            probe *= 1e300
        elif probe_kind in ("nan", "inf"):
            probe[rng.integers(input_dim)] = float(probe_kind) * rng.choice([-1.0, 1.0])
        elif probe_kind == "zero":
            probe[:] = 0.0

        embedded, batch_warnings = warning_texts(
            lambda: encoder_forward(params, probe[None, :]))
        vector, vector_warnings = warning_texts(lambda: encoder_forward(params, probe))
        assert vector.shape == (embed_dim,)
        assert vector.tobytes() == embedded[0].tobytes()
        assert vector_warnings == batch_warnings
        want, want_warnings = warning_texts(lambda: batch_path_verify(probe, record, params))
        decision, got_warnings = warning_texts(lambda: verify(probe, record, params))
        assert got_warnings == want_warnings
        assert float_bits(decision.distance) == float_bits(want)
        assert type(decision.distance) is float
        assert decision.accepted is (want <= threshold)
        if probe_kind == "nan":
            assert math.isnan(decision.distance) and not decision.accepted
        if weights == "tiny" and probe_kind in ("normal", "zero"):
            raw = encoder_forward(replace(params, normalize=False), probe)
            assert np.sqrt(np.sum(raw * raw)) < NORMALIZE_EPS


def oracle_backward(params, anchors, positives, negatives, alpha):
    """encoder_backward as first written: an embedding pass, separate loss and
    gradient hinges, then a second pass through out-of-place layers."""
    count = anchors.shape[0]
    x = np.concatenate([anchors, positives, negatives])
    e = oracle_forward(params, x)
    ea, ep, en = e[:count], e[count:2 * count], e[2 * count:]
    per = np.maximum(0.0, np.sum((ea - ep) ** 2, axis=1) - np.sum((ea - en) ** 2, axis=1) + alpha)
    loss = float(per.mean())
    active = (np.sum((ea - ep) ** 2, axis=1) - np.sum((ea - en) ** 2, axis=1) + alpha) > 0.0
    scale = np.where(active, 2.0, 0.0)
    scale = scale / count
    scale = scale[:, None]
    grad_out = np.concatenate([scale * (en - ep), scale * (ep - ea), scale * (ea - en)])
    pre = x @ params.w1.T + params.b1
    hidden = np.maximum(pre, 0.0)
    lin = hidden @ params.w2.T + params.b2
    grad_lin = grad_out
    if params.normalize:
        norms = np.linalg.norm(lin, axis=1, keepdims=True)
        safe = np.maximum(norms, NORMALIZE_EPS)
        dots = np.sum(lin * grad_out, axis=1, keepdims=True)
        grad_lin = np.where(norms >= NORMALIZE_EPS, grad_out / safe - lin * (dots / safe ** 3),
                            grad_out / NORMALIZE_EPS)
    grad_pre = (grad_lin @ params.w2) * (pre > 0.0)
    grads = {"w1": grad_pre.T @ x, "b1": grad_pre.sum(axis=0),
             "w2": grad_lin.T @ hidden, "b2": grad_lin.sum(axis=0)}
    return grads, loss, lin


class TestEncoderBackwardOracle:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(dims=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
           count=st.integers(1, 33), normalize=st.booleans(),
           weights=st.sampled_from(["uniform", "large", "tiny", "dead_relu"]),
           tied=st.booleans(), alpha=st.one_of(st.just(0.0), st.floats(-0.5, 1.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_two_pass_formulas_bit_for_bit(self, dims, count, normalize,
                                                       weights, tied, alpha, seed):
        input_dim, hidden_dim, embed_dim = dims
        rng = np.random.default_rng(seed)
        scale = {"uniform": 0.05, "large": 3.0, "tiny": 1e-15, "dead_relu": 0.05}[weights]
        params = init_encoder(input_dim, hidden_dim, embed_dim, seed=rng,
                              normalize=normalize, init_scale=scale)
        if weights == "dead_relu":  # every hidden unit is negative before the ReLU
            params = params.with_arrays({**params.as_dict(), "b1": np.full(hidden_dim, -1e3)})
        a, p, n = (rng.normal(size=(count, input_dim)) for _ in range(3))
        if tied:  # with alpha 0 every hinge sits exactly on its kink
            n = p.copy()

        grads, loss = encoder_backward(params, a, p, n, alpha=alpha)
        want, want_loss, lin = oracle_backward(params, a, p, n, alpha)
        assert float_bits(loss) == float_bits(want_loss)
        assert type(loss) is float
        assert grads.keys() == want.keys()
        for key, grad in grads.items():
            assert grad.shape == want[key].shape
            assert grad.tobytes() == want[key].tobytes(), key
        if weights == "tiny":  # the embedding runs below the normalising floor
            assert np.linalg.norm(lin, axis=1).max() < NORMALIZE_EPS
        elif weights == "dead_relu":
            assert not grads["w1"].any() and not grads["b1"].any()


class TestErrorOrder:
    """The error encoder_backward raises for each malformed batch."""

    @pytest.mark.parametrize("rows, width, error, message", [
        ((2, 3, 2), 3, DimensionError, "triplet shapes disagree: (2, 3), (3, 3), (2, 3)"),
        ((0, 0, 0), 3, EmptyBatchError, "triplet batch is empty"),
        ((2, 2, 2), 5, DimensionError, "features: expected inner dimension 3, got shape (6, 5)"),
    ], ids=["shapes", "empty", "inner-dimension"])
    def test_encoder_backward_checks_reduction_last(self, rows, width, error, message):
        params = init_encoder(3, 4, 2, seed=1)
        batches = [np.ones((r, width)) for r in rows]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            encoder_backward(params, *batches)


API_FEATURES = {"a": np.zeros((2, 4)), "b": np.ones((2, 4))}


class TestApiChecks:
    """Checks that only a Python caller can reach, one row each, with their text."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda: roc_sweep([math.nan], [1.0]), DataError,
         "roc_sweep: distances must be finite"),
        (lambda: roc_sweep([-1.0], [1.0]), DataError,
         "roc_sweep: distances must be non-negative"),
        (lambda: train({**API_FEATURES, "a": np.full((2, 4), math.nan)}), DataError,
         "subject 'a': features must be finite"),
        (lambda: train({**API_FEATURES, "b": np.ones((2, 5))}), DimensionError,
         "subject 'b': feature dimension 5 != 4"),
        (lambda: train(API_FEATURES, epochs=0), ValidationError,
         "epochs must be positive, got 0"),
        (lambda: train(API_FEATURES, triplets_per_epoch=0), ValidationError,
         "triplets_per_epoch and batch_size must be positive"),
        (lambda: mine_triplets(API_FEATURES, -1), ValidationError,
         "count must be non-negative, got -1"),
        (lambda: EnrollmentRecord("s", [[math.nan]], 1.0), ValidationError,
         "enrollment 's': anchors must be finite"),
        (lambda: EncoderParams(np.ones((2, 3)), np.ones(2), np.ones((1, 3)), np.ones(1)),
         DimensionError, "encoder: w2 columns 3 != hidden size 2"),
        (lambda: EncoderParams(np.full((2, 3), math.inf), np.ones(2), np.ones((1, 2)),
                               np.ones(1)),
         NumericsError, "encoder: w1 contains non-finite values"),
        (lambda: init_encoder(0, 2, 2), DimensionError,
         "encoder dimensions must be positive"),
        (lambda: validate_frame("x"), ValidationError,
         "frame: expected HandFrame, got str"),
    ], ids=["roc-nan", "roc-negative", "train-nan", "train-widths", "train-epochs",
            "train-triplets", "mine-count", "enroll-nan", "encoder-w2-columns",
            "encoder-w1-inf", "encoder-dimensions", "validate-frame-type"])
    def test_check_message(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


def sweep_points(sweep):
    """The sweep's (threshold, far, frr) rows, as Python floats."""
    return list(zip(sweep.thresholds.tolist(), sweep.far.tolist(), sweep.frr.tolist()))


class TestRoc:
    def test_separable_pair(self):
        sweep = roc_sweep([0.1], [0.9])
        assert (0.1, 0.0, 0.0) in sweep_points(sweep)
        assert sweep.eer == 0.0 and sweep.best_accuracy == 1.0

    def test_error_rates_counting(self):
        sweep = roc_sweep([0.1, 0.4, 0.6], [0.2, 0.5, 0.7, 0.9])
        [(_, far, frr)] = [p for p in sweep_points(sweep) if p[0] == 0.4]
        assert far == pytest.approx(1 / 4)
        assert frr == pytest.approx(1 / 3)

    def test_identical_distributions_eer_half(self):
        values = [0.2, 0.4, 0.6, 0.8]
        sweep = roc_sweep(values, values)
        assert sweep.eer == pytest.approx(0.5, abs=0.13)

    def test_sweep_matches_direct_counting(self):
        rng = np.random.default_rng(43)
        genuine = rng.uniform(0, 1, 40).tolist()
        impostor = rng.uniform(0.3, 1.4, 60).tolist()
        sweep = roc_sweep(genuine, impostor)
        points = sweep_points(sweep)
        thresholds = [t for t, _, _ in points]
        assert 0.0 in thresholds and math.inf in thresholds
        for threshold, point_far, point_frr in points:
            far = sum(d <= threshold for d in impostor) / len(impostor)
            frr = sum(d > threshold for d in genuine) / len(genuine)
            assert point_far == pytest.approx(far, abs=1e-12)
            assert point_frr == pytest.approx(frr, abs=1e-12)
        # EER threshold: first minimizer of |FAR - FRR|
        gaps = [abs(far - frr) for _, far, frr in points]
        best = gaps.index(min(gaps))
        threshold, far, frr = points[best]
        assert sweep.eer_threshold == threshold
        assert sweep.eer == pytest.approx((far + frr) / 2)
        # best accuracy: direct counting
        accuracies = [
            (sum(d <= t for d in genuine) + sum(d > t for d in impostor))
            / (len(genuine) + len(impostor))
            for t in thresholds
        ]
        assert sweep.best_accuracy == pytest.approx(max(accuracies), abs=1e-12)

    def test_far_frr_monotonic_in_threshold(self):
        rng = np.random.default_rng(47)
        sweep = roc_sweep(rng.uniform(0, 1, 30), rng.uniform(0, 1, 30))
        fars = sweep.far.tolist()
        frrs = sweep.frr.tolist()
        assert fars == sorted(fars)
        assert frrs == sorted(frrs, reverse=True)

    def test_empty_inputs_rejected(self):
        with pytest.raises(DataError):
            roc_sweep([], [0.5])
        with pytest.raises(DataError):
            roc_sweep([0.5], [])


def eager_roc_points(genuine, impostor):
    """The sweep's thresholds, FAR and FRR arrays, computed here from the definition."""
    g = np.asarray(genuine, dtype=np.float64)
    im = np.asarray(impostor, dtype=np.float64)
    thresholds = np.append(np.unique(np.concatenate([g, im, [0.0]])), np.inf)
    far = np.searchsorted(np.sort(im), thresholds, side="right") / im.shape[0]
    frr = 1.0 - np.searchsorted(np.sort(g), thresholds, side="right") / g.shape[0]
    return thresholds, far, frr


def _sweep_inputs():
    rng = np.random.default_rng(61)
    ties = rng.integers(0, 6, 50) / 4.0  # ties within and across the two sides
    return {
        "single": ([0.3], [0.7]),
        "zeros": ([0.0, 0.0], [0.0]),
        "same-value": ([0.5], [0.5, 0.5]),
        "ties": (ties[:20], ties[20:]),
        "duplicates": (np.repeat(rng.uniform(0, 1, 10), 3), rng.uniform(0, 2, 40)),
        "uniform": (rng.uniform(0, 1, 200), rng.uniform(0.4, 1.6, 700)),
    }


SWEEP_INPUTS = _sweep_inputs()


class TestSweepOracle:
    """roc_sweep's arrays equal the oracle's bit for bit."""

    @pytest.mark.parametrize("case", sorted(SWEEP_INPUTS))
    def test_points_read_as_the_eager_tuple(self, case):
        genuine, impostor = SWEEP_INPUTS[case]
        sweep = roc_sweep(genuine, impostor)
        got = (sweep.thresholds, sweep.far, sweep.frr)
        for arr, want in zip(got, eager_roc_points(genuine, impostor), strict=True):
            assert arr.dtype == np.float64 and arr.shape == want.shape
            assert arr.tobytes() == want.tobytes()

    def test_points_are_read_only(self):
        sweep = roc_sweep(*SWEEP_INPUTS["uniform"])
        for arr in (sweep.thresholds, sweep.far, sweep.frr):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


class TestSweepLaziness:
    def test_sweep_peak_memory_is_arrays(self):
        rng = np.random.default_rng(101)
        genuine, impostor = rng.uniform(0.0, 1.0, 10_000), rng.uniform(0.5, 2.0, 90_000)
        # 100k distances (about 100k thresholds): the arrays peak at 6.5 MB,
        # against 24.1 MB when a point object was built per threshold (numpy 2.4,
        # CPython 3.11).
        assert traced_peak(roc_sweep, genuine, impostor) < 12e6


class TestPersistence:
    def test_feature_file_round_trip(self, tmp_path):
        path = tmp_path / "features.jsonl"
        rng = np.random.default_rng(53)
        feats = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(2, 4))}
        assert save_features(path, feats) == 5
        again = load_features(path)
        assert set(again) == {"a", "b"}
        for k in feats:
            assert np.array_equal(again[k], feats[k])

    def test_feature_file_schema(self, tmp_path):
        lines = [json.dumps({"subject": "a", "features": [1.0, 2.0]}),
                 json.dumps({"subject": "a", "features": [3.0, 4.0]})]
        feats = load_features(lines)
        assert feats["a"].shape == (2, 2)
        with pytest.raises(DataError):
            load_features([json.dumps({"subject": "a"})])
        with pytest.raises(DataError):
            load_features([json.dumps({"subject": "a", "features": [1.0, "x"]})])

    def test_store_round_trip(self, tmp_path):
        params = init_encoder(4, 5, 3, seed=59)
        records = [enroll("alice", np.ones((2, 4)), params, threshold=0.4),
                   enroll("bob", np.zeros((1, 4)), params, threshold=0.6)]
        path = tmp_path / "store.json"
        save_store(path, records, normalize=params.normalize, dim=params.embed_dim)
        loaded, normalize, dim = load_store(path)
        assert normalize is True and dim == 3
        assert [r.subject_id for r in loaded] == ["alice", "bob"]
        assert np.array_equal(loaded[0].anchors, records[0].anchors)
        assert loaded[1].threshold == 0.6

    def test_store_dimension_mismatch_rejected(self, tmp_path):
        params = init_encoder(4, 5, 3, seed=61)
        record = enroll("alice", np.ones((1, 4)), params, threshold=0.4)
        with pytest.raises(DimensionError):
            save_store(tmp_path / "s.json", [record], normalize=True, dim=7)

    def test_files_hold_the_per_value_encoding(self, tmp_path):
        def line(obj):
            return (json.dumps(obj, separators=(",", ":")) + "\n").encode("ascii")

        def floats(arr):
            return [[float(v) for v in row] for row in arr]

        rng = np.random.default_rng(71)
        edge = np.array([[-0.0, 5e-324, 1e16, 1e-05], [0.1, -1.5e308, 1 / 3, 2.0]])
        feats = {"a": rng.normal(size=(3, 4)), "b": edge, "c": rng.normal(size=(2, 4)) * 1e-7}
        save_features(tmp_path / "features.jsonl", feats)
        assert (tmp_path / "features.jsonl").read_bytes() == b"".join(
            line({"subject": k, "features": row}) for k in feats for row in floats(feats[k]))

        params = init_encoder(4, 6, 3, seed=73)
        save_params(tmp_path / "params.json", params)
        assert (tmp_path / "params.json").read_bytes() == line({
            "normalize": True, "w1": floats(params.w1), "b1": floats([params.b1])[0],
            "w2": floats(params.w2), "b2": floats([params.b2])[0]})

        records = [enroll("alice", feats["a"], params, threshold=0.4),
                   enroll("bob", feats["c"], params, threshold=1e-05)]
        save_store(tmp_path / "store.json", records, normalize=True, dim=3)
        assert (tmp_path / "store.json").read_bytes() == line({
            "version": 1, "normalize": True, "dim": 3,
            "records": [{"subject": r.subject_id, "threshold": float(r.threshold),
                         "anchors": floats(r.anchors)} for r in records]})

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_feature_rows_must_be_a_matrix(self, tmp_path, shape):
        with pytest.raises(DimensionError, match=rf"^features 'a': expected \(N, D\), got shape "):
            save_features(tmp_path / "features.jsonl", {"a": np.ones(shape)})

    def test_params_round_trip(self, tmp_path):
        params = init_encoder(6, 5, 4, seed=67, normalize=False)
        path = tmp_path / "params.json"
        save_params(path, params)
        again = load_params(path)
        assert again.normalize is False
        for k, v in params.as_dict().items():
            assert np.array_equal(again.as_dict()[k], v)
