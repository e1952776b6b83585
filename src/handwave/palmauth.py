"""Palm verification: a small metric-learning encoder plus decision machinery.

Features (flattened palm-print descriptors) are mapped to fixed-dimension
embeddings by a two-layer perceptron

    e = W2 @ relu(W1 @ x + b1) + b2,        optionally e <- e / max(||e||, 1e-12)

trained so same-subject embeddings sit closer than different-subject ones.
The objective over a batch of (anchor, positive, negative) triplets is the
hinged margin loss

    L = mean_i max(0, ||f(a_i) - f(p_i)||^2 - ||f(a_i) - f(n_i)||^2 + alpha)

All gradients here are exact analytic derivatives of that expression. Training
runs the network once per batch and differentiates that same pass, with one
evaluation of the hinge for both the loss and its gradient; adam_step applies
the standard bias-corrected Adam update. Verification compares a probe
embedding against a subject's enrolled anchor embeddings: the distance is the
minimum over anchors, accepted iff it does not exceed the record's threshold.
roc_sweep calibrates that threshold from genuine/impostor distance samples.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._jsonio import at_line, json_lines, number, number_array, read_json, write_lines
from .errors import (
    DataError,
    DimensionError,
    EmptyBatchError,
    NumericsError,
    ValidationError,
)

NORMALIZE_EPS = 1e-12


def euclidean_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Plain L2 distance between two equal-length vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise DimensionError(f"expected vectors, got shapes {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise DimensionError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(np.sqrt(np.sum((a - b) ** 2)))


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L2 distances between the rows of ``a`` (N, D) and ``b`` (M, D), as (N, M).

    A vector ``b`` (D,) counts as one row, giving (N, 1). Entry [i, j] equals
    ``euclidean_distance(a[i], b[j])`` bit for bit; the expanded
    ||a||^2 + ||b||^2 - 2 a.b would round differently.
    """
    return np.sqrt(_squared_distances(a, b))


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # One expression on purpose: squaring a named difference as diff * diff
    # keeps a second (N, M, D) temporary alive.
    return np.add.reduce((a[:, None] - b) ** 2, axis=-1)


def _as_batch(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise DimensionError(f"{name}: expected (N, D) or (D,), got shape {arr.shape}")
    return arr


def _triplet_batches(anchor, positive, negative) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a = _as_batch("anchor", anchor)
    p = _as_batch("positive", positive)
    n = _as_batch("negative", negative)
    if not (a.shape == p.shape == n.shape):
        raise DimensionError(
            f"triplet shapes disagree: {a.shape}, {p.shape}, {n.shape}")
    if a.shape[0] == 0:
        raise EmptyBatchError("triplet batch is empty")
    return a, p, n


def _triplet_terms(anchor, positive, negative,
                   alpha: float) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The loss and its three batch gradients, from one evaluation of the hinge."""
    a, p, n = _triplet_batches(anchor, positive, negative)
    margin = np.sum((a - p) ** 2, axis=1) - np.sum((a - n) ** 2, axis=1) + alpha
    per = np.maximum(0.0, margin)
    loss = float(per.mean())
    scale = np.where(margin > 0.0, 2.0, 0.0)
    scale = scale / a.shape[0]
    scale = scale[:, None]
    return loss, (scale * (n - p), scale * (p - a), scale * (a - n))


def triplet_loss(anchor, positive, negative, alpha: float = 0.2) -> float:
    """Hinged squared-distance margin loss, the mean over one or more triplets."""
    return _triplet_terms(anchor, positive, negative, alpha)[0]


def triplet_grad(anchor, positive, negative,
                 alpha: float = 0.2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of triplet_loss with respect to the three embedding batches.

    For an active triplet (hinge > 0) the per-row derivatives are
    2(n - p), 2(p - a), 2(a - n), scaled by 1/N for a batch of N;
    inactive rows contribute zero. Gradients follow the input shape: vector
    inputs get vector gradients, batches get batch gradients.
    """
    grads = _triplet_terms(anchor, positive, negative, alpha)[1]
    return tuple(g[0] for g in grads) if np.ndim(anchor) == 1 else grads


@dataclass(frozen=True)
class EncoderParams:
    """Weights of the two-layer embedding network."""

    w1: np.ndarray  # (hidden, input)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (embed, hidden)
    b2: np.ndarray  # (embed,)
    normalize: bool = True

    def __post_init__(self) -> None:
        if type(self.normalize) is not bool:  # a truthy "false" would normalise
            raise ValidationError(f"normalize must be a bool, got {self.normalize!r}")
        w1 = np.asarray(self.w1, dtype=np.float64)
        b1 = np.asarray(self.b1, dtype=np.float64)
        w2 = np.asarray(self.w2, dtype=np.float64)
        b2 = np.asarray(self.b2, dtype=np.float64)
        if w1.ndim != 2 or w2.ndim != 2 or b1.ndim != 1 or b2.ndim != 1:
            raise DimensionError("encoder: w1/w2 must be matrices and b1/b2 vectors")
        if b1.shape[0] != w1.shape[0]:
            raise DimensionError(f"encoder: b1 length {b1.shape[0]} != w1 rows {w1.shape[0]}")
        if w2.shape[1] != w1.shape[0]:
            raise DimensionError(f"encoder: w2 columns {w2.shape[1]} != hidden size {w1.shape[0]}")
        if b2.shape[0] != w2.shape[0]:
            raise DimensionError(f"encoder: b2 length {b2.shape[0]} != w2 rows {w2.shape[0]}")
        for name, arr in (("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)):
            if not np.isfinite(arr).all():
                raise NumericsError(f"encoder: {name} contains non-finite values")
            arr.setflags(write=False)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "b2", b2)

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.w2.shape[0]

    def as_dict(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def with_arrays(self, arrays: Mapping[str, np.ndarray]) -> "EncoderParams":
        return replace(self, w1=arrays["w1"], b1=arrays["b1"],
                       w2=arrays["w2"], b2=arrays["b2"])


def init_encoder(input_dim: int, hidden_dim: int, embed_dim: int,
                 seed: int | np.random.Generator = 0,
                 normalize: bool = True, init_scale: float = 0.05) -> EncoderParams:
    """Fresh parameters drawn uniformly from [-init_scale, init_scale]."""
    if min(input_dim, hidden_dim, embed_dim) < 1:
        raise DimensionError("encoder dimensions must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return EncoderParams(
        w1=rng.uniform(-init_scale, init_scale, (hidden_dim, input_dim)),
        b1=rng.uniform(-init_scale, init_scale, hidden_dim),
        w2=rng.uniform(-init_scale, init_scale, (embed_dim, hidden_dim)),
        b2=rng.uniform(-init_scale, init_scale, embed_dim),
        normalize=normalize,
    )


def _layers(params: EncoderParams, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The network on (D,) or (N, D) input: (hidden after ReLU, output before normalising)."""
    if arr.ndim not in (1, 2) or arr.shape[-1] != params.input_dim:
        raise DimensionError(
            f"features: expected inner dimension {params.input_dim}, got shape {arr.shape}")
    # Each matmul returns a fresh array, so bias and ReLU run in place; the
    # rounding is that of the out-of-place expressions.
    hidden = arr @ params.w1.T
    hidden += params.b1
    np.maximum(hidden, 0.0, out=hidden)
    out = hidden @ params.w2.T
    out += params.b2
    return hidden, out


def _row_norms(out: np.ndarray) -> np.ndarray:
    # np.linalg.norm(out, axis=1, keepdims=True) for real input, without its dispatch.
    return np.sqrt(np.add.reduce(out * out, axis=1, keepdims=True))


def encoder_forward(params: EncoderParams, x) -> np.ndarray:
    """Embed one feature vector (D,) or a batch (N, D)."""
    _, out = _layers(params, np.asarray(x, dtype=np.float64))
    if params.normalize and out.ndim == 1:
        # A float floor, which keeps a NaN norm as np.maximum does.
        norm = math.sqrt(np.add.reduce(out * out))
        out /= NORMALIZE_EPS if norm < NORMALIZE_EPS else norm
    elif params.normalize:
        norms = _row_norms(out)
        out /= np.maximum(norms, NORMALIZE_EPS, out=norms)
    return out


def encoder_backward(params: EncoderParams, anchors, positives, negatives,
                     alpha: float = 0.2) -> tuple[dict[str, np.ndarray], float]:
    """Exact parameter gradients (and the loss) of triplet_loss o encoder_forward."""
    xa, xp, xn = _triplet_batches(anchors, positives, negatives)
    stacked = np.concatenate([xa, xp, xn], axis=0)
    hidden, lin = _layers(params, stacked)
    norms = _row_norms(lin) if params.normalize else None
    safe = None if norms is None else np.maximum(norms, NORMALIZE_EPS)
    embedded = lin if safe is None else lin / safe
    count = xa.shape[0]
    loss, grads = _triplet_terms(embedded[:count], embedded[count:2 * count],
                                 embedded[2 * count:], alpha)
    grad_lin = grad_out = np.concatenate(grads, axis=0)
    if safe is not None:
        # d(e/||e||)/de = I/||e|| - e e^T / ||e||^3; below the floor the map
        # is simply e / eps, whose jacobian is I / eps.
        dots = np.sum(lin * grad_out, axis=1, keepdims=True)
        grad_lin = np.where(norms >= NORMALIZE_EPS,
                            grad_out / safe - lin * (dots / safe ** 3),
                            grad_out / NORMALIZE_EPS)
    grad_pre = (grad_lin @ params.w2) * (hidden > 0.0)
    return {
        "w1": grad_pre.T @ stacked,
        "b1": grad_pre.sum(axis=0),
        "w2": grad_lin.T @ hidden,
        "b2": grad_lin.sum(axis=0),
    }, loss


def _check_number(name: str, value, integer: bool = False) -> None:
    """Raise ValidationError unless ``value`` is a real number, or an integer (not a bool)."""
    if integer and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators plus hyperparameters for Adam."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("lr", "beta1", "beta2", "eps"):
            value = getattr(self, name)
            _check_number(name, value)
            if name in ("lr", "eps") and not (value > 0.0 and math.isfinite(value)):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
            if name.startswith("beta") and not 0.0 <= value < 1.0:  # 1 would divide by 0
                raise ValidationError(f"{name} must lie in [0, 1), got {value}")

    @classmethod
    def initial(cls, params: Mapping[str, np.ndarray], lr: float = 1e-3,
                beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(
            m={k: np.zeros_like(np.asarray(p, dtype=np.float64)) for k, p in params.items()},
            v={k: np.zeros_like(np.asarray(p, dtype=np.float64)) for k, p in params.items()},
            t=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps,
        )


def adam_step(params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray],
              state: AdamState) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; returns the new params and state.

    Zero gradients change the moments but never the parameters. Non-finite
    gradients raise NumericsError before anything is touched.
    """
    if set(params) != set(state.m) or set(params) != set(grads):
        raise DimensionError("adam: params, grads, and state must share the same keys")
    for key, grad in grads.items():
        if not np.isfinite(np.asarray(grad)).all():
            raise NumericsError(f"adam: gradient {key!r} is not finite")
    t = state.t + 1
    new_params: dict[str, np.ndarray] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for key, value in params.items():
        value = np.asarray(value, dtype=np.float64)
        grad = np.asarray(grads[key], dtype=np.float64)
        if grad.shape != value.shape:
            raise DimensionError(f"adam: gradient {key!r} shape {grad.shape} != {value.shape}")
        m = state.beta1 * state.m[key] + (1.0 - state.beta1) * grad
        v = state.beta2 * state.v[key] + (1.0 - state.beta2) * grad ** 2
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        new_params[key] = value - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        new_m[key] = m
        new_v[key] = v
    return new_params, replace(state, m=new_m, v=new_v, t=t)


def _check_features(features: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    if len(features) < 2:
        raise DataError(f"need at least 2 subjects, got {len(features)}")
    out: dict[str, np.ndarray] = {}
    dim: int | None = None
    for subject in sorted(features):
        arr = np.asarray(features[subject], dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 2:
            raise DataError(f"subject {subject!r}: need a (n>=2, D) feature matrix, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise DataError(f"subject {subject!r}: features must be finite")
        if dim is None:
            dim = arr.shape[1]
        elif arr.shape[1] != dim:
            raise DimensionError(
                f"subject {subject!r}: feature dimension {arr.shape[1]} != {dim}")
        out[subject] = arr
    return out


def mine_triplets(features: Mapping[str, np.ndarray], count: int,
                  rng: int | np.random.Generator = 0
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw uniform random valid triplets as (anchors, positives, negatives).

    Row i of the three ``(count, D)`` arrays is one triplet. The anchor
    subject is uniform over subjects, the anchor/positive pair uniform over
    distinct same-subject samples, the negative subject uniform over the
    remaining subjects, and the negative sample uniform within it.
    """
    data = _check_features(features)
    if count < 0:
        raise ValidationError(f"count must be non-negative, got {count}")
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    subjects = sorted(data)
    out = np.empty((3, count, data[subjects[0]].shape[1]))
    for i in range(count):
        s = subjects[int(rng.integers(len(subjects)))]
        rows = data[s]
        a_idx, p_idx = rng.choice(rows.shape[0], size=2, replace=False)
        others = [o for o in subjects if o != s]
        t = others[int(rng.integers(len(others)))]
        n_idx = int(rng.integers(data[t].shape[0]))
        out[:, i] = rows[a_idx], rows[p_idx], data[t][n_idx]
    return out[0], out[1], out[2]


def train(features: Mapping[str, np.ndarray], *,
          embed_dim: int = 32, hidden_dim: int = 64,
          epochs: int = 100, alpha: float = 0.2,
          lr: float = 1e-3,
          triplets_per_epoch: int = 128, batch_size: int = 32,
          normalize: bool = True,
          seed: int = 0) -> tuple[EncoderParams, list[float]]:
    """Fit the encoder by mined-triplet descent; returns (params, per-epoch mean loss).

    Each epoch mines ``triplets_per_epoch`` fresh triplets and takes one Adam
    step per batch. Everything is driven by one seeded generator, so equal
    seeds give bit-identical results.
    """
    data = _check_features(features)
    # Each argument's type is checked just before its value, so right-typed
    # values fail in the order they always have.
    _check_number("epochs", epochs, integer=True)
    if epochs < 1:
        raise ValidationError(f"epochs must be positive, got {epochs}")
    _check_number("triplets_per_epoch", triplets_per_epoch, integer=True)
    _check_number("batch_size", batch_size, integer=True)
    if triplets_per_epoch < 1 or batch_size < 1:
        raise ValidationError("triplets_per_epoch and batch_size must be positive")
    _check_number("alpha", alpha)
    if not math.isfinite(alpha):
        raise ValidationError(f"alpha must be finite, got {alpha}")
    _check_number("lr", lr)
    if not (lr > 0.0 and math.isfinite(lr)):
        raise ValidationError(f"lr must be positive and finite, got {lr}")
    _check_number("seed", seed, integer=True)
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    _check_number("embed_dim", embed_dim, integer=True)
    _check_number("hidden_dim", hidden_dim, integer=True)
    rng = np.random.default_rng(seed)
    input_dim = next(iter(data.values())).shape[1]
    params = init_encoder(input_dim, hidden_dim, embed_dim, seed=rng, normalize=normalize)
    state = AdamState.initial(params.as_dict(), lr=lr)
    curve: list[float] = []
    for _ in range(epochs):
        xa, xp, xn = mine_triplets(data, triplets_per_epoch, rng)
        loss_sum = 0.0
        for start in range(0, len(xa), batch_size):
            stop = start + batch_size
            grads, loss = encoder_backward(
                params, xa[start:stop], xp[start:stop], xn[start:stop],
                alpha=alpha)
            weight = min(stop, len(xa)) - start
            loss_sum += loss * weight
            arrays, state = adam_step(params.as_dict(), grads, state)
            params = params.with_arrays(arrays)
        curve.append(loss_sum / len(xa))
    return params, curve


@dataclass(frozen=True)
class EnrollmentRecord:
    """One subject's enrolled anchor embeddings plus their accept threshold."""

    subject_id: str
    anchors: np.ndarray  # (k, embed_dim)
    threshold: float

    def __post_init__(self) -> None:
        anchors = np.asarray(self.anchors, dtype=np.float64)
        if anchors.ndim != 2 or anchors.shape[0] < 1:
            raise ValidationError(
                f"enrollment {self.subject_id!r}: need at least one anchor embedding")
        if not np.isfinite(anchors).all():
            raise ValidationError(f"enrollment {self.subject_id!r}: anchors must be finite")
        if not (math.isfinite(self.threshold) and self.threshold >= 0.0):
            raise ValidationError(
                f"enrollment {self.subject_id!r}: threshold must be non-negative")
        if not self.subject_id:
            raise ValidationError("enrollment: subject_id must be non-empty")
        anchors.setflags(write=False)
        object.__setattr__(self, "anchors", anchors)


@dataclass(frozen=True)
class AuthDecision:
    """Outcome of one verification attempt."""

    accepted: bool
    distance: float
    subject_id: str


def enroll(subject_id: str, samples, params: EncoderParams,
           threshold: float) -> EnrollmentRecord:
    """Embed the subject's feature samples and freeze them as anchors."""
    batch = _as_batch("samples", samples)
    if batch.shape[0] < 1:
        raise EmptyBatchError("enroll: need at least one sample")
    return EnrollmentRecord(
        subject_id=subject_id,
        anchors=encoder_forward(params, batch),
        threshold=threshold,
    )


def verify(feature, record: EnrollmentRecord, params: EncoderParams) -> AuthDecision:
    """Embed a probe and accept iff its nearest-anchor distance is within threshold."""
    probe = np.asarray(feature, dtype=np.float64)
    if probe.ndim != 1:
        raise DimensionError(f"probe: expected a vector, got shape {probe.shape}")
    embedded = encoder_forward(params, probe)
    if record.anchors.shape[1] != embedded.shape[0]:
        raise DimensionError(
            f"probe embedding dimension {embedded.shape[0]} != enrolled {record.anchors.shape[1]}")
    # sqrt is monotone and correctly rounded, so the root of the least squared
    # distance is the least of the rooted distances, bit for bit.
    distance = math.sqrt(_squared_distances(record.anchors, embedded).min())
    return AuthDecision(distance <= record.threshold, distance, record.subject_id)


@dataclass(frozen=True, eq=False)
class RocSweep:
    """FAR/FRR across every decision boundary the data distinguishes.

    ``thresholds``, ``far`` and ``frr`` are read-only float64 arrays, one
    entry per threshold in ascending order.
    """

    thresholds: np.ndarray
    far: np.ndarray  # impostor acceptance fraction at each threshold
    frr: np.ndarray  # genuine rejection fraction at each threshold
    eer_threshold: float
    eer: float
    best_accuracy_threshold: float
    best_accuracy: float


def roc_sweep(genuine, impostor) -> RocSweep:
    """Sweep every distinct distance (plus 0 and +inf) as an accept threshold.

    FAR(t) is the fraction of impostor distances <= t, FRR(t) the fraction of
    genuine distances > t. The equal-error threshold minimizes |FAR - FRR|
    (first such threshold in ascending order); the best-accuracy threshold
    maximizes correct decisions assuming one genuine and one impostor
    population as given.
    """
    g = np.asarray(genuine, dtype=np.float64)
    im = np.asarray(impostor, dtype=np.float64)
    if g.ndim != 1 or im.ndim != 1 or g.shape[0] == 0 or im.shape[0] == 0:
        raise DataError("roc_sweep: need non-empty genuine and impostor distance vectors")
    if not (np.isfinite(g).all() and np.isfinite(im).all()):
        raise DataError("roc_sweep: distances must be finite")
    if (g < 0).any() or (im < 0).any():
        raise DataError("roc_sweep: distances must be non-negative")
    thresholds = np.unique(np.concatenate([g, im, [0.0]]))
    thresholds = np.append(thresholds, np.inf)
    g_sorted = np.sort(g)
    im_sorted = np.sort(im)
    accepted_impostors = np.searchsorted(im_sorted, thresholds, side="right")
    accepted_genuine = np.searchsorted(g_sorted, thresholds, side="right")
    far = accepted_impostors / im.shape[0]
    frr = 1.0 - accepted_genuine / g.shape[0]
    eer_idx = int(np.argmin(np.abs(far - frr)))
    accuracy = (accepted_genuine + (im.shape[0] - accepted_impostors)) / (g.shape[0] + im.shape[0])
    best_idx = int(np.argmax(accuracy))
    for arr in (thresholds, far, frr):
        arr.setflags(write=False)
    return RocSweep(
        thresholds=thresholds,
        far=far,
        frr=frr,
        eer_threshold=float(thresholds[eer_idx]),
        eer=float((far[eer_idx] + frr[eer_idx]) / 2.0),
        best_accuracy_threshold=float(thresholds[best_idx]),
        best_accuracy=float(accuracy[best_idx]),
    )


# ---------------------------------------------------------------------------
# File formats


def load_features(source: Iterable[str] | str | Path) -> dict[str, np.ndarray]:
    """Read a feature dataset: JSONL of {"subject": str, "features": [reals]}."""
    rows: dict[str, list[np.ndarray]] = {}
    dim: int | None = None
    for n, obj in json_lines(source, DataError):
        with at_line(n):
            if not isinstance(obj, dict) or not isinstance(obj.get("subject"), str) \
                    or not isinstance(obj.get("features"), list):
                raise DataError("expected fields 'subject' and 'features'")
            vec = number_array(obj["features"], "features", DataError)
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise DimensionError(f"feature length {len(vec)} != {dim}")
        rows.setdefault(obj["subject"], []).append(vec)
    if not rows:
        raise DataError("feature dataset is empty")
    return {subject: np.asarray(vecs, dtype=np.float64) for subject, vecs in rows.items()}


def save_features(path: str | Path, features: Mapping[str, np.ndarray]) -> int:
    """Write a feature dataset as JSONL; returns the row count."""
    def lines():
        for subject in features:
            rows = np.asarray(features[subject], dtype=np.float64)
            if rows.ndim != 2:
                raise DimensionError(f"features {subject!r}: expected (N, D), got shape {rows.shape}")
            for row in rows.tolist():
                yield {"subject": subject, "features": row}

    return write_lines(path, lines())


STORE_VERSION = 1


def save_store(path: str | Path, records: Sequence[EnrollmentRecord],
               *, normalize: bool, dim: int) -> None:
    """Write an enrollment store.

    Schema: {"version": 1, "normalize": bool, "dim": D,
             "records": [{"subject": str, "threshold": real, "anchors": [[...]*D]}]}
    """
    for record in records:
        if record.anchors.shape[1] != dim:
            raise DimensionError(
                f"store: record {record.subject_id!r} has dimension "
                f"{record.anchors.shape[1]}, store says {dim}")
    obj = {
        "version": STORE_VERSION,
        "normalize": bool(normalize),
        "dim": int(dim),
        "records": [
            {
                "subject": r.subject_id,
                "threshold": float(r.threshold),
                "anchors": r.anchors.tolist(),
            }
            for r in records
        ],
    }
    write_lines(path, [obj])


def load_store(path: str | Path) -> tuple[list[EnrollmentRecord], bool, int]:
    """Read an enrollment store; returns (records, normalize, dim)."""
    obj = read_json(path, "store", DataError)
    if not isinstance(obj, dict) or obj.get("version") != STORE_VERSION:
        raise DataError(f"store: expected version {STORE_VERSION}")
    for key, kind in (("normalize", bool), ("dim", int), ("records", list)):  # not "false" or 2.9
        if type(obj.get(key)) is not kind:
            raise DataError(f"store: missing or bad field ({key!r})")
    normalize, dim, entries = obj["normalize"], obj["dim"], obj["records"]
    records = []
    subjects: set[str] = set()
    for i, entry in enumerate(entries):
        where = f"store: records[{i}]"
        if not isinstance(entry, dict):
            raise DataError(f"{where}: missing or bad field (expected an object)")
        try:
            subject = entry["subject"]
            if type(subject) is not str:  # verify and enroll match subjects as strings
                raise DataError(f"{where}.subject: expected a string, got {subject!r}")
            if subject in subjects:
                raise DataError(f"{where}.subject: duplicate subject {subject!r}")
            subjects.add(subject)
            record = EnrollmentRecord(
                subject_id=subject,
                anchors=number_array(entry["anchors"], f"{where}.anchors", DataError, ndim=2),
                threshold=number(entry["threshold"], f"{where}.threshold", DataError),
            )
        except KeyError as exc:
            raise DataError(f"{where}: missing or bad field ({exc})") from exc
        except ValidationError as exc:
            raise DataError(f"{where}: {exc}") from exc
        if record.anchors.shape[1] != dim:
            raise DataError(
                f"store: record {record.subject_id!r} dimension {record.anchors.shape[1]} != {dim}")
        records.append(record)
    return records, normalize, dim


def save_params(path: str | Path, params: EncoderParams) -> None:
    """Persist encoder weights as JSON (exact float round trip)."""
    obj = {
        "normalize": params.normalize,
        "w1": params.w1.tolist(),
        "b1": params.b1.tolist(),
        "w2": params.w2.tolist(),
        "b2": params.b2.tolist(),
    }
    write_lines(path, [obj])


def load_params(path: str | Path) -> EncoderParams:
    obj = read_json(path, "params", DataError)
    if not isinstance(obj, dict) or type(obj.get("normalize")) is not bool:  # bool("false") is True
        raise DataError("params: missing or bad field ('normalize')")
    try:
        arrays = {key: number_array(obj[key], f"params: {key}", DataError, ndim)
                  for key, ndim in (("w1", 2), ("b1", 1), ("w2", 2), ("b2", 1))}
    except KeyError as exc:
        raise DataError(f"params: missing or bad field ({exc})") from exc
    return EncoderParams(**arrays, normalize=obj["normalize"])
