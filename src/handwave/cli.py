"""Command-line front door.

Machine-readable results go to stdout (JSON, or JSONL for streams); anything
diagnostic goes to stderr. Exit codes: 0 success, 1 for validation, protocol,
or data errors, 2 for usage errors. Identical inputs and seeds produce
byte-identical stdout.

Subcommands:
    synth       registry -> labelled synthetic corpus JSONL
    eval        labelled corpus -> report JSON + text table
    decode      raw prediction JSONL -> decoded box JSONL
    keypoints   confidence-map JSONL -> landmark frame JSONL
    replay      frame JSONL -> gesture event JSONL
    track       frame JSONL -> motor/device wire commands over a transport
    enroll      feature dataset -> enrollment store entry
    verify      probe features vs an enrolled subject
    train       feature dataset -> encoder params JSON
    roc         feature dataset + params -> threshold sweep summary
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import control, detect, gestures, palmauth, streams, synth
from ._jsonio import NUMBER_ERRORS, read_json, write_lines
from .errors import ConfigError, DataError, HandwaveError
from .evaluate import (
    evaluate as evaluate_pairs,  # unused here; perfbench's tracer wraps it by this name
    evaluate_corpus,
    evaluate_events,
    format_report_table,
    report_to_obj,
)
from .model import Handedness, HandFrame


def _emit(obj) -> None:
    write_lines(sys.stdout, [obj])


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    obj = read_json(path, "config", ConfigError)
    if not isinstance(obj, dict):
        raise ConfigError("config: expected a JSON object")
    return obj


def _setting(config: dict, section: str, key: str, default, kind=float):
    """One numeric setting of a config section, converted by ``kind``."""
    part = config.get(section, {})
    if not isinstance(part, dict):
        raise ConfigError(f"config: {section} must be an object")
    value = part.get(key, default)
    try:
        return kind(value)
    except NUMBER_ERRORS:
        raise ConfigError(f"config: {section}.{key} must be a number, got {value!r}") from None


def _finger_params(config: dict) -> gestures.FingerStateParams:
    return gestures.FingerStateParams(
        thumb_slope_max=_setting(config, "finger_params", "thumb_slope_max", 1.0),
        thumb_min_dx=_setting(config, "finger_params", "thumb_min_dx", 0.04),
    )


def _controller(config: dict) -> control.ControllerConfig:
    return control.ControllerConfig(
        deadzone=_setting(config, "controller", "deadzone", 0.05),
        gain=_setting(config, "controller", "gain", 40.0),
        max_steps=_setting(config, "controller", "max_steps", 20, int),
    )


def _registry(path: str | None) -> gestures.GestureRegistry:
    return gestures.load_registry(path) if path else gestures.default_registry()


def cmd_synth(args) -> int:
    registry = _registry(args.registry)
    spec = synth.SynthSpec.from_registry(
        registry,
        frames_per_gesture=args.frames,
        jitter_sigma=args.sigma,
        seed=args.seed,
    )
    pairs = synth.synth_corpus(spec, _finger_params(_load_config(args.config)))
    count = streams.write_labelled(args.out or sys.stdout, pairs)
    if args.out:
        _emit({"frames": count, "gestures": len(spec.gestures), "path": args.out})
    return 0


def cmd_eval(args) -> int:
    registry = _registry(args.registry)
    params = _finger_params(_load_config(args.config))
    if args.events:
        _emit(evaluate_events(streams.read_labelled(args.corpus), registry, params))
        return 0
    report = evaluate_corpus(args.corpus, registry, params)
    obj = report_to_obj(report)
    if args.out:
        write_lines(args.out, [obj])
    _emit(obj)
    sys.stdout.write(format_report_table(report) + "\n")
    return 0


# decode, keypoints and replay hand write_lines generators: --out exists before input is read.
def cmd_decode(args) -> int:
    def results():
        for record in detect.read_predictions(args.preds):
            boxes = detect.decode_record(
                record, iou_thresh=args.iou_thresh, score_thresh=args.score_thresh)
            yield {"boxes": [[b.cx, b.cy, b.w, b.h, b.score] for b in boxes]}
    write_lines(args.out or sys.stdout, results())
    return 0


def cmd_keypoints(args) -> int:
    def frames():
        for i, record in enumerate(detect.read_confidence_maps(args.maps)):
            region = record.region if record.region is not None else detect.FULL_IMAGE
            lms = detect.decode_keypoints(record.maps, region, Handedness.RIGHT)
            yield HandFrame(t_ms=i * 40, hands=(lms,))
    streams.write_frames(args.out or sys.stdout, frames())
    return 0


def cmd_replay(args) -> int:
    registry = _registry(args.registry)
    engine = gestures.GestureEngine(registry, _finger_params(_load_config(args.config)))
    write_lines(args.out or sys.stdout, (
        {"name": e.name, "onset_ms": e.onset_ms, "offset_ms": e.offset_ms,
         "cursor": [e.cursor.x, e.cursor.y] if e.cursor else None}
        for e in engine.run(streams.read_frames(args.frames))))
    return 0


def _load_mapping(path: str | None) -> dict[str, control.DeviceCommand]:
    if path is None:
        return {}
    obj = read_json(path, "mapping", ConfigError)
    if not isinstance(obj, dict):
        raise ConfigError("mapping: expected {gesture: {device, action}}")
    mapping = {}
    for name, entry in obj.items():
        if not isinstance(entry, dict) or "device" not in entry or "action" not in entry:
            raise ConfigError(f"mapping: entry {name!r} needs 'device' and 'action'")
        mapping[name] = control.DeviceCommand(entry["device"], entry["action"])
    return mapping


def cmd_track(args) -> int:
    config = _load_config(args.config)
    registry = _registry(args.registry)
    engine = gestures.GestureEngine(registry, _finger_params(config))
    controller = _controller(config)
    mapping = _load_mapping(args.mapping)
    frames = motor = device = 0
    with control.open_transport(args.uri) as transport:
        for frame in streams.read_frames(args.frames):
            frames += 1
            if frame.hands:
                focal = gestures.focal_point(frame.hands[0])
                for cmd in control.centering_step(focal, controller):
                    transport.send(control.encode_wire(cmd))
                    motor += 1
            for event in engine.step(frame):
                action = control.map_gesture(event, mapping)
                if action is not None:
                    transport.send(control.encode_wire(action))
                    device += 1
    _emit({"frames": frames, "motor_commands": motor, "device_commands": device})
    return 0


def cmd_train(args) -> int:
    features = palmauth.load_features(args.data)
    params, curve = palmauth.train(
        features,
        embed_dim=args.embed_dim,
        hidden_dim=args.hidden_dim,
        epochs=args.epochs,
        alpha=args.alpha,
        lr=args.lr,
        triplets_per_epoch=args.triplets_per_epoch,
        batch_size=args.batch_size,
        normalize=not args.no_normalize,
        seed=args.seed,
    )
    palmauth.save_params(args.out, params)
    _emit({
        "epochs": args.epochs,
        "first_loss": curve[0],
        "final_loss": curve[-1],
        "input_dim": params.input_dim,
        "embed_dim": params.embed_dim,
        "path": args.out,
    })
    return 0


def _calibrate_threshold(subject: str, features, params) -> float:
    """Leave-one-out EER threshold for a subject against the rest of the dataset.

    A genuine distance is a sample's nearest other sample of the subject; an
    impostor distance is another subject's sample's nearest sample of it.
    """
    if len(features) < 2:
        raise DataError("threshold calibration needs at least one other subject")
    if len(features[subject]) < 2:
        raise DataError(
            f"threshold calibration needs at least two samples of subject {subject!r}")
    distances = palmauth.pairwise_distances
    own = palmauth.encoder_forward(params, features[subject])
    within = distances(own, own)
    np.fill_diagonal(within, np.inf)
    impostor = [distances(palmauth.encoder_forward(params, rows), own).min(axis=1)
                for other, rows in features.items() if other != subject]
    return palmauth.roc_sweep(within.min(axis=1), np.concatenate(impostor)).eer_threshold


def cmd_enroll(args) -> int:
    features = palmauth.load_features(args.data)
    params = palmauth.load_params(args.params)
    if args.subject not in features:
        raise DataError(f"subject {args.subject!r} not present in {args.data}")
    threshold = args.threshold
    if threshold is None:
        threshold = _calibrate_threshold(args.subject, features, params)
    record = palmauth.enroll(args.subject, features[args.subject], params, threshold)
    store_path = Path(args.store)
    if store_path.exists():
        records, normalize, dim = palmauth.load_store(store_path)
        if normalize != params.normalize or dim != params.embed_dim:
            raise DataError("store: existing store disagrees with these encoder params")
        records = [r for r in records if r.subject_id != args.subject]
    else:
        records = []
    records.append(record)
    palmauth.save_store(store_path, records, normalize=params.normalize, dim=params.embed_dim)
    _emit({"subject": args.subject, "anchors": int(record.anchors.shape[0]),
           "threshold": record.threshold, "path": args.store})
    return 0


def cmd_verify(args) -> int:
    params = palmauth.load_params(args.params)
    records, normalize, dim = palmauth.load_store(args.store)
    if normalize != params.normalize or dim != params.embed_dim:
        raise DataError("store: store disagrees with these encoder params")
    record = next((r for r in records if r.subject_id == args.subject), None)
    if record is None:
        raise DataError(f"subject {args.subject!r} is not enrolled")
    probe_obj = read_json(args.probe, "probe", DataError)
    if not isinstance(probe_obj, dict) or not isinstance(probe_obj.get("features"), list):
        raise DataError("probe: expected {\"features\": [reals]}")
    try:
        probe = np.asarray(probe_obj["features"], dtype=np.float64)
    except NUMBER_ERRORS as exc:
        raise DataError(f"probe: features must be numbers ({exc})") from exc
    if not np.isfinite(probe).all():
        raise DataError("probe: features must be finite")
    decision = palmauth.verify(probe, record, params)
    _emit({"accepted": decision.accepted, "distance": decision.distance,
           "subject": decision.subject_id})
    return 0


def cmd_roc(args) -> int:
    features = palmauth.load_features(args.data)
    params = palmauth.load_params(args.params)
    distances = palmauth.pairwise_distances
    embedded = [palmauth.encoder_forward(params, features[s]) for s in sorted(features)]
    # Every pair of samples once. The empty heads leave a dataset without
    # pairs of one kind for roc_sweep to reject, where numpy would raise.
    genuine = np.concatenate([[], *(distances(e, e)[np.triu_indices(len(e), 1)]
                                    for e in embedded)])
    impostor = np.concatenate([[], *(distances(e, f).ravel()
                                     for i, e in enumerate(embedded) for f in embedded[i + 1:])])
    sweep = palmauth.roc_sweep(genuine, impostor)
    result = {
        "eer_threshold": sweep.eer_threshold,
        "eer": sweep.eer,
        "best_accuracy_threshold": sweep.best_accuracy_threshold,
        "best_accuracy": sweep.best_accuracy,
        "num_genuine": len(genuine),
        "num_impostor": len(impostor),
    }
    if args.points:
        result["points"] = [[p.threshold, p.far, p.frr] for p in sweep.points]
    _emit(result)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handwave",
        description="Gesture recognition, palm verification, and camera-tracking tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labelled synthetic gesture corpus")
    p.add_argument("--out", help="corpus path (stdout when omitted)")
    p.add_argument("--registry", help="gesture registry JSON (stock 16 when omitted)")
    p.add_argument("--frames", type=int, default=150, help="frames per gesture")
    p.add_argument("--sigma", type=float, default=0.01, help="coordinate jitter sigma")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON config (finger_params section)")

    p = sub.add_parser("eval", help="score a labelled corpus against a registry")
    p.add_argument("--corpus", required=True)
    p.add_argument("--registry")
    p.add_argument("--config")
    p.add_argument("--out", help="also write the report JSON here")
    p.add_argument("--events", action="store_true",
                   help="debounced event-level tally instead of the frame report")

    p = sub.add_parser("decode", help="decode raw detector predictions into boxes")
    p.add_argument("--preds", required=True, help="raw prediction JSONL")
    p.add_argument("--iou-thresh", type=float, default=detect.DEFAULT_IOU_THRESH)
    p.add_argument("--score-thresh", type=float, default=detect.DEFAULT_SCORE_THRESH)
    p.add_argument("--out")

    p = sub.add_parser("keypoints", help="decode confidence maps into landmark frames")
    p.add_argument("--maps", required=True, help="confidence-map JSONL")
    p.add_argument("--out")

    p = sub.add_parser("replay", help="run the gesture engine over recorded frames")
    p.add_argument("--frames", required=True, help="frame JSONL")
    p.add_argument("--registry")
    p.add_argument("--config")
    p.add_argument("--out")

    p = sub.add_parser("track", help="stream centering/device commands for recorded frames")
    p.add_argument("--frames", required=True, help="frame JSONL")
    p.add_argument("--uri", required=True, help="tcp://host:port or serial:<path>")
    p.add_argument("--registry")
    p.add_argument("--mapping", help="gesture -> device command JSON")
    p.add_argument("--config")

    p = sub.add_parser("train", help="fit the palm encoder on a feature dataset")
    p.add_argument("--data", required=True, help="feature dataset JSONL")
    p.add_argument("--out", required=True, help="encoder params JSON path")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--embed-dim", type=int, default=32)
    p.add_argument("--hidden-dim", type=int, default=64)
    p.add_argument("--triplets-per-epoch", type=int, default=128)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("enroll", help="add a subject to an enrollment store")
    p.add_argument("--store", required=True)
    p.add_argument("--subject", required=True)
    p.add_argument("--data", required=True, help="feature dataset JSONL")
    p.add_argument("--params", required=True, help="encoder params JSON")
    p.add_argument("--threshold", type=float,
                   help="accept threshold (leave-one-out EER when omitted)")

    p = sub.add_parser("verify", help="verify a probe against an enrolled subject")
    p.add_argument("--store", required=True)
    p.add_argument("--subject", required=True)
    p.add_argument("--probe", required=True, help='JSON {"features": [reals]}')
    p.add_argument("--params", required=True)

    p = sub.add_parser("roc", help="sweep accept thresholds over a feature dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--points", action="store_true", help="include the full sweep")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Looked up at call time, so that whatever this module binds now runs.
    command = globals()["cmd_" + args.command]
    try:
        return command(args)
    except HandwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
