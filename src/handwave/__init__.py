"""Gesture control and palm verification from 2D hand landmarks.

The package covers the full pipeline between a landmark producer and the
devices being driven: detector post-processing (anchor decode + NMS and
confidence-map peaks), posture classification with debounced gesture events,
a triplet-loss palm encoder with enrollment/verification, a pan/tilt
centering controller with a byte-exact wire protocol, and evaluation and
synthesis utilities for testing the whole loop offline.
"""

from .errors import (
    ConfigError,
    DataError,
    DecodeError,
    DimensionError,
    EmptyBatchError,
    HandwaveError,
    NumericsError,
    ParseError,
    ProtocolError,
    StreamOrderError,
    SynthError,
    ValidationError,
)
from .model import (
    FINGERS,
    NUM_LANDMARKS,
    DoublePattern,
    EvalReport,
    EvalRow,
    GestureDef,
    GestureEvent,
    HandFrame,
    Handedness,
    LandmarkSet,
    Point2,
    PostureArray,
)
from .streams import (
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
from .detect import (
    DEFAULT_IOU_THRESH,
    DEFAULT_SCORE_THRESH,
    FULL_IMAGE,
    Anchor,
    AnchorConfig,
    BBox,
    LayerSpec,
    RawPrediction,
    decode_box,
    decode_keypoints,
    generate_anchors,
    iou,
    nms,
)
from .gestures import (
    DEFAULT_FINGER_PARAMS,
    FingerStateParams,
    GestureEngine,
    GestureRegistry,
    classify,
    default_registry,
    focal_point,
    load_registry,
    posture_array,
    save_registry,
)
from .palmauth import (
    AdamState,
    AuthDecision,
    EncoderParams,
    EnrollmentRecord,
    RocSweep,
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
    verify,
)
from .control import (
    Axis,
    ControllerConfig,
    DeviceCommand,
    MotorCommand,
    Transport,
    centering_step,
    decode_wire,
    encode_wire,
    map_gesture,
    open_transport,
)
from .synth import SynthSpec, hand_template, synth_corpus
from .evaluate import (evaluate, evaluate_events, format_report_table,
                       format_row_cells, pct_floor, report_to_obj)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "DecodeError", "DimensionError",
    "EmptyBatchError", "HandwaveError", "NumericsError", "ParseError",
    "ProtocolError", "StreamOrderError", "SynthError", "ValidationError",
    "FINGERS", "NUM_LANDMARKS", "DoublePattern", "EvalReport", "EvalRow",
    "GestureDef", "GestureEvent", "HandFrame", "Handedness", "LandmarkSet",
    "Point2", "PostureArray",
    "frame_from_obj", "frame_to_obj", "parse_frame", "read_frames",
    "read_labelled", "serialize_frame", "validate_frame", "write_frames",
    "write_labelled",
    "DEFAULT_IOU_THRESH", "DEFAULT_SCORE_THRESH", "FULL_IMAGE", "Anchor",
    "AnchorConfig", "BBox", "LayerSpec", "RawPrediction", "decode_box",
    "decode_keypoints", "generate_anchors", "iou", "nms",
    "DEFAULT_FINGER_PARAMS", "FingerStateParams", "GestureEngine",
    "GestureRegistry", "classify", "default_registry", "focal_point",
    "load_registry", "posture_array", "save_registry",
    "AdamState", "AuthDecision", "EncoderParams", "EnrollmentRecord",
    "RocSweep", "adam_step", "encoder_backward",
    "encoder_forward", "enroll", "euclidean_distance",
    "init_encoder", "load_features", "load_params", "load_store",
    "mine_triplets", "roc_sweep", "save_features", "save_params",
    "save_store", "train", "triplet_grad", "triplet_loss", "verify",
    "Axis", "ControllerConfig", "DeviceCommand",
    "MotorCommand", "Transport", "centering_step", "decode_wire",
    "encode_wire", "map_gesture", "open_transport",
    "SynthSpec", "hand_template", "synth_corpus",
    "evaluate", "evaluate_events", "format_report_table", "format_row_cells",
    "pct_floor", "report_to_obj",
]
