"""Bad input files end in ``error: ...`` with exit 1, never in a traceback.

Every subcommand reads its files through one ASCII-JSON reader. The tests
here feed it known-bad inputs, fuzz each subcommand's valid inputs with
hypothesis, and run the demos end to end.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from handwave import (
    AnchorConfig,
    LayerSpec,
    DataError,
    Handedness,
    PostureArray,
    StreamOrderError,
    SynthSpec,
    ValidationError,
    default_registry,
    enroll,
    hand_template,
    init_encoder,
    load_features,
    read_frames,
    save_features,
    save_params,
    save_registry,
    save_store,
    synth_corpus,
    write_frames,
    write_labelled,
)
from handwave.cli import main

REPO = Path(__file__).resolve().parents[1]


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One valid file of every kind the fuzzed subcommands read."""
    root = tmp_path_factory.mktemp("inputs")
    pairs = synth_corpus(SynthSpec.from_registry(
        default_registry(), frames_per_gesture=6, jitter_sigma=0.0))[:12]
    write_frames(root / "frames.jsonl", (frame for frame, _ in pairs))
    write_labelled(root / "corpus.jsonl", pairs)

    cfg = AnchorConfig(layers=(LayerSpec(2, 1, (0.5,), (1.0, 2.0)),))
    preds = [[2.0, 0.1, -0.1, 0.0, 0.2], [-1.0, 0.0, 0.0, 0.0, 0.0],
             [1.5, 0.0, 0.3, 0.1, 0.0], [0.5, 0.2, 0.0, 0.0, -0.1]]
    (root / "preds.jsonl").write_text(
        json.dumps({"anchors_cfg": cfg.to_obj(), "preds": preds}) + "\n")

    maps = np.zeros((21, 2, 3))
    maps[:, 1, 2] = 0.75
    (root / "maps.jsonl").write_text(json.dumps(
        {"h": 2, "w": 3, "maps": maps.reshape(21, 6).tolist(),
         "region": [0.5, 0.5, 0.4, 0.4]}) + "\n")

    rng = np.random.default_rng(0)
    features = {f"s{i}": rng.normal(i, 0.1, size=(3, 4)) for i in range(3)}
    save_features(root / "data.jsonl", features)
    params = init_encoder(4, 4, 2, seed=0)
    save_params(root / "params.json", params)
    save_store(root / "store.json", [enroll("s0", features["s0"], params, 0.5)],
               normalize=params.normalize, dim=params.embed_dim)
    (root / "probe.json").write_text(
        json.dumps({"features": features["s0"][0].tolist()}) + "\n")
    (root / "config.json").write_text(json.dumps(
        {"finger_params": {"thumb_slope_max": 1.0, "thumb_min_dx": 0.04},
         "controller": {"deadzone": 0.05, "gain": 40.0, "max_steps": 20}}) + "\n")
    save_registry(root / "registry.json", default_registry())
    (root / "port").touch()
    return root


# Each subcommand's argv, with every input file named by its file name.
COMMANDS = {
    "replay": ["--frames", "frames.jsonl", "--config", "config.json",
               "--registry", "registry.json"],
    "eval": ["--corpus", "corpus.jsonl", "--config", "config.json",
             "--registry", "registry.json"],
    "decode": ["--preds", "preds.jsonl"],
    "keypoints": ["--maps", "maps.jsonl"],
    "verify": ["--store", "store.json", "--subject", "s0", "--probe", "probe.json",
               "--params", "params.json"],
    "roc": ["--data", "data.jsonl", "--params", "params.json"],
    "track": ["--frames", "frames.jsonl", "--uri", "serial:port", "--config", "config.json"],
    "synth": ["--registry", "registry.json", "--frames", "2", "--config", "config.json"],
    "train": ["--data", "data.jsonl", "--out", "trained.json", "--epochs", "2"],
}


def argv_for(root, command, replace=None, path=None):
    """The command's argv over ``root``, with file ``replace`` read from ``path``."""
    argv = [command]
    for arg in COMMANDS[command]:
        if arg == replace:
            argv.append(path)
        elif arg.endswith((".json", ".jsonl")):
            argv.append(root / arg)
        elif arg.startswith("serial:"):
            argv.append(f"serial:{root / arg[len('serial:'):]}")
        else:
            argv.append(arg)
    return argv


@pytest.mark.parametrize("command", sorted(set(COMMANDS) - {"track"}))
def test_valid_inputs_succeed(inputs, command):
    code, out, err = run_main(*argv_for(inputs, command))
    assert (code, err) == (0, "")
    assert out


FRAME = {"t": 0, "hands": [{"hd": "R", "pts": [[0.5, 0.5]] * 21}]}
ANCHORS = {"layers": [{"grid_w": 1, "grid_h": 1, "scales": [0.5], "aspect_ratios": [1.0]}]}
STORE = {"version": 1, "normalize": True, "dim": 2,
         "records": [{"subject": "s0", "threshold": 0.5, "anchors": [[0.6, 0.8]]}]}
PARAMS = {"normalize": True, "w1": [[0.5] * 4] * 4, "b1": [0.0] * 4,
          "w2": [[0.5] * 4] * 2, "b2": [0.0] * 2}


def _with(obj, **fields):
    return json.dumps({**obj, **fields}).encode()


def _store_record(record):
    return json.dumps({**STORE, "records": [record]}).encode()


def _features(*subjects):
    """Feature dataset lines, one per subject name, each with 4 features."""
    return "".join(json.dumps({"subject": s, "features": [0.1, 0.2, 0.3, float(i)]}) + "\n"
                   for i, s in enumerate(subjects)).encode()


LABELLED = {"t": 0, "hands": [{"hd": "R", "pts": [[0.5, 0.5]] * 21}], "label": "One_VRF"}


def _corpus(*edits):
    """Two labelled lines 40 ms apart; each edit sets (line index, field, value)."""
    lines = [{**LABELLED, "t": 40 * i} for i in range(2)]
    for i, key, value in edits:
        lines[i] = {**lines[i], key: value}
    return "".join(json.dumps(obj) + "\n" for obj in lines).encode()


def _first_point(pair):
    return [{"hd": "R", "pts": [pair] + [[0.5, 0.5]] * 20}]


NO_PAIRS = "error: roc_sweep: need non-empty genuine and impostor distance vectors"


# (id, command, file replaced, its bytes, a fragment the error message holds);
# where an option stands for the file, its value is the text given last.
BAD_INPUTS = [
    ("frames-non-ascii", "replay", "frames.jsonl", b'{"t": 0, "hands": []}\xc3\n',
     "error: line 1: not ASCII: 'ascii' codec can't decode byte 0xc3 in position 21"),
    ("corpus-non-ascii", "eval", "corpus.jsonl",
     b'{"t": 0, "hands": [], "label": "caf\xc3\xa9"}\n', "error: line 1: not ASCII:"),
    ("features-non-ascii", "roc", "data.jsonl", b'{"subject": "\xff", "features": [1]}\n',
     "error: line 1: not ASCII:"),
    ("config-non-ascii", "replay", "config.json", b'{"controller": {}}\x80',
     "error: config: not ASCII:"),
    ("params-too-deep", "roc", "params.json", b"[" * 100_000,
     "error: params: malformed JSON: maximum recursion depth"),
    ("frame-short-pts", "replay", "frames.jsonl",
     json.dumps({"t": 0, "hands": [{"hd": "R", "pts": [[0.5, 0.5]]}]}).encode(),
     "error: line 1: hands[0].pts: expected 21 points, got 1"),
    ("frame-malformed-json", "replay", "frames.jsonl",
     json.dumps(FRAME).encode() + b"\n{",
     "error: line 2: malformed JSON: Expecting property name"),
    ("frame-huge-integer", "replay", "frames.jsonl",
     json.dumps(FRAME).replace("0.5", "1" + "0" * 400, 1).encode(),
     "error: line 1: hands[0].pts[0].x: must be finite"),
    ("corpus-bad-frame", "eval", "corpus.jsonl", _with(FRAME, t=1.5),
     "error: line 1: t: expected integer milliseconds"),
    ("corpus-true-coordinate", "eval", "corpus.jsonl",
     _corpus((1, "hands", _first_point([True, 0.5]))),
     "error: line 2: hands[0].pts[0].x: expected a number, got True\n"),
    ("corpus-huge-integer", "eval", "corpus.jsonl",
     _corpus((1, "hands", _first_point([0.5, 10**400]))),
     "error: line 2: hands[0].pts[0].y: must be finite, got 1000"),
    ("corpus-duplicate-hd", "eval", "corpus.jsonl", _corpus((0, "hands", LABELLED["hands"] * 2)),
     "error: line 1: hands: duplicate handedness\n"),
    ("corpus-non-increasing-t", "eval", "corpus.jsonl", _corpus((1, "t", 0)),
     "error: line 2: timestamp 0 does not increase past 0\n"),
    ("corpus-empty-label", "eval", "corpus.jsonl", _corpus((1, "label", "")),
     "error: line 2: label must be a non-empty string\n"),
    ("corpus-non-string-label", "eval", "corpus.jsonl", _corpus((0, "label", ["One_VRF"])),
     "error: line 1: label must be a non-empty string\n"),
    ("corpus-unexpected-key", "eval", "corpus.jsonl", _corpus((1, "x", 1)),
     "error: line 2: frame: unexpected field 'x'\n"),
    ("corpus-non-object-line", "eval", "corpus.jsonl", _corpus() + b"[1]\n",
     "error: line 3: expected an object\n"),
    ("corpus-blank-lines", "eval", "corpus.jsonl", b"\n  \n\n",
     "error: evaluate: the labelled stream is empty\n"),
    ("region-non-numeric", "keypoints", "maps.jsonl",
     json.dumps({"h": 2, "w": 2, "maps": [[0, 0, 0, 1]] * 21,
                 "region": ["a", 0.5, 0.5, 0.5]}).encode(),
     "error: line 1: region: values must be numbers"),
    ("maps-negative-size", "keypoints", "maps.jsonl",
     json.dumps({"h": -1, "w": 2, "maps": [[0, 0, 0, 1]] * 21}).encode(),
     "error: line 1: h and w must be at least 1, got h=-1, w=2"),
    ("preds-non-numeric", "decode", "preds.jsonl",
     json.dumps({"anchors_cfg": ANCHORS, "preds": [["x", 0, 0, 0, 0]]}).encode(),
     "error: line 1: preds: expected rows of numbers"),
    ("anchors-grid-non-numeric", "decode", "preds.jsonl",
     json.dumps({"anchors_cfg": {"layers": [{**ANCHORS["layers"][0], "grid_w": "x"}]},
                 "preds": [[0, 0, 0, 0, 0]]}).encode(),
     "error: line 1: anchors: bad layer spec"),
    ("anchors-variance-non-numeric", "decode", "preds.jsonl",
     json.dumps({"anchors_cfg": {**ANCHORS, "size_variance": [1]},
                 "preds": [[0, 0, 0, 0, 0]]}).encode(),
     "error: line 1: anchors: bad layer spec"),
    ("store-record-no-subject", "verify", "store.json",
     _store_record({"threshold": 0.5, "anchors": [[0.6, 0.8]]}),
     "error: store: records[0]: missing or bad field ('subject')"),
    ("store-record-not-object", "verify", "store.json", _store_record([1, 2]),
     "error: store: records[0]: missing or bad field"),
    ("store-anchors-non-numeric", "verify", "store.json",
     _store_record({"subject": "s0", "threshold": 0.5, "anchors": [["a", "b"]]}),
     "error: store: records[0]: missing or bad field"),
    ("store-dim-infinite", "verify", "store.json", _with(STORE, dim=float("inf")),
     "error: store: missing or bad field"),
    ("store-normalize-string", "verify", "store.json", _with(STORE, normalize="false"),
     "error: store: missing or bad field ('normalize')\n"),
    ("store-dim-fraction", "verify", "store.json", _with(STORE, dim=2.9),
     "error: store: missing or bad field ('dim')\n"),
    ("store-dim-bool", "verify", "store.json", _with(STORE, dim=True),
     "error: store: missing or bad field ('dim')\n"),
    ("params-normalize-string", "roc", "params.json", _with(PARAMS, normalize="false"),
     "error: params: missing or bad field ('normalize')\n"),
    ("roc-one-subject", "roc", "data.jsonl", _features("s0", "s0", "s0"), NO_PAIRS),
    ("roc-one-sample-each", "roc", "data.jsonl", _features("s0", "s1", "s2"), NO_PAIRS),
    ("probe-non-numeric", "verify", "probe.json", b'{"features": ["a", 1, 2, 3]}',
     "error: probe: features must be numbers"),
    ("probe-nan", "verify", "probe.json", b'{"features": [NaN, 1, 2, 3]}',
     "error: probe: features must be finite"),
    ("probe-overflow", "verify", "probe.json", b'{"features": [1e400, 1, 2, 3]}',
     "error: probe: features must be finite"),
    ("synth-sigma-nan", "synth", "--sigma", "nan",
     "error: synth: jitter_sigma must be finite, got nan"),
    ("synth-sigma-inf", "synth", "--sigma", "inf",
     "error: synth: jitter_sigma must be finite, got inf"),
    ("synth-negative-sigma", "synth", "--sigma", "-0.5",
     "error: synth: jitter_sigma must be non-negative"),
    ("synth-negative-seed", "synth", "--seed", "-1",
     "error: synth: seed must be non-negative, got -1"),
    ("train-alpha-nan", "train", "--alpha", "nan", "error: alpha must be finite, got nan"),
    ("train-negative-seed", "train", "--seed", "-1",
     "error: seed must be non-negative, got -1"),
    ("finger-params-non-numeric", "replay", "config.json",
     b'{"finger_params": {"thumb_slope_max": "steep"}}',
     "error: config: finger_params.thumb_slope_max must be a number, got 'steep'"),
    ("finger-params-not-finite", "replay", "config.json",
     b'{"finger_params": {"thumb_slope_max": NaN, "thumb_min_dx": Infinity}}',
     "error: thumb_slope_max must be finite, got nan"),
    ("controller-non-numeric", "track", "config.json", b'{"controller": {"gain": "fast"}}',
     "error: config: controller.gain must be a number, got 'fast'"),
    ("controller-steps-infinite", "track", "config.json",
     b'{"controller": {"max_steps": Infinity}}',
     "error: config: controller.max_steps must be a number, got inf"),
    ("controller-not-object", "track", "config.json", b'{"controller": [1]}',
     "error: config: controller must be an object"),
]


@pytest.mark.parametrize("command, name, data, message",
                         [case[1:] for case in BAD_INPUTS],
                         ids=[case[0] for case in BAD_INPUTS])
def test_bad_input_is_an_error(inputs, tmp_path, command, name, data, message):
    if name.startswith("--"):  # argparse keeps an option's last value
        argv = [*argv_for(inputs, command), name, data]
    else:
        path = tmp_path / name
        path.write_bytes(data)
        argv = argv_for(inputs, command, name, path)
    code, _, err = run_main(*argv)
    assert code == 1
    assert err.startswith(message), err
    assert "Traceback" not in err


def _hand(side, bits, conf=None):
    hand = {"hd": side, "pts": hand_template(PostureArray(bits), Handedness(side)).points.tolist()}
    if conf is not None:
        hand["conf"] = [conf] * 21
    return hand


FIVE, TWO, ONE, FIST = (1, 1, 1, 1, 1), (0, 1, 1, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 0)
# Left hands listed first, hands with and without "conf", a line with no label.
MIXED_CORPUS = [
    {"t": 0, "hands": [_hand("L", FIVE), _hand("R", FIVE, 0.5)], "label": "TimeOut_2H"},
    {"t": 40, "hands": [_hand("R", TWO)], "label": "Two_VRF"},
    {"t": 80, "hands": [_hand("L", ONE, 1)], "label": "One_VRF"},
    {"t": 120, "hands": [_hand("L", TWO, 0.25), _hand("R", FIVE)], "label": "TimeOut_2H"},
    {"t": 160, "hands": [_hand("R", FIST, 0.75)]},
    {"t": 200, "hands": [], "label": "none"},
]
MIXED_REPORT = (
    '{"rows":[{"name":"TimeOut_2H","total_frames":2,"correct_frames":1,"false_frames":1,'
    '"accuracy_pct":50.0,"error_pct":50.0,"recall":0.5},{"name":"Two_VRF","total_frames":1,'
    '"correct_frames":1,"false_frames":0,"accuracy_pct":100.0,"error_pct":0.0,"recall":1.0},'
    '{"name":"One_VRF","total_frames":1,"correct_frames":1,"false_frames":0,"accuracy_pct":100.0,'
    '"error_pct":0.0,"recall":1.0},{"name":"none","total_frames":2,"correct_frames":1,'
    '"false_frames":1,"accuracy_pct":50.0,"error_pct":50.0,"recall":0.5}],"totals":{"name":"total",'
    '"total_frames":6,"correct_frames":4,"false_frames":2,"accuracy_pct":66.66666666666667,'
    '"error_pct":33.33333333333333,"recall":0.6666666666666666},"confusion":{"labels":'
    '["TimeOut_2H","Two_VRF","One_VRF","none"],"columns":["TimeOut_2H","Two_VRF","One_VRF","none",'
    '"Punch_VRF"],"counts":[[1,1,0,0,0],[0,1,0,0,0],[0,0,1,0,0],[0,0,0,1,1]]}}\n'
    "gesture     total  correct  false  accuracy%  error%  recall\n"
    "TimeOut_2H      2        1      1      50.00   50.00    0.50\n"
    "Two_VRF         1        1      0     100.00    0.00    1.00\n"
    "One_VRF         1        1      0     100.00    0.00    1.00\n"
    "none            2        1      1      50.00   50.00    0.50\n"
    "total           6        4      2      66.66   33.33    0.67\n")


def test_eval_reads_hands_in_any_order(inputs, tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in MIXED_CORPUS))
    assert run_main(*argv_for(inputs, "eval", "corpus.jsonl", path)) == (0, MIXED_REPORT, "")


@pytest.mark.parametrize("subjects, message", [
    (("s0", "s1", "s1"), "threshold calibration needs at least two samples of subject 's0'"),
    (("s0",), "threshold calibration needs at least one other subject"),
], ids=["one-sample", "one-subject"])
def test_enroll_calibration_needs_pairs(inputs, tmp_path, subjects, message):
    data, store = tmp_path / "data.jsonl", tmp_path / "store.json"
    data.write_bytes(_features(*subjects))
    code, out, err = run_main("enroll", "--store", store, "--subject", "s0",
                              "--data", data, "--params", inputs / "params.json")
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not store.exists()


@pytest.mark.parametrize("reader, text, error, message", [
    (read_frames, '{"t": 0, "hands": []}\n\n{"t": 0, "hands": []}\n',
     StreamOrderError, "line 3: timestamp 0 does not increase past 0"),
    (load_features, '\n{"subject": "a", "features": ["x"]}\n',
     DataError, "line 2: features must be numeric: could not convert string to float: 'x'"),
    (read_frames, '{"t": 0, "hands": [], "note": "\\u00e9"}\n',
     ValidationError, "line 1: frame: unexpected field 'note'"),
], ids=["order", "features", "escaped-unicode"])
def test_paths_and_line_iterables_read_alike(tmp_path, reader, text, error, message):
    path = tmp_path / "input.jsonl"
    path.write_text(text)
    for source in (path, str(path), text.splitlines(keepends=True)):
        with pytest.raises(error) as info:
            list(reader(source))
        assert str(info.value) == message


# --- fuzzing: each subcommand's valid inputs, mutated one file at a time ---

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.integers() | st.sampled_from([0, 1, -1, 2, 21, 10**400]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def _paths(obj, path=()):
    yield path
    children = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield from _paths(value, path + (key,))


@st.composite
def structural_edit(draw, text, jsonl):
    """Replace or delete one node of one JSON document in ``text``."""
    docs = text.splitlines() if jsonl else [text]
    line = draw(st.integers(0, len(docs) - 1))
    doc = json.loads(docs[line])
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        doc = draw(JSON_VALUES)
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    docs[line] = json.dumps(doc)
    return ("\n".join(docs) + "\n").encode()


@st.composite
def byte_edit(draw, data):
    """Cut up to three bytes at one offset and insert up to three arbitrary ones."""
    at = draw(st.integers(0, len(data)))
    cut = draw(st.integers(0, 3))
    return data[:at] + draw(st.binary(max_size=3)) + data[at + cut:]


FUZZED = {
    "replay": ["frames.jsonl", "config.json", "registry.json"],
    "eval": ["corpus.jsonl", "config.json", "registry.json"],
    "decode": ["preds.jsonl"],
    "keypoints": ["maps.jsonl"],
    "verify": ["store.json", "probe.json", "params.json"],
    "roc": ["data.jsonl", "params.json"],
}


@pytest.mark.parametrize("command", sorted(FUZZED))
@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_inputs_never_traceback(inputs, tmp_path, command, data):
    name = data.draw(st.sampled_from(FUZZED[command]))
    original = (inputs / name).read_bytes()
    if data.draw(st.booleans()):
        mutated = data.draw(structural_edit(original.decode("ascii"), name.endswith(".jsonl")))
    else:
        mutated = data.draw(byte_edit(original))
    path = tmp_path / name
    path.write_bytes(mutated)
    code, _, err = run_main(*argv_for(inputs, command, name, path))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ")


# --- demos ---

@pytest.mark.parametrize("demo", sorted(p.name for p in (REPO / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(REPO / "demos" / demo)],
                            cwd=tmp_path, env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout
