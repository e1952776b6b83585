"""End-to-end command-line flows, run in-process through main()."""

import contextlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from handwave import (
    AnchorConfig,
    LayerSpec,
    PostureArray,
    SynthSpec,
    default_registry,
    encoder_forward,
    euclidean_distance,
    hand_template,
    init_encoder,
    load_features,
    load_store,
    roc_sweep,
    save_features,
    save_params,
    save_registry,
    synth_corpus,
    write_frames,
)
from handwave import _jsonio, cli
from handwave.cli import main
from test_palmauth import eager_roc_points


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def first_json(out):
    return json.loads(out.splitlines()[0])


class TestSynthEval:
    def test_synth_writes_corpus_summary(self, capsys, tmp_path):
        path = tmp_path / "corpus.jsonl"
        code, out, err = run_cli(capsys, "synth", "--out", str(path),
                                 "--frames", "2", "--sigma", "0", "--seed", "1")
        assert code == 0 and err == ""
        summary = first_json(out)
        assert summary == {"frames": 32, "gestures": 16, "path": str(path)}
        lines = path.read_text().splitlines()
        assert len(lines) == 32
        assert all("label" in json.loads(line) for line in lines)

    def test_synth_stdout_stream(self, capsys):
        code, out, _ = run_cli(capsys, "synth", "--frames", "1", "--sigma", "0")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 16
        obj = json.loads(lines[0])
        assert set(obj) == {"t", "hands", "label"}

    def test_clean_synth_evaluates_perfectly(self, capsys, tmp_path):
        path = tmp_path / "corpus.jsonl"
        run_cli(capsys, "synth", "--out", str(path), "--frames", "3", "--sigma", "0")
        code, out, err = run_cli(capsys, "eval", "--corpus", str(path))
        assert code == 0 and err == ""
        obj = first_json(out)
        assert obj["totals"]["accuracy_pct"] == 100.0
        assert "gesture" in out and "total" in out  # table follows the JSON

    def test_eval_report_file(self, capsys, tmp_path):
        corpus = tmp_path / "c.jsonl"
        report = tmp_path / "r.json"
        run_cli(capsys, "synth", "--out", str(corpus), "--frames", "2", "--sigma", "0")
        code, out, _ = run_cli(capsys, "eval", "--corpus", str(corpus),
                               "--out", str(report))
        assert code == 0
        assert json.loads(report.read_text()) == first_json(out)

    def test_eval_events_file(self, capsys, tmp_path):
        corpus = tmp_path / "c.jsonl"
        events = tmp_path / "e.json"
        run_cli(capsys, "synth", "--out", str(corpus), "--frames", "8", "--sigma", "0")
        code, out, _ = run_cli(capsys, "eval", "--corpus", str(corpus), "--events",
                               "--out", str(events))
        assert code == 0
        assert events.read_text() == out  # the one events line stdout gets

    def test_eval_events_flag(self, capsys, tmp_path):
        corpus = tmp_path / "c.jsonl"
        run_cli(capsys, "synth", "--out", str(corpus), "--frames", "8", "--sigma", "0")
        code, out, _ = run_cli(capsys, "eval", "--corpus", str(corpus), "--events")
        assert code == 0
        obj = first_json(out)
        assert obj["totals"]["expected"] == 16
        assert obj["totals"]["detected"] == 16
        assert obj["totals"]["spurious"] == 0

    def test_synth_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "synth", "--frames", "2", "--seed", "42")
        _, second, _ = run_cli(capsys, "synth", "--frames", "2", "--seed", "42")
        assert first == second
        _, third, _ = run_cli(capsys, "synth", "--frames", "2", "--seed", "43")
        assert first != third


class TestDetectCommands:
    def test_decode_scores_and_boxes(self, capsys, tmp_path):
        preds = tmp_path / "preds.jsonl"
        cfg = AnchorConfig(layers=(LayerSpec(1, 1, (0.5,), (1.0,)),))
        record = {"anchors_cfg": cfg.to_obj(), "preds": [[3.0, 0.0, 0.0, 0.0, 0.0]]}
        preds.write_text(json.dumps(record) + "\n")
        code, out, _ = run_cli(capsys, "decode", "--preds", str(preds))
        assert code == 0
        boxes = first_json(out)["boxes"]
        assert len(boxes) == 1
        cx, cy, w, h, score = boxes[0]
        assert (cx, cy, w, h) == (0.5, 0.5, 0.5, 0.5)
        assert score == pytest.approx(1.0 / (1.0 + math.exp(-3.0)))

    def test_far_off_centre_is_kept(self, capsys, tmp_path):
        # BBox allows a centre outside the unit square, so a huge finite
        # offset decodes to a far-off box rather than an error.
        preds = tmp_path / "preds.jsonl"
        cfg = AnchorConfig(layers=(LayerSpec(1, 1, (0.5,), (1.0,)),))
        record = {"anchors_cfg": cfg.to_obj(), "preds": [[1e308, 1e308, 1e308, 0.0, 0.0]]}
        preds.write_text(json.dumps(record) + "\n")
        assert run_cli(capsys, "decode", "--preds", str(preds)) == (
            0, '{"boxes":[[5.0000000000000006e+306,5.0000000000000006e+306,0.5,0.5,1.0]]}\n', "")

    def test_keypoints_emits_frames(self, capsys, tmp_path):
        maps_path = tmp_path / "maps.jsonl"
        maps = np.zeros((21, 4, 4))
        maps[:, 2, 1] = 1.0  # row 2, col 1
        record = {"h": 4, "w": 4, "maps": maps.tolist()}
        maps_path.write_text(json.dumps(record) + "\n")
        code, out, _ = run_cli(capsys, "keypoints", "--maps", str(maps_path))
        assert code == 0
        frame = first_json(out)
        point = frame["hands"][0]["pts"][0]
        assert point == [(1 + 0.5) / 4, (2 + 0.5) / 4]


class TestReplayTrack:
    @staticmethod
    def frames_path(tmp_path, frames_per_gesture=6):
        spec = SynthSpec(
            gestures=(("One", PostureArray.of(0, 1, 0, 0, 0)),),
            frames_per_gesture=frames_per_gesture, jitter_sigma=0.0)
        path = tmp_path / "frames.jsonl"
        write_frames(path, (frame for frame, _ in synth_corpus(spec)))
        return path

    def test_replay_emits_onset(self, capsys, tmp_path):
        path = self.frames_path(tmp_path)
        code, out, _ = run_cli(capsys, "replay", "--frames", str(path))
        assert code == 0
        events = [json.loads(line) for line in out.splitlines()]
        onsets = [e for e in events if e["offset_ms"] is None]
        assert onsets and onsets[0]["name"] == "One_VRF"
        assert onsets[0]["cursor"] is not None

    def test_track_writes_wire_bytes(self, capsys, tmp_path):
        frames = self.frames_path(tmp_path)
        port = tmp_path / "port"
        port.touch()
        code, out, _ = run_cli(capsys, "track", "--frames", str(frames),
                               "--uri", f"serial:{port}")
        assert code == 0
        summary = first_json(out)
        assert summary["frames"] == 6
        data = port.read_bytes()
        # the template hand is off-center, so centering commands must flow
        assert summary["motor_commands"] > 0
        assert data.count(b"\n") == summary["motor_commands"]
        assert all(line.startswith(b"M ") for line in data.splitlines())

    def test_track_device_mapping(self, capsys, tmp_path):
        frames = self.frames_path(tmp_path)
        port = tmp_path / "port"
        mapping = tmp_path / "mapping.json"
        mapping.write_text(
            json.dumps({"One_VRF": {"device": "tv", "action": "POWER"}}))
        code, out, _ = run_cli(capsys, "track", "--frames", str(frames),
                               "--uri", f"serial:{port}", "--mapping", str(mapping))
        assert code == 0
        assert first_json(out)["device_commands"] == 1
        assert b"D tv POWER\n" in port.read_bytes()

    @pytest.mark.parametrize("text, message", [
        ('[{"device": "tv", "action": "POWER"}]', "mapping: expected {gesture: {device, action}}"),
        ('{"One_VRF": {"device": "tv"}}', "mapping: entry 'One_VRF' needs 'device' and 'action'"),
        ('{"One_VRF": {"device": "t v", "action": "POWER"}}',
         "mapping: entry 'One_VRF': device_id must match [A-Za-z0-9_]{1,16}, got 't v'"),
        ('{"One_VRF": {"device": 5, "action": "POWER"}}',
         "mapping: entry 'One_VRF': device_id must match [A-Za-z0-9_]{1,16}, got 5"),
    ], ids=["not-object", "no-action", "device-space", "device-number"])
    def test_track_bad_mapping(self, capsys, tmp_path, text, message):
        frames = self.frames_path(tmp_path)
        port = tmp_path / "port"
        mapping = tmp_path / "mapping.json"
        mapping.write_text(text)
        code, out, err = run_cli(capsys, "track", "--frames", str(frames),
                                 "--uri", f"serial:{port}", "--mapping", str(mapping))
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestFloatRegistryBits:
    """A registry file may spell its posture bits 1.0 and 0.0; they match as 1 and 0."""

    @staticmethod
    def float_registry(tmp_path):
        data = json.loads((tmp_path / "int.json").read_text())
        for entry in data:
            pattern = entry["pattern"]
            for bits in ([pattern["single"]] if "single" in pattern
                         else [pattern["double"]["R"], pattern["double"]["L"]]):
                bits[:] = [float(b) if b else -0.0 for b in bits]
        path = tmp_path / "float.json"
        path.write_text(json.dumps(data))
        assert "1.0" in path.read_text() and "-0.0" in path.read_text()
        return path

    @pytest.mark.parametrize("command", ["eval", "replay", "track"])
    def test_float_bits_give_the_int_registry_output(self, capsys, tmp_path, command):
        registry = default_registry()
        save_registry(tmp_path / "int.json", registry)
        float_path = self.float_registry(tmp_path)
        if command == "eval":
            data = tmp_path / "corpus.jsonl"
            run_cli(capsys, "synth", "--out", str(data), "--frames", "8", "--seed", "3")
            argv = ["eval", "--corpus", str(data)]
        else:
            data = tmp_path / "frames.jsonl"
            spec = SynthSpec.from_registry(registry, frames_per_gesture=8, seed=3)
            write_frames(data, (frame for frame, _ in synth_corpus(spec)))
            argv = [command, "--frames", str(data)]
        outs = []
        for name in ("int.json", "float.json"):
            extra = ["--uri", f"serial:{tmp_path / name}.port"] if command == "track" else []
            code, out, err = run_cli(capsys, *argv, *extra, "--registry", str(tmp_path / name))
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1] and outs[0].strip()
        if command == "track":
            assert (tmp_path / "int.json.port").read_bytes() == \
                (tmp_path / "float.json.port").read_bytes()


class TestPalmCommands:
    @staticmethod
    def dataset_path(tmp_path, seed=0):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-4.0, 4.0, size=(4, 8))
        feats = {f"s{i}": centers[i] + rng.normal(0, 0.05, size=(6, 8))
                 for i in range(4)}
        path = tmp_path / "features.jsonl"
        save_features(path, feats)
        return path

    @staticmethod
    def embedded(data, params):
        features = load_features(data)
        return {s: encoder_forward(params, features[s]) for s in sorted(features)}

    def test_train_enroll_verify_roundtrip(self, capsys, tmp_path):
        data = self.dataset_path(tmp_path)
        params_path = tmp_path / "params.json"
        code, out, _ = run_cli(capsys, "train", "--data", str(data),
                               "--out", str(params_path), "--epochs", "30",
                               "--embed-dim", "4", "--hidden-dim", "8",
                               "--seed", "3")
        assert code == 0
        summary = first_json(out)
        assert summary["epochs"] == 30
        assert params_path.exists()

        store = tmp_path / "store.json"
        code, out, _ = run_cli(capsys, "enroll", "--store", str(store),
                               "--subject", "s0", "--data", str(data),
                               "--params", str(params_path), "--threshold", "0.4")
        assert code == 0
        assert first_json(out)["threshold"] == 0.4

        probe = tmp_path / "probe.json"
        genuine = json.loads(data.read_text().splitlines()[0])
        probe.write_text(json.dumps({"features": genuine["features"]}))
        code, out, _ = run_cli(capsys, "verify", "--store", str(store),
                               "--subject", "s0", "--probe", str(probe),
                               "--params", str(params_path))
        assert code == 0
        decision = first_json(out)
        assert decision["accepted"] is True
        assert decision["distance"] < 1e-9  # probe equals an enrolled sample

    def test_enroll_auto_threshold(self, capsys, tmp_path):
        data = self.dataset_path(tmp_path, seed=5)
        params_path = tmp_path / "params.json"
        params = init_encoder(8, 8, 4, seed=1)
        save_params(params_path, params)
        store = tmp_path / "store.json"
        code, out, _ = run_cli(capsys, "enroll", "--store", str(store),
                               "--subject", "s1", "--data", str(data),
                               "--params", str(params_path))
        assert code == 0
        threshold = first_json(out)["threshold"]
        assert threshold > 0.0
        assert load_store(store)[0][0].threshold == threshold
        # Leave-one-out, one pair at a time.
        embedded = self.embedded(data, params)
        own = embedded.pop("s1")
        genuine = [min(euclidean_distance(a, b) for j, b in enumerate(own) if j != i)
                   for i, a in enumerate(own)]
        impostor = [min(euclidean_distance(row, b) for b in own)
                    for rows in embedded.values() for row in rows]
        assert threshold == roc_sweep(genuine, impostor).eer_threshold

    @staticmethod
    def enroll(capsys, tmp_path, subject, params_path, threshold="0.5"):
        return run_cli(capsys, "enroll", "--store", str(tmp_path / "store.json"),
                       "--subject", subject, "--data", str(tmp_path / "features.jsonl"),
                       "--params", str(params_path), "--threshold", threshold)

    def test_enroll_into_an_existing_store(self, capsys, tmp_path):
        self.dataset_path(tmp_path)
        params_path = tmp_path / "params.json"
        save_params(params_path, init_encoder(8, 8, 4, seed=1))
        for subject, threshold in (("s0", "0.5"), ("s1", "0.6"), ("s2", "0.7"), ("s0", "0.8")):
            assert self.enroll(capsys, tmp_path, subject, params_path, threshold)[0] == 0
        records, normalize, dim = load_store(tmp_path / "store.json")
        # The re-enrolled subject is dropped and appended last.
        assert [(r.subject_id, r.threshold) for r in records] == \
            [("s1", 0.6), ("s2", 0.7), ("s0", 0.8)]
        assert (normalize, dim) == (True, 4)

    @pytest.mark.parametrize("other", [
        {"normalize": False}, {"embed_dim": 3}], ids=["normalize", "dim"])
    def test_enroll_refuses_a_store_of_other_params(self, capsys, tmp_path, other):
        self.dataset_path(tmp_path)
        params_path, other_path = tmp_path / "params.json", tmp_path / "other.json"
        save_params(params_path, init_encoder(8, 8, 4, seed=1))
        save_params(other_path, init_encoder(8, 8, other.get("embed_dim", 4), seed=1,
                                             normalize=other.get("normalize", True)))
        assert self.enroll(capsys, tmp_path, "s0", params_path)[0] == 0
        before = (tmp_path / "store.json").read_bytes()
        assert self.enroll(capsys, tmp_path, "s1", other_path) == (
            1, "", "error: store: existing store disagrees with these encoder params\n")
        assert (tmp_path / "store.json").read_bytes() == before

    @pytest.mark.parametrize("subject, dim, message", [
        ("s0", 3, "store: store disagrees with these encoder params"),
        ("x", 4, "subject 'x' is not enrolled"),
    ], ids=["params", "subject"])
    def test_verify_lookup_errors(self, capsys, tmp_path, subject, dim, message):
        data = self.dataset_path(tmp_path)
        params_path, other_path = tmp_path / "params.json", tmp_path / "other.json"
        save_params(params_path, init_encoder(8, 8, 4, seed=1))
        save_params(other_path, init_encoder(8, 8, dim, seed=1))
        assert self.enroll(capsys, tmp_path, "s0", params_path)[0] == 0
        probe = tmp_path / "probe.json"
        probe.write_text(json.dumps({"features": json.loads(
            data.read_text().splitlines()[0])["features"]}))
        assert run_cli(capsys, "verify", "--store", str(tmp_path / "store.json"),
                       "--subject", subject, "--probe", str(probe),
                       "--params", str(other_path)) == (1, "", f"error: {message}\n")

    def test_roc_summary(self, capsys, tmp_path):
        data = self.dataset_path(tmp_path, seed=7)
        params_path = tmp_path / "params.json"
        params = init_encoder(8, 8, 4, seed=2)
        save_params(params_path, params)
        code, out, _ = run_cli(capsys, "roc", "--data", str(data),
                               "--params", str(params_path), "--points")
        assert code == 0
        obj = first_json(out)
        assert obj["num_genuine"] == 4 * (6 * 5 // 2)
        assert obj["num_impostor"] == 6 * 6 * 6  # subject pairs x samples^2
        assert 0.0 <= obj["eer"] <= 1.0
        assert obj["points"][0][0] == 0.0 and obj["points"][-1][0] == math.inf
        # Every pair of samples, one at a time.
        embedded = list(self.embedded(data, params).values())
        genuine = [euclidean_distance(e[a], e[b]) for e in embedded
                   for a in range(len(e)) for b in range(a + 1, len(e))]
        impostor = [euclidean_distance(a, b) for i, e in enumerate(embedded)
                    for f in embedded[i + 1:] for a in e for b in f]
        sweep = roc_sweep(genuine, impostor)
        # Byte for byte, with the rows written from the oracle's arrays.
        assert out == _jsonio.dumps({
            "eer_threshold": sweep.eer_threshold, "eer": sweep.eer,
            "best_accuracy_threshold": sweep.best_accuracy_threshold,
            "best_accuracy": sweep.best_accuracy,
            "num_genuine": len(genuine), "num_impostor": len(impostor),
            "points": [[float(t), float(far), float(frr)]
                       for t, far, frr in zip(*eager_roc_points(genuine, impostor))]}) + "\n"


class TestOutFiles:
    """--out receives exactly the lines stdout gets without it."""

    @pytest.fixture
    def inputs(self, tmp_path):
        cfg = AnchorConfig(layers=(LayerSpec(2, 2, (0.3,), (1.0, 2.0)),))
        preds = np.random.default_rng(5).normal(0.0, 1.5, (2, 8, 5))
        (tmp_path / "preds.jsonl").write_text("".join(
            json.dumps({"anchors_cfg": cfg.to_obj(), "preds": p.tolist()}) + "\n"
            for p in preds))
        maps = np.random.default_rng(6).random((3, 21, 12))
        (tmp_path / "maps.jsonl").write_text("".join(
            json.dumps({"h": 3, "w": 4, "maps": m.tolist()}) + "\n" for m in maps))
        spec = SynthSpec.from_registry(default_registry(), frames_per_gesture=8)
        write_frames(tmp_path / "frames.jsonl", (frame for frame, _ in synth_corpus(spec)))
        return tmp_path

    ARGV = {
        "synth": ["--frames", "2", "--seed", "4"],
        "decode": ["--preds", "preds.jsonl", "--score-thresh", "0.3"],
        "keypoints": ["--maps", "maps.jsonl"],
        "replay": ["--frames", "frames.jsonl"],
    }

    def argv(self, root, command):
        return [command, *(str(root / a) if a.endswith(".jsonl") else a
                           for a in self.ARGV[command])]

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_out_file_matches_stdout(self, capsys, inputs, command):
        code, stdout, err = run_cli(capsys, *self.argv(inputs, command))
        assert (code, err) == (0, "") and stdout.count("\n") >= 2
        out = inputs / "out.jsonl"
        code, summary, err = run_cli(capsys, *self.argv(inputs, command), "--out", str(out))
        assert (code, err) == (0, "")
        assert out.read_bytes() == stdout.encode("ascii")
        assert summary == ("" if command != "synth" else
                           f'{{"frames":32,"gestures":16,"path":{json.dumps(str(out))}}}\n')

    @pytest.mark.parametrize("command", ["decode", "keypoints", "replay"])
    def test_out_file_created_before_input_is_read(self, capsys, tmp_path, command):
        out = tmp_path / "out.jsonl"
        code, stdout, err = run_cli(capsys, *self.argv(tmp_path, command), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith("error: [Errno 2] No such file or directory")
        assert out.read_bytes() == b""


class TestErrorPaths:
    def test_unknown_subcommand_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 2
        assert "invalid choice" in err

    def test_missing_file_reports_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "eval", "--corpus", str(tmp_path / "nope.jsonl"))
        assert code == 1
        assert err.startswith("error:")

    def test_malformed_corpus_reports_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "a frame"}\n')
        code, _, err = run_cli(capsys, "eval", "--corpus", str(bad))
        assert code == 1
        assert err.startswith("error:")

    def test_bad_corpus_is_opened_and_read_once(self, capsys, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"t": 0, "hands": []}\n' * 2 + '{"t": 1, "hands": []}\n')
        opened, read = [], []
        real = _jsonio._open_text

        @contextlib.contextmanager
        def counting(path):
            opened.append(path)
            with real(path) as fh:
                yield (read.append(line) or line for line in fh)

        monkeypatch.setattr(_jsonio, "_open_text", counting)
        code, out, err = run_cli(capsys, "eval", "--corpus", str(corpus))
        assert (code, out) == (1, "")
        assert err == "error: line 2: timestamp 0 does not increase past 0\n"
        assert opened == [str(corpus)]
        assert len(read) == 2  # up to the line at fault, once

    def test_bad_transport_uri(self, capsys, tmp_path):
        frames = TestReplayTrack.frames_path(tmp_path, frames_per_gesture=1)
        code, _, err = run_cli(capsys, "track", "--frames", str(frames),
                               "--uri", "carrier-pigeon:coop")
        assert code == 1
        assert err.startswith("error:")


class TestParser:
    ARGV = ["eval", "--corpus", "c.jsonl", "--events"]

    def test_one_parser_unchanged_by_a_usage_error(self, capsys):
        parser = cli._parser()
        assert cli._parser() is parser
        first = parser.parse_args(self.ARGV)
        with pytest.raises(SystemExit) as info:
            parser.parse_args(["eval", "--bogus"])
        assert info.value.code == 2
        assert parser.parse_args(self.ARGV) == first
        assert main(["eval"]) == 2
        assert parser.parse_args(self.ARGV) == first

    def test_command_looked_up_when_called(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args.corpus) or 0)
        assert main(self.ARGV) == 0
        assert seen == ["c.jsonl"]


class TestModuleEntry:
    def test_python_dash_m(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "handwave", "synth", "--frames", "1",
             "--sigma", "0"],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0
        assert len(result.stdout.splitlines()) == 16

    @pytest.mark.parametrize("tail, code", [("", 0), ('{"t": 0, "hands": []}\n', 1)],
                             ids=["valid", "bad"])
    def test_eval_reads_a_pipe_as_it_reads_a_file(self, tmp_path, tail, code):
        def run(*argv, text=None):
            result = subprocess.run([sys.executable, "-m", "handwave", *argv], input=text,
                                    capture_output=True, text=True, timeout=60)
            return result.returncode, result.stdout, result.stderr

        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(run("synth", "--frames", "2", "--seed", "1")[1] + tail)
        from_file = run("eval", "--corpus", str(corpus))
        assert from_file[0] == code
        assert run("eval", "--corpus", "/dev/stdin", text=corpus.read_text()) == from_file
        if code:
            assert from_file[2] == "error: line 33: timestamp 0 does not increase past 1240\n"

    def test_usage_on_no_args(self):
        result = subprocess.run(
            [sys.executable, "-m", "handwave"],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 2
        assert "usage" in result.stderr.lower()
