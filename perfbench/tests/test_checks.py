"""Each workload's output check passes on real outputs and fails on corrupted ones."""

import json

import pytest

import camera_frames
import corpus_eval
import harness
import landmark_stream
import palm_auth


@pytest.fixture(scope="module")
def hw():
    return harness.import_handwave()


def run_round(module, hw, tmp_path):
    workload = module.Workload(hw, tmp_path, 3, True)
    workload.setup()
    workload.prepare_reference()
    result = workload.round()
    assert workload.check(result.outputs) == []
    return workload, result.outputs


def test_landmark_stream_flipped_wire_byte(hw, tmp_path):
    workload, (sink, events) = run_round(landmark_stream, hw, tmp_path)
    flipped = bytearray(sink)
    flipped[len(sink) // 2] ^= 0x01
    assert workload.check((bytes(flipped), events))


def test_landmark_stream_missing_offset(hw, tmp_path):
    workload, (sink, events) = run_round(landmark_stream, hw, tmp_path)
    dropped = [e for e in events if e.offset_ms is None] + [e for e in events if e.offset_ms][1:]
    assert workload.check((sink, dropped))


def test_camera_frames_dropped_box(hw, tmp_path):
    workload, (kept, *rest) = run_round(camera_frames, hw, tmp_path)
    i = next(i for i, boxes in enumerate(kept) if boxes)
    kept = list(kept)
    kept[i] = kept[i][:-1]
    assert workload.check((kept, *rest))


def test_camera_frames_moved_keypoint_in_log(hw, tmp_path):
    workload, (kept, frames, log_text, sink, events) = run_round(camera_frames, hw, tmp_path)
    lines = log_text.splitlines()
    i = next(i for i, line in enumerate(lines) if json.loads(line)["hands"])
    obj = json.loads(lines[i])
    obj["hands"][0]["pts"][8][1] += 1e-6
    lines[i] = json.dumps(obj)
    assert workload.check((kept, frames, "\n".join(lines), sink, events))


def test_camera_frames_flipped_wire_byte(hw, tmp_path):
    workload, (kept, frames, log_text, sink, events) = run_round(camera_frames, hw, tmp_path)
    assert workload.check((kept, frames, log_text, sink[:-1] + b"?", events))


def test_palm_auth_nudged_threshold(hw, tmp_path):
    workload, outputs = run_round(palm_auth, hw, tmp_path)
    store = json.loads(workload.paths["store"].read_text("ascii"))
    store["records"][0]["threshold"] += 1e-6
    workload.paths["store"].write_text(json.dumps(store), encoding="ascii")
    assert any("threshold" in p for p in workload.check(outputs))


def test_palm_auth_wrong_pair_count_and_eer(hw, tmp_path):
    workload, (train, roc, decisions) = run_round(palm_auth, hw, tmp_path)
    assert workload.check((train, dict(roc, num_impostor=roc["num_impostor"] - 1), decisions))
    assert workload.check((train, dict(roc, eer_threshold=roc["eer_threshold"] * 1.001),
                           decisions))


def test_palm_auth_flipped_decision(hw, tmp_path):
    workload, (train, roc, decisions) = run_round(palm_auth, hw, tmp_path)
    name, j, decision = decisions[0]
    flipped = type(decision)(accepted=not decision.accepted, distance=decision.distance,
                             subject_id=decision.subject_id)
    assert workload.check((train, roc, [(name, j, flipped)] + decisions[1:]))


def test_corpus_eval_changed_confusion_count(hw, tmp_path):
    workload, outputs = run_round(corpus_eval, hw, tmp_path)
    synth_out, eval_out = outputs[0]
    report_line, rest = eval_out.split("\n", 1)
    report = json.loads(report_line)
    counts = report["confusion"]["counts"]
    counts[0][0] -= 1
    counts[0][-1] += 1
    changed = json.dumps(report) + "\n" + rest
    assert workload.check([(synth_out, changed)] + outputs[1:])


def test_corpus_eval_changed_table_cell(hw, tmp_path):
    workload, outputs = run_round(corpus_eval, hw, tmp_path)
    synth_out, eval_out = outputs[-1]
    lines = eval_out.splitlines()
    cells = lines[-1].split()
    cells[4] = "99.99" if cells[4] != "99.99" else "99.98"
    lines[-1] = "  ".join(cells)
    assert workload.check(outputs[:-1] + [(synth_out, "\n".join(lines) + "\n")])
