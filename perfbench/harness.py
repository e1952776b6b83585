"""Closed-loop runner shared by the four workloads.

One process runs one workload. Set-up (import ``handwave``, generate and write
the inputs, warm up) is repeated ``SETUPS`` times, so that work moved into
set-up shows: once in this process before the timed phase, and the others
each in a process of its own, started and awaited between rounds spread over
the run. The timed phase repeats whole rounds of a fixed amount of work until
the run's seconds are spent; one caller drives the program in process and
waits for each operation before sending the next. Every round's outputs are checked
against the workload's own reference after the round's clock has stopped.

Each time metric is taken per round (the round's wall time, and the median
and 90th percentile of its operations' latencies) and the run reports the
90th percentile over its rounds; ``setup_s`` is the upper quartile of the
set-ups. The machine alternates between a fast and a slow state, each CPU on
its own, for stretches of 5 to 30 seconds or more. A median over a run reads
whichever share of the run happened to be fast; a high percentile over its
rounds reads the slow state, which nearly every run meets, and so repeats
from run to run.

With tracing on, rounds alternate between untraced and traced. A traced round
wraps the public functions named in ``TRACE_POINTS`` from outside the program
and sums each one's self time (its duration minus that of traced calls made
inside it); whatever no traced call covers is the benchmark's own self time.
"""

from __future__ import annotations

import gc
import importlib
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import GeneratorType, SimpleNamespace

SETUPS = 5
MIN_ROUNDS = 4  # untraced rounds
# Percentiles over a run's samples that its time metrics report (see above).
ROUND_Q, SETUP_Q = 90, 75

# (module, attribute, metric prefix). A dotted attribute names a method on a
# class. A generator a traced function returns is drained inside its span, so
# that the span holds the work and not just the generator's creation.
TRACE_POINTS = (
    ("streams", "parse_frame", "streams.parse_frame"),
    ("streams", "validate_frame", "streams.validate_frame"),
    ("streams", "serialize_frame", "streams.serialize_frame"),
    ("streams", "write_labelled", "streams.write_labelled"),
    ("streams", "read_labelled", "streams.read_labelled"),
    ("gestures", "focal_point", "gestures.focal_point"),
    ("gestures", "GestureEngine.step", "gestures.step"),
    ("control", "centering_step", "control.centering_step"),
    ("control", "encode_wire", "control.encode_wire"),
    ("control", "map_gesture", "control.map_gesture"),
    ("control", "Transport.send", "control.send"),
    ("detect", "read_predictions", "detect.read_predictions"),
    ("detect", "decode_record", "detect.decode_record"),
    ("detect", "generate_anchors", "detect.generate_anchors"),
    ("detect", "nms", "detect.nms"),
    ("detect", "read_confidence_maps", "detect.read_confidence_maps"),
    ("detect", "decode_keypoints", "detect.decode_keypoints"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "cmd_synth", "cli.synth"),
    ("cli", "cmd_eval", "cli.eval"),
    ("cli", "cmd_train", "cli.train"),
    ("cli", "cmd_enroll", "cli.enroll"),
    ("cli", "cmd_roc", "cli.roc"),
    ("palmauth", "train", "palmauth.train"),
    ("palmauth", "roc_sweep", "palmauth.roc_sweep"),
    ("palmauth", "load_store", "palmauth.load_store"),
    ("palmauth", "verify", "palmauth.verify"),
    ("synth", "synth_corpus", "synth.synth_corpus"),
    # cli calls these through names it bound at import.
    ("cli", "evaluate_pairs", "evaluate.evaluate"),
    ("cli", "format_report_table", "evaluate.format_report_table"),
)

# Counts every workload reports (0 where it never touches the layer). They
# come from one round and must repeat exactly in every round and run.
COUNTS = (
    "streams.frames", "streams.hands", "gestures.onsets", "gestures.offsets",
    "control.motor_commands", "control.device_commands", "control.bytes_sent",
    "detect.candidates", "detect.kept", "palmauth.genuine_pairs",
    "palmauth.impostor_pairs", "palmauth.accepted", "evaluate.frames",
    "evaluate.misclassified",
)

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("op_p50_us", "us"),
              ("op_p90_us", "us"), ("peak_rss_mb", "MB"))


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = [("handwave.import_s", "s"), ("setup.peak_rss_mb", "MB")]
    names += [(prefix + "_s", "s") for _, _, prefix in TRACE_POINTS]
    names += [("bench.self_s", "s"), ("trace.run_s", "s"), ("trace.overhead_s", "s")]
    names += [(name, "count") for name in COUNTS]
    names.append(("detect.kept_per_candidate", "ratio"))
    return names


def import_handwave() -> SimpleNamespace:
    """Import ``handwave`` afresh and return its modules by short name."""
    for name in [m for m in sys.modules if m == "handwave" or m.startswith("handwave.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    import handwave  # noqa: F401  (the package import is what is timed)
    from handwave import cli, control, detect, gestures, palmauth, streams, synth
    return SimpleNamespace(handwave=handwave, cli=cli, control=control, detect=detect,
                           gestures=gestures, palmauth=palmauth, streams=streams,
                           synth=synth)


class Tracer:
    """Self time per traced function, summed over traced rounds."""

    def __init__(self, hw: SimpleNamespace):
        self.hw = hw
        self.self_s: dict[str, float] = {}
        self._stack = [0.0]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, GeneratorType):
                    result = iter(list(result))
                return result
            finally:
                spent = clock() - start
                inner = stack.pop()
                self.self_s[name] = self.self_s.get(name, 0.0) + spent - inner
                stack[-1] += spent

        return traced

    def install(self) -> None:
        self._stack[:] = [0.0]
        for module, attr, prefix in TRACE_POINTS:
            owner = getattr(self.hw, module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(prefix, original))

    def uninstall(self) -> float:
        """Restore every wrapped function; returns the time traced calls covered."""
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()
        return self._stack[0]


@dataclass
class RoundResult:
    """What one round hands to its workload's check."""

    outputs: object
    latencies: list[float] = field(default_factory=list)  # seconds per operation
    failed: int = 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile of at least two values, interpolated (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def time_setup(make, tmp: Path, seed: int, tiny: bool):
    """One set-up: import ``handwave`` afresh, make the inputs, warm up.

    Returns the workload with its set-up and import times in seconds.
    """
    gc.collect()
    start = time.perf_counter()
    hw = import_handwave()
    imported = time.perf_counter()
    workload = make(hw, tmp, seed, tiny)
    workload.setup()
    return hw, workload, time.perf_counter() - start, imported - start


def run_workload(make, tmp: Path, seed: int, seconds: float, trace: bool,
                 setup_elsewhere, tiny: bool = False, log=None) -> dict:
    """Set up, run and check one workload; returns the result object to print.

    ``make`` builds a fresh workload object from the modules of a fresh import.
    ``setup_elsewhere()`` times one more set-up in a separate process and
    returns its set-up and import times, so that neither its memory nor its
    inputs stay in this process and ``peak_rss_mb`` is the first set-up's and
    the rounds'.
    """
    hw, workload, setup_s, import_s = time_setup(make, tmp, seed, tiny)
    setups, imports = [setup_s], [import_s]
    workload.prepare_reference()
    setup_rss = peak_rss_mb()

    def set_up_again():
        setup_s, import_s = setup_elsewhere()
        setups.append(setup_s)
        imports.append(import_s)

    problems: list[str] = []
    plain_times, traced_times, op_p50, op_p90 = [], [], [], []
    attempted = failed = rounds = 0
    counts = None
    tracer = Tracer(hw) if trace else None
    min_rounds = 2 * MIN_ROUNDS if trace else MIN_ROUNDS
    began = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() < began + seconds:
        traced = trace and rounds % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        start = time.perf_counter()
        result = workload.round()
        spent = time.perf_counter() - start
        if traced:
            covered = tracer.uninstall()
            tracer.self_s["bench.self"] = tracer.self_s.get("bench.self", 0.0) + spent - covered
            traced_times.append(spent)
        else:
            plain_times.append(spent)
            op_p50.append(percentile(result.latencies, 50))
            op_p90.append(percentile(result.latencies, 90))
        attempted += len(result.latencies)
        failed += result.failed
        found = workload.check(result.outputs)
        problems.extend(f"round {rounds}: {p}" for p in found)
        round_counts = workload.counts(result.outputs)
        if counts is None:
            counts = round_counts
        elif round_counts != counts:
            problems.append(f"round {rounds}: counts changed from {counts} to {round_counts}")
        rounds += 1
        # The other set-ups are spread over the run, to meet more than one
        # machine state.
        if len(setups) < SETUPS and time.perf_counter() - began >= seconds * len(setups) / SETUPS:
            set_up_again()
    while len(setups) < SETUPS:
        set_up_again()

    if log is not None:
        for p in problems[:20]:
            print(f"check failed: {p}", file=log)
        print(f"rounds={rounds} ops={attempted} failed={failed} peak_rss_mb: "
              f"{setup_rss:.3f} after set-up, {peak_rss_mb():.3f} at the end", file=log)

    if trace:
        n = len(traced_times)
        values = {"handwave.import_s": percentile(imports, SETUP_Q),
                  "setup.peak_rss_mb": setup_rss}
        for _, _, prefix in TRACE_POINTS:
            values[prefix + "_s"] = tracer.self_s.get(prefix, 0.0) / n
        values["bench.self_s"] = tracer.self_s["bench.self"] / n
        values["trace.run_s"] = sum(traced_times) / n
        values["trace.overhead_s"] = (percentile(traced_times, ROUND_Q)
                                      - percentile(plain_times, ROUND_Q))
        for name in COUNTS:
            values[name] = counts.get(name, 0)
        candidates = counts.get("detect.candidates", 0)
        values["detect.kept_per_candidate"] = (
            counts.get("detect.kept", 0) / candidates if candidates else 0.0)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}
    else:
        values = {
            "setup_s": percentile(setups, SETUP_Q),
            "run_s": percentile(plain_times, ROUND_Q),
            "op_p50_us": percentile(op_p50, ROUND_Q) * 1e6,
            "op_p90_us": percentile(op_p90, ROUND_Q) * 1e6,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}
