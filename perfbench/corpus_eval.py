"""corpus-eval: ``handwave synth --out`` on a fresh corpus, then ``eval`` on it.

One operation is one job: synthesize a labelled corpus of the 16 stock
gestures and score it, both through ``cli.main`` in process with stdout
captured. A round is 32 jobs of 80 frames each, cycling through a ladder of
jitter levels from clean to noisy enough to misclassify, each with its own
seed. This is the only workload that writes frame JSONL as well as reading
it, and the only one that runs ``synth`` and ``evaluate``.

A traced round also goes through ``cli.main``. ``cli`` binds ``evaluate`` and
``format_report_table`` under its own names at import, so the tracer wraps
those bindings to split each job by layer.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import common
import refs
from harness import RoundResult

FRAMES_PER_GESTURE = 5
SIGMAS = (0.0, 0.01, 0.02, 0.03, 0.05, 0.07, 0.09, 0.12)
JOBS, TINY_JOBS = 32, 2  # jobs per round, cycling through SIGMAS


class Workload:
    name = "corpus-eval"

    def __init__(self, hw, tmp, seed: int, tiny: bool):
        self.hw, self.tmp, self.seed = hw, tmp, seed
        self.registry = refs.load_registry(common.REGISTRY_JSON)
        self.frames = FRAMES_PER_GESTURE
        self.jobs = [(SIGMAS[k % len(SIGMAS)], seed * 1000 + k, tmp / f"corpus-{k}.jsonl")
                     for k in range(TINY_JOBS if tiny else JOBS)]

    def _cli(self, *argv: str) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.hw.cli.main(list(argv))
        return code, out.getvalue()

    def _job(self, sigma: float, seed: int, path) -> tuple[str, str] | None:
        """synth then eval; None when either exits non-zero."""
        code, synth_out = self._cli("synth", "--out", str(path), "--frames", str(self.frames),
                                    "--sigma", repr(sigma), "--seed", str(seed))
        if code != 0:
            return None
        code, eval_out = self._cli("eval", "--corpus", str(path))
        return (synth_out, eval_out) if code == 0 else None

    def setup(self) -> None:
        sigma, seed, path = self.jobs[-1]
        self._job(sigma, seed, path)  # warm-up

    def prepare_reference(self) -> None:
        pass  # the reference reads each round's written corpus

    def round(self) -> RoundResult:
        clock = time.perf_counter
        latencies, outputs = [], []
        for sigma, seed, path in self.jobs:
            start = clock()
            outputs.append(self._job(sigma, seed, path))
            latencies.append(clock() - start)
        return RoundResult(outputs=outputs, latencies=latencies,
                           failed=sum(out is None for out in outputs))

    def _reference(self, path) -> tuple[dict, list[str]]:
        """Confusion counts {(label, predicted): n} and label order from the written file."""
        confusion, labels = {}, []
        with open(path, encoding="ascii") as fh:
            for line in fh:
                obj = json.loads(line)
                hands = {h["hd"]: refs.posture(h["pts"]) for h in obj["hands"]}
                predicted = refs.classify(hands, self.registry) or "none"
                label = obj["label"]
                if label not in labels:
                    labels.append(label)
                confusion[label, predicted] = confusion.get((label, predicted), 0) + 1
        return confusion, labels

    def check(self, outputs) -> list[str]:
        problems = []
        for (sigma, seed, path), output in zip(self.jobs, outputs):
            job = f"sigma={sigma} seed={seed}"
            if output is None:
                continue  # counted as a failed operation
            synth_out, eval_out = output
            synth_obj = json.loads(synth_out)
            want_frames = self.frames * len(self.registry)
            if (synth_obj["frames"], synth_obj["gestures"]) != (want_frames, len(self.registry)):
                problems.append(f"{job}: synth reported {synth_obj}")
            confusion, labels = self._reference(path)
            report_line, *table = eval_out.splitlines()
            report = json.loads(report_line)
            matrix = report["confusion"]
            got = {(label, col): n
                   for label, row in zip(matrix["labels"], matrix["counts"])
                   for col, n in zip(matrix["columns"], row) if n}
            if got != confusion or matrix["labels"] != labels:
                problems.append(f"{job}: confusion counts differ from the reference")
            rows = [(label, sum(n for (l, _), n in confusion.items() if l == label),
                     confusion.get((label, label), 0)) for label in labels]
            total, correct = sum(r[1] for r in rows), sum(r[2] for r in rows)
            want_table = [[name, str(t), str(c), str(t - c), refs.pct_truncated(c, t),
                           refs.pct_truncated(t - c, t), refs.recall_cell(c, t)]
                          for name, t, c in rows + [("total", total, correct)]]
            if [line.split() for line in table[1:]] != want_table:
                problems.append(f"{job}: table cells differ from the reference")
        return problems

    def counts(self, outputs) -> dict:
        frames = wrong = 0
        for _, eval_out in filter(None, outputs):
            totals = json.loads(eval_out.splitlines()[0])["totals"]
            frames += totals["total_frames"]
            wrong += totals["false_frames"]
        return {"evaluate.frames": frames, "evaluate.misclassified": wrong}
