"""Frame-level gesture evaluation: accuracy/error/recall rows plus confusion counts.

Every frame is classified independently (no debounce) and compared with its
label. Percentages are exact (accuracy_pct + error_pct == 100); the text table
renders them truncated to two decimals, computed in integer arithmetic so the
display never suffers float drift, while recall is rounded to two decimals.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np

from .errors import DataError
from .gestures import (
    DEFAULT_FINGER_PARAMS,
    FingerStateParams,
    GestureRegistry,
    _classify_frame,
    _classify_hands,
)
from .model import EvalReport, EvalRow, HandFrame
from .streams import labelled_arrays

NO_MATCH = "none"


def evaluate(pairs: Iterable[tuple[HandFrame, str]],
             registry: GestureRegistry,
             params: FingerStateParams = DEFAULT_FINGER_PARAMS) -> EvalReport:
    """Score a labelled stream against a registry.

    Rows appear in first-seen label order; the confusion matrix gets one
    column per label plus a trailing "none" column for frames that matched
    nothing. Raises DataError on an empty stream.
    """
    tally = _Tally()
    for frame, label in pairs:
        tally.add(label, _classify_frame(frame, registry, params))
    return tally.report()


def evaluate_corpus(source: Iterable[str] | str | os.PathLike, registry: GestureRegistry,
                    params: FingerStateParams = DEFAULT_FINGER_PARAMS) -> EvalReport:
    """evaluate(read_labelled(source), registry, params), read once and scored as arrays."""
    tally = _Tally()
    for chunk in labelled_arrays(source):
        names = _classify_hands(chunk.points, chunk.frame_of, chunk.side, len(chunk.labels),
                                registry, params)
        for label, name in zip(chunk.labels, names):
            tally.add(label, name)
    return tally.report()


class _Tally:
    """Each frame's label and predicted name, as indices in first-seen order."""

    def __init__(self) -> None:
        self.labels: dict[str, int] = {}
        self.names: dict[str, int] = {}
        self.label_ids: list[int] = []
        self.name_ids: list[int] = []

    def add(self, label: str, name: str | None) -> None:
        """Count one frame; ``name`` is None when it matched nothing."""
        self.label_ids.append(self.labels.setdefault(label, len(self.labels)))
        self.name_ids.append(self.names.setdefault(name or NO_MATCH, len(self.names)))

    def report(self) -> EvalReport:
        if not self.label_ids:
            raise DataError("evaluate: the labelled stream is empty")
        labels, names = list(self.labels), list(self.names)
        counts = np.bincount(np.array(self.label_ids) * len(names) + self.name_ids,
                             minlength=len(labels) * len(names)).reshape(len(labels), len(names))
        columns = labels + sorted(set(names) - {*labels, NO_MATCH})
        if NO_MATCH not in columns:
            columns.append(NO_MATCH)

        col_index = {name: i for i, name in enumerate(columns)}
        matrix = np.zeros((len(labels), len(columns)), dtype=np.int64)
        matrix[:, [col_index[name] for name in names]] = counts
        totals = counts.sum(axis=1).tolist()
        correct = [int(matrix[r, col_index[label]]) for r, label in enumerate(labels)]
        return EvalReport(
            rows=tuple(map(EvalRow.from_counts, labels, totals, correct)),
            totals=EvalRow.from_counts("total", len(self.label_ids), sum(correct)),
            labels=tuple(labels),
            columns=tuple(columns),
            confusion=matrix,
        )


def pct_floor(numerator: int, denominator: int) -> str:
    """numerator/denominator as a percentage, truncated to two decimals.

    Integer arithmetic throughout: floor(10000 * n / d) scaled back, so e.g.
    714/750 -> "95.20" and 4112/32560 -> "12.62" exactly.
    """
    if denominator <= 0:
        raise DataError("pct_floor: denominator must be positive")
    scaled = (10000 * numerator) // denominator
    return f"{scaled // 100}.{scaled % 100:02d}"


def format_row_cells(row: EvalRow) -> tuple[str, str, str]:
    """(accuracy, error, recall) display strings for one row."""
    accuracy = pct_floor(row.correct_frames, row.total_frames)
    error = pct_floor(row.false_frames, row.total_frames)
    recall = f"{row.recall:.2f}"
    return accuracy, error, recall


def format_report_table(report: EvalReport) -> str:
    """The report as an aligned text table (rows, then the totals line)."""
    header = ("gesture", "total", "correct", "false", "accuracy%", "error%", "recall")
    body = []
    for row in (*report.rows, report.totals):
        accuracy, error, recall = format_row_cells(row)
        body.append((row.name, str(row.total_frames), str(row.correct_frames),
                     str(row.false_frames), accuracy, error, recall))
    widths = [max(len(header[i]), *(len(line[i]) for line in body)) for i in range(len(header))]
    lines = ["  ".join(header[i].ljust(widths[i]) if i == 0 else header[i].rjust(widths[i])
                       for i in range(len(header)))]
    for line in body:
        lines.append("  ".join(line[i].ljust(widths[i]) if i == 0 else line[i].rjust(widths[i])
                               for i in range(len(header))))
    return "\n".join(lines)


def report_to_obj(report: EvalReport) -> dict:
    """JSON-ready dict: raw counts and exact percentages plus the confusion matrix."""
    def row_obj(row: EvalRow) -> dict:
        return {
            "name": row.name,
            "total_frames": row.total_frames,
            "correct_frames": row.correct_frames,
            "false_frames": row.false_frames,
            "accuracy_pct": row.accuracy_pct,
            "error_pct": row.error_pct,
            "recall": row.recall,
        }

    return {
        "rows": [row_obj(row) for row in report.rows],
        "totals": row_obj(report.totals),
        "confusion": {
            "labels": list(report.labels),
            "columns": list(report.columns),
            "counts": report.confusion.tolist(),
        },
    }


def evaluate_events(pairs: Iterable[tuple[HandFrame, str]],
                    registry: GestureRegistry,
                    params: FingerStateParams = DEFAULT_FINGER_PARAMS) -> dict:
    """Event-level tally: one debounced onset expected per labelled run.

    A "run" is a maximal span of consecutive frames sharing a non-"none"
    label. The run counts as detected when at least one onset of its own
    gesture fires inside it; onsets firing under any other label are tallied
    as spurious. This is the debounced view of the corpus — the frame-level
    `evaluate` remains the headline metric.
    """
    from .gestures import GestureEngine

    engine = GestureEngine(registry, params)
    per: dict[str, dict[str, int]] = {}
    current_label = None
    detected_this_run = False
    count = 0
    for frame, label in pairs:
        count += 1
        if label != current_label:
            if current_label not in (None, NO_MATCH):
                per[current_label]["expected"] += 1
                per[current_label]["detected"] += int(detected_this_run)
            current_label = label
            detected_this_run = False
            if label != NO_MATCH and label not in per:
                per[label] = {"expected": 0, "detected": 0, "spurious": 0}
        for event in engine.step(frame):
            if not event.is_onset:
                continue
            if event.name == label:
                detected_this_run = True
            else:
                per.setdefault(event.name, {"expected": 0, "detected": 0, "spurious": 0})
                per[event.name]["spurious"] += 1
    if count == 0:
        raise DataError("evaluate: empty stream")
    if current_label not in (None, NO_MATCH):
        per[current_label]["expected"] += 1
        per[current_label]["detected"] += int(detected_this_run)
    totals = {
        "expected": sum(v["expected"] for v in per.values()),
        "detected": sum(v["detected"] for v in per.values()),
        "spurious": sum(v["spurious"] for v in per.values()),
    }
    return {"per_gesture": per, "totals": totals}
