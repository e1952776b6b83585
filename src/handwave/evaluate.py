"""Frame-level gesture evaluation: accuracy/error/recall rows plus confusion counts.

Every frame is classified independently (no debounce) and compared with its
label. Percentages are exact (accuracy_pct + error_pct == 100); the text table
renders them truncated to two decimals, computed in integer arithmetic so the
display never suffers float drift, while recall is rounded to two decimals.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import DataError
from .gestures import DEFAULT_FINGER_PARAMS, FingerStateParams, GestureRegistry, _classify_frame
from .model import EvalReport, EvalRow, HandFrame

NO_MATCH = "none"


def evaluate(pairs: Iterable[tuple[HandFrame, str]],
             registry: GestureRegistry,
             params: FingerStateParams = DEFAULT_FINGER_PARAMS) -> EvalReport:
    """Score a labelled stream against a registry.

    Rows appear in first-seen label order; the confusion matrix gets one
    column per label plus a trailing "none" column for frames that matched
    nothing. Raises DataError on an empty stream.
    """
    labels: list[str] = []
    confusion: dict[str, dict[str, int]] = {}
    predicted_names: set[str] = set()
    total = 0
    for frame, label in pairs:
        predicted = _classify_frame(frame, registry, params)
        predicted = NO_MATCH if predicted is None else predicted
        if label not in confusion:
            labels.append(label)
            confusion[label] = {}
        row = confusion[label]
        row[predicted] = row.get(predicted, 0) + 1
        predicted_names.add(predicted)
        total += 1
    if total == 0:
        raise DataError("evaluate: the labelled stream is empty")

    columns = list(labels)
    for name in sorted(predicted_names):
        if name not in columns and name != NO_MATCH:
            columns.append(name)
    if NO_MATCH not in columns:
        columns.append(NO_MATCH)

    matrix = np.zeros((len(labels), len(columns)), dtype=np.int64)
    col_index = {name: i for i, name in enumerate(columns)}
    rows = []
    correct_total = 0
    for r, label in enumerate(labels):
        counts = confusion[label]
        for predicted, count in counts.items():
            matrix[r, col_index[predicted]] = count
        label_total = sum(counts.values())
        label_correct = counts.get(label, 0)
        correct_total += label_correct
        rows.append(EvalRow.from_counts(label, label_total, label_correct))

    return EvalReport(
        rows=tuple(rows),
        totals=EvalRow.from_counts("total", total, correct_total),
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
