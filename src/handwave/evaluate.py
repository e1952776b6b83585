"""Frame-level gesture evaluation: accuracy/error/recall rows plus confusion counts.

Every frame is classified independently (no debounce) and compared with its
label. Percentages are exact (accuracy_pct + error_pct == 100); the text table
renders them truncated to two decimals, computed in integer arithmetic so the
display never suffers float drift, while recall is rounded to two decimals.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter
from typing import Iterable

from .errors import DataError
from .gestures import (
    DEFAULT_FINGER_PARAMS,
    FingerStateParams,
    GestureEngine,
    GestureRegistry,
    _classify_frame,
)
from .model import EvalReport, EvalRow, HandFrame

NO_MATCH = "none"
_EVENT_COUNTS = ("expected", "detected", "spurious")


def evaluate(pairs: Iterable[tuple[HandFrame, str]],
             registry: GestureRegistry,
             params: FingerStateParams = DEFAULT_FINGER_PARAMS) -> EvalReport:
    """Score a labelled stream against a registry.

    Rows appear in first-seen label order; the confusion matrix gets one
    column per label plus a trailing "none" column for frames that matched
    nothing. Raises DataError on an empty stream.
    """
    tally = Counter((label, _classify_frame(frame, registry, params) or NO_MATCH)
                    for frame, label in pairs)
    if not tally:
        raise DataError("evaluate: the labelled stream is empty")
    labels = list(dict.fromkeys(label for label, _ in tally))
    columns = [*labels, *sorted({name for _, name in tally} - {*labels, NO_MATCH})]
    if NO_MATCH not in columns:
        columns.append(NO_MATCH)
    matrix = [[tally[label, name] for name in columns] for label in labels]
    correct = [tally[label, label] for label in labels]
    return EvalReport(
        rows=tuple(map(EvalRow.from_counts, labels, map(sum, matrix), correct)),
        totals=EvalRow.from_counts("total", tally.total(), sum(correct)),
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
    lines = [("gesture", "total", "correct", "false", "accuracy%", "error%", "recall")]
    for row in (*report.rows, report.totals):
        lines.append((row.name, str(row.total_frames), str(row.correct_frames),
                      str(row.false_frames), *format_row_cells(row)))
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "\n".join("  ".join([line[0].ljust(widths[0]), *map(str.rjust, line[1:], widths[1:])])
                     for line in lines)


def report_to_obj(report: EvalReport) -> dict:
    """JSON-ready dict: rows as EvalRow's fields (raw counts, exact percentages), the confusion."""
    return {
        "rows": [dataclasses.asdict(row) for row in report.rows],
        "totals": dataclasses.asdict(report.totals),
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
    engine = GestureEngine(registry, params)
    stepped = ((label, engine.step(frame)) for frame, label in pairs)
    per: dict[str, dict[str, int]] = {}
    label = None  # stays None for an empty stream
    for label, run in itertools.groupby(stepped, key=lambda pair: pair[0]):
        onsets = [event.name for _, events in run for event in events if event.is_onset]
        if label != NO_MATCH:  # its row comes before the rows its onsets add
            row = per.setdefault(label, dict.fromkeys(_EVENT_COUNTS, 0))
            row["expected"] += 1
            row["detected"] += label in onsets
        for name in onsets:
            if name != label:
                per.setdefault(name, dict.fromkeys(_EVENT_COUNTS, 0))["spurious"] += 1
    if label is None:
        raise DataError("evaluate: empty stream")
    totals = {key: sum(row[key] for row in per.values()) for key in _EVENT_COUNTS}
    return {"per_gesture": per, "totals": totals}
