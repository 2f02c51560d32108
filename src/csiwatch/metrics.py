"""Detection quality metrics: SDR, P_FA, and response time.

A detection matches a ground-truth label when their intervals overlap.
Multiple detections overlapping one seizure count once. SDR is the fraction
of seizures covered by a seizure-classified detection; P_FA is the fraction
of *detected* normal events wrongly classified as seizures; response time is
measured from the labeled seizure onset to the verdict time. A seizure
verdict that overlaps no label at all is none of these; it is counted as
unmatched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .csi_sim import LabelInterval
from .detector import DetectedEvent, EventClass

__all__ = ["RunReport", "compute_report", "combine_reports"]


def _overlaps(a0: float, a1: float, b0: float, b1: float) -> bool:
    return min(a1, b1) - max(a0, b0) > 0.0


@dataclass
class RunReport:
    """Metrics of one pipeline run joined with ground truth.

    sdr_pct / p_fa / mrt_s are None when their denominators are empty
    (e.g. a breathing-only trace has no seizures and no detected normal
    events). The raw counts allow exact aggregation across traces.
    n_unmatched_seizure_verdicts counts the seizure-classified detections
    that overlap no label. calibration holds the run's calibration health
    where the caller gives it.
    """

    sdr_pct: float | None
    p_fa: float | None
    rt_list_s: list[float]
    mrt_s: float | None
    n_seizures: int
    n_seizures_detected: int
    n_normal_events: int
    n_normals_detected: int
    n_false_alarms: int
    n_unmatched_seizure_verdicts: int
    events: list[dict] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    calibration: dict = field(default_factory=dict)
    trace_checksum: str = ""


def compute_report(
    detections: list[DetectedEvent],
    labels: list[LabelInterval],
    config_snapshot: dict | None = None,
    trace_checksum: str = "",
    calibration: dict | None = None,
) -> RunReport:
    """Join detections with ground truth and compute SDR / P_FA / RT.

    Each detection is matched to the labels it overlaps once; every count
    and event row reads those matches. Pure function of (detections,
    labels): re-running it on an events file read back from disk
    reproduces the report exactly.
    """
    matches = [
        [i for i, l in enumerate(labels) if _overlaps(d.start_s, d.end_s, l.start_s, l.end_s)]
        for d in detections
    ]
    verdict_times: dict[int, list[float]] = {}  # seizure label -> its verdict times
    detected: set[int] = set()
    false_alarms: set[int] = set()
    n_unmatched = 0
    for d, matched in zip(detections, matches):
        detected.update(matched)
        if d.event_class is not EventClass.SEIZURE:
            continue
        seizures = [i for i in matched if labels[i].is_seizure]
        if not matched:
            n_unmatched += 1
        elif not seizures:
            false_alarms.update(matched)
        elif d.decision_time_s is not None:
            for i in seizures:
                verdict_times.setdefault(i, []).append(d.decision_time_s)

    seizure_ids = [i for i, l in enumerate(labels) if l.is_seizure]
    event_rows = [
        {
            "start_s": d.start_s,
            "end_s": d.end_s,
            "class": d.event_class.value,
            "b_pe_hz": d.b_pe_hz,
            "decision_time_s": d.decision_time_s,
            "matched_labels": [
                {"start_s": labels[i].start_s, "end_s": labels[i].end_s,
                 "kind": labels[i].kind.value, "person_id": labels[i].person_id}
                for i in matched
            ],
        }
        for d, matched in zip(detections, matches)
    ]
    return _scored(
        n_seizures=len(seizure_ids),
        n_seizures_detected=len(verdict_times),
        n_normal_events=len(labels) - len(seizure_ids),
        n_normals_detected=sum(not labels[i].is_seizure for i in detected),
        n_false_alarms=len(false_alarms),
        n_unmatched_seizure_verdicts=n_unmatched,
        rt_list_s=[
            min(verdict_times[i]) - labels[i].start_s for i in seizure_ids if i in verdict_times
        ],
        events=event_rows,
        config=config_snapshot or {},
        trace_checksum=trace_checksum,
        calibration=calibration or {},
    )


_COUNTS = ("n_seizures", "n_seizures_detected", "n_normal_events", "n_normals_detected",
           "n_false_alarms", "n_unmatched_seizure_verdicts")


def combine_reports(reports: list[RunReport]) -> RunReport:
    """Aggregate per-trace reports into corpus-level metrics (exact counts)."""
    return _scored(
        **{name: sum(getattr(r, name) for r in reports) for name in _COUNTS},
        rt_list_s=[t for r in reports for t in r.rt_list_s],
    )


def _scored(rt_list_s: list[float], **fields) -> RunReport:
    """The RunReport of these counts and response times. SDR, P_FA and MRT
    are computed here, and are None where their denominator is zero."""
    n_sz, n_nm_det = fields["n_seizures"], fields["n_normals_detected"]
    return RunReport(
        sdr_pct=100.0 * fields["n_seizures_detected"] / n_sz if n_sz else None,
        p_fa=fields["n_false_alarms"] / n_nm_det if n_nm_det else None,
        rt_list_s=rt_list_s,
        mrt_s=sum(rt_list_s) / len(rt_list_s) if rt_list_s else None,
        **fields,
    )
