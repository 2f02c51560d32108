"""Detection quality metrics: SDR, P_FA, and response time.

A detection matches a ground-truth label when their intervals overlap.
Multiple detections overlapping one seizure count once. SDR is the fraction
of seizures covered by a seizure-classified detection; P_FA is the fraction
of *detected* normal events wrongly classified as seizures; response time is
measured from the labeled seizure onset to the verdict time.
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
    events: list[dict] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    trace_checksum: str = ""


def compute_report(
    detections: list[DetectedEvent],
    labels: list[LabelInterval],
    config_snapshot: dict | None = None,
    trace_checksum: str = "",
) -> RunReport:
    """Join detections with ground truth and compute SDR / P_FA / RT.

    Pure function of (detections, labels): re-running it on an events file
    read back from disk reproduces the report exactly.
    """
    seizure_labels = [l for l in labels if l.is_seizure]
    normal_labels = [l for l in labels if not l.is_seizure]

    def dets_overlapping(label: LabelInterval) -> list[DetectedEvent]:
        return [
            d for d in detections
            if _overlaps(d.start_s, d.end_s, label.start_s, label.end_s)
        ]

    rt_list: list[float] = []
    n_detected_seizures = 0
    for label in seizure_labels:
        verdicts = [
            d for d in dets_overlapping(label)
            if d.event_class is EventClass.SEIZURE and d.decision_time_s is not None
        ]
        if verdicts:
            n_detected_seizures += 1
            rt_list.append(min(d.decision_time_s for d in verdicts) - label.start_s)

    def det_hits_seizure(det: DetectedEvent) -> bool:
        return any(
            _overlaps(det.start_s, det.end_s, l.start_s, l.end_s)
            for l in seizure_labels
        )

    n_normals_detected = 0
    n_false_alarms = 0
    for label in normal_labels:
        dets = dets_overlapping(label)
        if not dets:
            continue
        n_normals_detected += 1
        if any(
            d.event_class is EventClass.SEIZURE and not det_hits_seizure(d)
            for d in dets
        ):
            n_false_alarms += 1

    sdr = 100.0 * n_detected_seizures / len(seizure_labels) if seizure_labels else None
    p_fa = n_false_alarms / n_normals_detected if n_normals_detected else None
    mrt = sum(rt_list) / len(rt_list) if rt_list else None

    event_rows = []
    for d in detections:
        matched = [
            l for l in labels if _overlaps(d.start_s, d.end_s, l.start_s, l.end_s)
        ]
        event_rows.append(
            {
                "start_s": d.start_s,
                "end_s": d.end_s,
                "class": d.event_class.value,
                "b_pe_hz": d.b_pe_hz,
                "decision_time_s": d.decision_time_s,
                "matched_labels": [
                    {"start_s": l.start_s, "end_s": l.end_s,
                     "kind": l.kind.value, "person_id": l.person_id}
                    for l in matched
                ],
            }
        )

    return RunReport(
        sdr_pct=sdr,
        p_fa=p_fa,
        rt_list_s=rt_list,
        mrt_s=mrt,
        n_seizures=len(seizure_labels),
        n_seizures_detected=n_detected_seizures,
        n_normal_events=len(normal_labels),
        n_normals_detected=n_normals_detected,
        n_false_alarms=n_false_alarms,
        events=event_rows,
        config=config_snapshot or {},
        trace_checksum=trace_checksum,
    )


def combine_reports(reports: list[RunReport]) -> RunReport:
    """Aggregate per-trace reports into corpus-level metrics (exact counts)."""
    n_sz = sum(r.n_seizures for r in reports)
    n_sz_det = sum(r.n_seizures_detected for r in reports)
    n_nm = sum(r.n_normal_events for r in reports)
    n_nm_det = sum(r.n_normals_detected for r in reports)
    n_fa = sum(r.n_false_alarms for r in reports)
    rt = [t for r in reports for t in r.rt_list_s]
    return RunReport(
        sdr_pct=100.0 * n_sz_det / n_sz if n_sz else None,
        p_fa=n_fa / n_nm_det if n_nm_det else None,
        rt_list_s=rt,
        mrt_s=sum(rt) / len(rt) if rt else None,
        n_seizures=n_sz,
        n_seizures_detected=n_sz_det,
        n_normal_events=n_nm,
        n_normals_detected=n_nm_det,
        n_false_alarms=n_fa,
    )
