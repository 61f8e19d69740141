"""The unified service-health report: breakers, quarantine, incidents.

One shape, several producers.  A :func:`build_service_report` payload
carries the service's observable health — circuit-breaker snapshots,
the ingest counters with their quarantine reason counts, and the
bounded incident rings — and can be built directly from live components
or *extracted* from a chaos campaign or training forensics bundle that
already embeds the same sections.  The CLI's ``repro service-report``
subcommand renders any source as JSON (through the atomic artifact
layer) or as text.
"""

from __future__ import annotations

import datetime
from typing import Any

from repro.core.artifacts import atomic_write_json

SERVICE_REPORT_FORMAT = "repro-service-report"
SERVICE_REPORT_VERSION = 2


def build_service_report(
    source: str,
    ingest: dict[str, Any],
    breakers: dict[str, dict[str, Any]] | None = None,
    incidents: list[dict[str, Any]] | None = None,
    incident_kinds: dict[str, int] | None = None,
    training: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the unified report payload from its sections."""
    return {
        "format": SERVICE_REPORT_FORMAT,
        "version": SERVICE_REPORT_VERSION,
        "date": datetime.date.today().isoformat(),
        "source": source,
        "ingest": ingest,
        "breakers": breakers or {},
        "incidents": incidents or [],
        "incident_kinds": dict(sorted((incident_kinds or {}).items())),
        "training": training or {},
    }


def _first_run(campaign: dict[str, Any]) -> dict[str, Any] | None:
    runs = campaign.get("runs")
    if isinstance(runs, list) and runs and isinstance(runs[0], dict):
        return runs[0]
    return None


def extract_service_report(payload: dict[str, Any]) -> dict[str, Any]:
    """Pull the unified report out of a chaos campaign or forensics bundle.

    Chaos campaigns carry per-seed run summaries; the report reflects
    the *first* seed's chaos run (the shape is identical across seeds —
    the point is the sections, not the aggregate).  Training forensics
    bundles map their anomalies onto the incident sections.
    """
    if payload.get("format") == TRAIN_FORENSICS_FORMAT_NAME:
        anomalies = payload.get("anomalies") or []
        kinds: dict[str, int] = {}
        for anomaly in anomalies:
            if isinstance(anomaly, dict):
                kind = str(anomaly.get("kind", "?"))
                kinds[kind] = kinds.get(kind, 0) + 1
        return build_service_report(
            source="train-forensics",
            ingest={},
            incidents=list(anomalies),
            incident_kinds=kinds,
            training={
                "aborted": True,
                "reason": payload.get("reason"),
                "seed": payload.get("seed"),
                "level": payload.get("level"),
                "lr_scale": payload.get("lr_scale"),
                "recoveries": payload.get("recoveries") or [],
            },
        )
    run = _first_run(payload)
    if run is None:
        raise ValueError(
            "input is neither a training forensics bundle nor a chaos "
            "campaign report"
        )
    if str(payload.get("profile", "")).startswith("train-"):
        return build_service_report(
            source=f"chaos:{payload['profile']}",
            ingest={},
            incidents=run.get("anomalies") or [],
            incident_kinds=run.get("anomaly_kinds") or {},
            training={
                "profile": payload["profile"],
                "applied_faults": run.get("applied_count", 0),
                "recoveries": run.get("recoveries") or [],
                "aborted": run.get("aborted", False),
                "clean_identical": run.get("clean_identical"),
                "committed_checkpoints": run.get("committed_checkpoints", 0),
            },
        )
    summary = run.get("chaos") or run.get("clean") or {}
    return build_service_report(
        source=f"chaos:{payload.get('profile', '?')}",
        ingest=summary.get("ingest") or {},
        breakers={
            "predictor": summary.get("predictor_breaker") or {},
            "policy": summary.get("policy_breaker") or {},
        },
        incident_kinds=summary.get("service_incident_kinds") or {},
    )


#: The training forensics bundle's ``incidents.json`` format name
#: (``repro.training.loop.FORENSICS_FORMAT``), duplicated here to keep
#: this module import-light.
TRAIN_FORENSICS_FORMAT_NAME = "repro-train-forensics"


def format_service_report(report: dict[str, Any]) -> str:
    """Human-readable rendering of the unified report."""
    lines = [
        f"repro service-report — {report['date']}  (source: {report['source']})"
    ]
    breakers = report.get("breakers") or {}
    for name in sorted(breakers):
        snap = breakers[name]
        if not snap:
            continue
        lines.append(
            f"  breaker {name}: state={snap.get('state', '?')} "
            f"failures={snap.get('failures', 0)} trips={snap.get('trips', 0)}"
        )
    ingest = report.get("ingest") or {}
    if ingest:
        lines.append(
            f"  ingest: accepted={ingest.get('accepted', 0):,} "
            f"shed={ingest.get('shed', 0):,} "
            f"rejected={ingest.get('rejected_total', 0):,}"
        )
        reasons = ingest.get("rejected_by_reason") or {}
        lines.append(
            "  quarantine: "
            + (
                ", ".join(f"{reason}={count}" for reason, count in sorted(reasons.items()))
                or "clean"
            )
        )
    kinds = report.get("incident_kinds") or {}
    if kinds:
        lines.append(
            "  incidents: "
            + ", ".join(f"{kind}={count}" for kind, count in sorted(kinds.items()))
        )
    training = report.get("training") or {}
    if training:
        if "profile" in training:
            lines.append(
                f"  training chaos [{training['profile']}]: "
                f"faults={training.get('applied_faults', 0)} "
                f"recoveries={len(training.get('recoveries') or [])} "
                f"aborted={training.get('aborted', False)} "
                f"clean_identical={training.get('clean_identical')} "
                f"checkpoints={training.get('committed_checkpoints', 0)}"
            )
        else:
            lines.append(
                f"  training forensics: reason={training.get('reason', '?')} "
                f"seed={training.get('seed')} level={training.get('level')} "
                f"lr_scale={training.get('lr_scale')} "
                f"recoveries={len(training.get('recoveries') or [])}"
            )
    return "\n".join(lines)


def write_service_report(report: dict[str, Any], out_path: str) -> None:
    """Persist the unified report atomically."""
    atomic_write_json(out_path, report)
