"""Resilient online dispatch service.

The production-shaped shell around the simulation engine: validated
ingest with quarantine and backpressure (:mod:`repro.service.ingest`),
circuit breakers with degraded fallbacks for the predictor and the RL
policy (:mod:`repro.service.guards`, :mod:`repro.service.breaker`),
per-tick deadline slices on a deterministic clock
(:mod:`repro.service.deadline`), the service loop that wires it all
(:mod:`repro.service.loop`) and the chaos harness that proves both the
zero-fault bit-equivalence and the under-fault invariants
(:mod:`repro.service.chaos`), and the unified service-health report
(:mod:`repro.service.report`).
"""

from repro.service.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    BreakerConfig,
    BreakerTransition,
    CircuitBreaker,
)
from repro.service.chaos import ChaosConfig, ChaosHarness, SeedVerdict
from repro.service.deadline import DeadlineBudget, ManualClock
from repro.service.guards import GuardedPredictor, ResilientDispatcher
from repro.service.ingest import (
    IngestGuard,
    ValidatedPositionFeed,
    make_record_corrupter,
)
from repro.service.loop import DispatchService, ServiceConfig, ServiceReport
from repro.service.records import (
    ALL_REASONS,
    GpsRecord,
    IngestSchema,
    QuarantinedRecord,
)
from repro.service.report import (
    build_service_report,
    extract_service_report,
    format_service_report,
    write_service_report,
)

__all__ = [
    "ALL_REASONS",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "BreakerConfig",
    "BreakerTransition",
    "ChaosConfig",
    "ChaosHarness",
    "CircuitBreaker",
    "DeadlineBudget",
    "DispatchService",
    "GpsRecord",
    "GuardedPredictor",
    "IngestGuard",
    "IngestSchema",
    "ManualClock",
    "QuarantinedRecord",
    "ResilientDispatcher",
    "SeedVerdict",
    "ServiceConfig",
    "ServiceReport",
    "ValidatedPositionFeed",
    "build_service_report",
    "extract_service_report",
    "format_service_report",
    "make_record_corrupter",
    "write_service_report",
]
