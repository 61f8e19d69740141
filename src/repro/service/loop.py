"""The resilient dispatch service: guards wired around the engine loop.

:class:`DispatchService` does not reimplement the tick loop — the
simulation engine *is* the service loop (one dispatch cycle per 5-minute
period); the service contributes the armour around it:

* the dispatcher's position feed is routed through the ingest guard
  (validation, quarantine, backpressure) — see
  :mod:`repro.service.ingest`;
* the SVM predictor gets a circuit breaker with last-known-good
  fallback, the RL policy gets one with a nearest-team heuristic
  fallback — see :mod:`repro.service.guards`;
* each stage is timed against its slice of the per-tick deadline budget
  on a deterministic clock — see :mod:`repro.service.deadline`;
* every degradation lands in a bounded service incident log, and the
  engine's ``on_cycle`` heartbeat proves no tick was ever skipped.

With zero faults every layer passes through untouched, so a guarded run
is bit-identical to a plain engine run — the golden-equivalence tests
hold the service to exactly that.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.data.charlotte import CharlotteScenario
from repro.dispatch.base import Dispatcher
from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service.deadline import DeadlineBudget, ManualClock
from repro.service.guards import GuardedPredictor, ResilientDispatcher
from repro.service.ingest import (
    IngestGuard,
    RecordCorrupter,
    ValidatedPositionFeed,
    make_record_corrupter,
)
from repro.service.records import IngestSchema
from repro.sim.engine import (
    IncidentEvent,
    SimulationConfig,
    SimulationResult,
)
from repro.sim.kernel import EventKernelSimulator
from repro.sim.requests import RescueRequest

if TYPE_CHECKING:
    from repro.faults.models import ComponentFaultInjector, FaultInjector

logger = logging.getLogger("repro.service.loop")


@dataclass(frozen=True)
class ServiceConfig:
    """Resilience parameters: deadline slices, breakers, ingest bounds."""

    deadline: DeadlineBudget = field(default_factory=DeadlineBudget)
    predictor_breaker: BreakerConfig = field(default_factory=BreakerConfig)
    policy_breaker: BreakerConfig = field(default_factory=BreakerConfig)
    max_queue: int = 50_000
    max_quarantine: int = 2_000
    max_tracked_persons: int = 100_000
    future_slack_s: float = 1.0
    #: Capacity of the service incident ring (separate from the engine's).
    max_incidents: int = 10_000

    def __post_init__(self) -> None:
        if self.max_queue < 1 or self.max_quarantine < 1:
            raise ValueError("ingest bounds must be positive")
        if self.max_tracked_persons < 1:
            raise ValueError("per-person tracking bound must be positive")
        if self.future_slack_s < 0:
            raise ValueError("future slack must be non-negative")
        if self.max_incidents < 1:
            raise ValueError("incident ring needs capacity for at least one event")


@dataclass
class ServiceReport:
    """Everything a run of the dispatch service produced."""

    result: SimulationResult
    ticks_expected: int
    ticks_completed: int
    #: Service-level degradations (breaker trips, fallback serves,
    #: quarantine storms); the engine's own incidents live in ``result``.
    incidents: deque[IncidentEvent]
    incidents_dropped: int
    predictor_breaker: dict[str, object]
    policy_breaker: dict[str, object]
    ingest: dict[str, object]
    policy_fallback_cycles: int
    predictor_fallback_serves: int

    @property
    def all_ticks_completed(self) -> bool:
        return self.ticks_completed == self.ticks_expected

    def summary(self) -> dict[str, object]:
        """JSON-ready digest for chaos reports and CI artifacts."""
        return {
            "dispatcher": self.result.dispatcher_name,
            "served": self.result.num_served,
            "requests": len(self.result.requests),
            "ticks_expected": self.ticks_expected,
            "ticks_completed": self.ticks_completed,
            "engine_incidents": len(self.result.incidents),
            "engine_incidents_dropped": self.result.incidents_dropped,
            "service_incidents": len(self.incidents),
            "service_incidents_dropped": self.incidents_dropped,
            "service_incident_kinds": self._incident_kinds(),
            "predictor_breaker": self.predictor_breaker,
            "policy_breaker": self.policy_breaker,
            "ingest": self.ingest,
            "policy_fallback_cycles": self.policy_fallback_cycles,
            "predictor_fallback_serves": self.predictor_fallback_serves,
        }

    def _incident_kinds(self) -> dict[str, int]:
        kinds: dict[str, int] = {}
        for event in self.incidents:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        return dict(sorted(kinds.items()))


class DispatchService:
    """One resilient online run of a dispatcher over an evaluation window.

    Wires the ingest guard, both circuit breakers and the deadline budget
    around ``dispatcher``, then drives the engine.  The dispatcher's
    ``predictor`` / ``positions_fn`` / ``incident_sink`` attributes (when
    present — the MobiRescue dispatcher has all three) are **replaced in
    place** with their guarded wrappers; treat the dispatcher as owned by
    the service for the duration of the run.

    ``component_faults`` composes the chaos layer: predictor exceptions,
    policy latency spikes (advancing the deterministic ``clock``), and
    corrupt-record storms ahead of the ingest guard.
    """

    def __init__(
        self,
        scenario: CharlotteScenario,
        requests: list[RescueRequest],
        dispatcher: Dispatcher,
        config: SimulationConfig,
        service: ServiceConfig | None = None,
        faults: "FaultInjector | None" = None,
        component_faults: "ComponentFaultInjector | None" = None,
        clock: ManualClock | None = None,
        known_persons: frozenset[int] | None = None,
    ) -> None:
        self.scenario = scenario
        self.requests = requests
        self.config = config
        self.service = service or ServiceConfig()
        self.clock = clock if clock is not None else ManualClock()
        self.component_faults = (
            component_faults
            if component_faults is not None and not component_faults.is_null
            else None
        )
        svc = self.service
        self.incidents: deque[IncidentEvent] = deque(maxlen=svc.max_incidents)
        self.incidents_dropped = 0
        self.ticks_completed = 0

        self.predictor_breaker = CircuitBreaker("predictor", svc.predictor_breaker)
        self.policy_breaker = CircuitBreaker("policy", svc.policy_breaker)

        # -- stage 1: ingest guard around the position feed ----------------
        part = scenario.partition
        schema = IngestSchema(
            width_m=part.width_m,
            height_m=part.height_m,
            known_persons=known_persons,
            known_nodes=frozenset(scenario.network.landmark_ids()),
            future_slack_s=svc.future_slack_s,
        )
        self.ingest_guard = IngestGuard(
            schema,
            max_queue=svc.max_queue,
            max_quarantine=svc.max_quarantine,
            max_tracked_persons=svc.max_tracked_persons,
        )
        corrupter: RecordCorrupter | None = None
        if self.component_faults is not None:
            corrupter = make_record_corrupter(self.component_faults)
        self.validated_feed: ValidatedPositionFeed | None = None
        inner_positions = getattr(dispatcher, "positions_fn", None)
        if inner_positions is not None:
            self.validated_feed = ValidatedPositionFeed(
                inner_positions,
                self.ingest_guard,
                scenario.network,
                clock=self.clock,
                deadline_slice_s=svc.deadline.ingest_slice_s,
                incident_sink=self.record_incident,
                corrupter=corrupter,
            )
            dispatcher.positions_fn = self.validated_feed  # type: ignore[attr-defined]

        # -- stage 2: predictor breaker ------------------------------------
        self.guarded_predictor: GuardedPredictor | None = None
        inner_predictor = getattr(dispatcher, "predictor", None)
        if inner_predictor is not None:
            fault_hook = None
            if self.component_faults is not None:
                injector = self.component_faults
                fault_hook = lambda t: injector.predictor_fails(int(t))  # noqa: E731
            self.guarded_predictor = GuardedPredictor(
                inner_predictor,
                self.predictor_breaker,
                self.clock,
                deadline_slice_s=svc.deadline.predict_slice_s,
                incident_sink=self.record_incident,
                fault_hook=fault_hook,
            )
            dispatcher.predictor = self.guarded_predictor  # type: ignore[attr-defined]
        if hasattr(dispatcher, "incident_sink"):
            dispatcher.incident_sink = (  # type: ignore[attr-defined]
                lambda detail, t: self.record_incident(
                    "prediction_degraded", detail, t
                )
            )

        # -- stage 3: policy breaker + heuristic fallback ------------------
        latency_hook = None
        if self.component_faults is not None:
            injector = self.component_faults
            latency_hook = lambda t: injector.policy_spike_s(int(t))  # noqa: E731
        self.resilient_dispatcher = ResilientDispatcher(
            dispatcher,
            self.policy_breaker,
            self.clock,
            deadline_slice_s=svc.deadline.dispatch_slice_s,
            incident_sink=self.record_incident,
            latency_hook=latency_hook,
        )

        self._sim = EventKernelSimulator(
            scenario,
            requests,
            self.resilient_dispatcher,
            config,
            faults=faults,
            on_cycle=self._on_cycle,
        )

    # -- observability -----------------------------------------------------

    def record_incident(self, kind: str, detail: str, t_s: float) -> None:
        """Bounded service incident log (the breaker/guard sink)."""
        ring = self.incidents
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self.incidents_dropped += 1
        ring.append(IncidentEvent(kind=kind, t_s=t_s, team_id=None, detail=detail))
        logger.info("service incident %s t=%.0f (%s)", kind, t_s, detail)

    def _on_cycle(self, cycle_index: int, t_s: float, ran: bool) -> None:
        self.ticks_completed += 1

    def expected_ticks(self) -> int:
        """Dispatch cycles the engine will execute over the window."""
        cfg = self.config
        ticks = 0
        t = cfg.t0_s
        next_dispatch = cfg.t0_s
        while t <= cfg.t1_s:
            if t >= next_dispatch:
                ticks += 1
                next_dispatch += cfg.dispatch_period_s
            t += cfg.step_s
        return ticks

    # -- running -----------------------------------------------------------

    def run(self) -> ServiceReport:
        result = self._sim.run()
        report = ServiceReport(
            result=result,
            ticks_expected=self.expected_ticks(),
            ticks_completed=self.ticks_completed,
            incidents=self.incidents,
            incidents_dropped=self.incidents_dropped,
            predictor_breaker=self.predictor_breaker.snapshot(),
            policy_breaker=self.policy_breaker.snapshot(),
            ingest=self.ingest_guard.stats(),
            policy_fallback_cycles=self.resilient_dispatcher.fallback_cycles,
            predictor_fallback_serves=(
                self.guarded_predictor.fallback_serves
                if self.guarded_predictor is not None
                else 0
            ),
        )
        logger.info(
            "service run complete: %d/%d ticks, %d service incidents, "
            "%d policy fallbacks",
            report.ticks_completed,
            report.ticks_expected,
            len(report.incidents),
            report.policy_fallback_cycles,
        )
        return report
