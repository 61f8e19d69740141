"""The sharded dispatch service: isolation and failover over the loop.

:class:`ShardedDispatchService` is the PR 5 :class:`DispatchService`
with the single ingest guard swapped for a
:class:`~repro.service.sharding.router.ShardedIngestGuard` and a
:class:`~repro.service.sharding.supervisor.ShardSupervisor` riding the
engine's ``on_cycle`` heartbeat.  Everything else — breakers, deadline
budget, incident ring, the engine itself — is inherited unchanged, and
with zero shard faults the sharded run is **bit-identical** to the
unsharded service run (the shard chaos harness asserts exactly that).

The supervisor is only consulted on ticks where the snapshot actually
drained (``router.last_snapshot_t_s`` equals the tick time): a tick the
policy breaker served from its fallback never touched the feed, so
silent shards on such a tick are not evidence of death.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.data.charlotte import CharlotteScenario
from repro.dispatch.base import Dispatcher
from repro.service.loop import DispatchService, ServiceConfig, ServiceReport
from repro.service.sharding.partition import GridKeyspace
from repro.service.sharding.router import ShardedIngestGuard
from repro.service.sharding.supervisor import ShardSupervisor, SupervisorConfig
from repro.sim.engine import SimulationConfig
from repro.sim.requests import RescueRequest

if TYPE_CHECKING:
    from repro.faults.models import (
        ComponentFaultInjector,
        FaultInjector,
        ShardFaultInjector,
    )
    from repro.service.deadline import ManualClock


@dataclass(frozen=True)
class ShardingConfig:
    """Topology parameters: keyspace grid, shard count, supervision."""

    num_shards: int = 4
    cells_x: int = 8
    cells_y: int = 8
    #: Per-shard queue bound; ``None`` divides the service-level
    #: ``max_queue`` evenly so total capacity matches the unsharded run.
    shard_max_queue: int | None = None
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("need at least one shard")
        if self.cells_x < 1 or self.cells_y < 1:
            raise ValueError("keyspace needs at least one cell per axis")
        if self.shard_max_queue is not None and self.shard_max_queue < 1:
            raise ValueError("per-shard queue bound must be positive")

    def max_queue_per_shard(self, service_max_queue: int) -> int:
        if self.shard_max_queue is not None:
            return self.shard_max_queue
        return max(1, service_max_queue // self.num_shards)


@dataclass
class ShardedServiceReport(ServiceReport):
    """The service report plus the supervisor's failover digest."""

    supervisor: dict[str, object] = field(default_factory=dict)

    def summary(self) -> dict[str, object]:
        payload = super().summary()
        payload["supervisor"] = self.supervisor
        return payload


class ShardedDispatchService(DispatchService):
    """A :class:`DispatchService` whose ingest layer is N isolated shards."""

    def __init__(
        self,
        scenario: CharlotteScenario,
        requests: list[RescueRequest],
        dispatcher: Dispatcher,
        config: SimulationConfig,
        service: ServiceConfig | None = None,
        sharding: ShardingConfig | None = None,
        faults: "FaultInjector | None" = None,
        component_faults: "ComponentFaultInjector | None" = None,
        shard_faults: "ShardFaultInjector | None" = None,
        clock: "ManualClock | None" = None,
        known_persons: frozenset[int] | None = None,
    ) -> None:
        super().__init__(
            scenario,
            requests,
            dispatcher,
            config,
            service=service,
            faults=faults,
            component_faults=component_faults,
            clock=clock,
            known_persons=known_persons,
        )
        self.sharding = sharding or ShardingConfig()
        shr = self.sharding
        svc = self.service
        self.shard_faults = (
            shard_faults
            if shard_faults is not None and not shard_faults.is_null
            else None
        )
        keyspace = GridKeyspace(
            scenario.partition.width_m,
            scenario.partition.height_m,
            cells_x=shr.cells_x,
            cells_y=shr.cells_y,
        )
        fault_hook = None
        if self.shard_faults is not None:
            fault_hook = self._shard_fault_hook
        self.sharded_guard = ShardedIngestGuard(
            schema=self.ingest_guard.schema,
            keyspace=keyspace,
            num_shards=shr.num_shards,
            shard_max_queue=shr.max_queue_per_shard(svc.max_queue),
            max_quarantine=svc.max_quarantine,
            max_tracked_persons=svc.max_tracked_persons,
            fault_hook=fault_hook,
        )
        # The sharded guard *is* the service's ingest guard from here on:
        # the validated feed routes through it and the report reads its
        # aggregated stats through the same surface.
        self.ingest_guard = self.sharded_guard  # type: ignore[assignment]
        if self.validated_feed is not None:
            self.validated_feed.guard = self.sharded_guard  # type: ignore[assignment]
        self.supervisor = ShardSupervisor(
            self.sharded_guard,
            config=shr.supervisor,
            incident_sink=self.record_incident,
        )

    # -- shard fault plumbing ----------------------------------------------

    def _shard_fault_hook(self, t_s: float) -> None:
        """Apply the injector's window state to every shard at ``t``.

        Pure function of simulated time: kill transitions fire exactly
        at window edges, stall/skew levels follow their windows.  Runs
        at most once per distinct timestamp (the router memoises).
        """
        injector = self.shard_faults
        if injector is None:
            return
        for shard in self.sharded_guard.shards:
            killed = injector.killed(shard.shard_id, t_s)
            if killed and shard.alive:
                lost = shard.kill()
                self.record_incident(
                    "shard_killed",
                    f"shard {shard.shard_id} process died "
                    f"({lost} queued records lost)",
                    t_s,
                )
            elif not killed and not shard.alive:
                shard.revive()
                self.record_incident(
                    "shard_revived", f"shard {shard.shard_id} process is back", t_s
                )
            shard.stall_s = injector.stall_s(shard.shard_id, t_s)
            shard.capacity_divisor = injector.capacity_divisor(shard.shard_id, t_s)

    # -- supervision on the heartbeat --------------------------------------

    def _on_cycle(self, cycle_index: int, t_s: float, ran: bool) -> None:
        super()._on_cycle(cycle_index, t_s, ran)
        if self.sharded_guard.last_snapshot_t_s == t_s:
            self.supervisor.on_tick(cycle_index, t_s)

    # -- running -----------------------------------------------------------

    def run(self) -> ShardedServiceReport:
        base = super().run()
        return ShardedServiceReport(
            result=base.result,
            ticks_expected=base.ticks_expected,
            ticks_completed=base.ticks_completed,
            incidents=base.incidents,
            incidents_dropped=base.incidents_dropped,
            predictor_breaker=base.predictor_breaker,
            policy_breaker=base.policy_breaker,
            ingest=base.ingest,
            policy_fallback_cycles=base.policy_fallback_cycles,
            predictor_fallback_serves=base.predictor_fallback_serves,
            supervisor=self.supervisor.summary(),
        )
