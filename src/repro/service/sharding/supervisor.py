"""The shard supervisor: heartbeat watch, failover, rebalance.

:class:`ShardSupervisor` runs once per completed dispatch tick (wired to
the engine's ``on_cycle`` hook) and judges each shard by the heartbeat it
stamped — or failed to stamp — when the tick's snapshot drained:

* **dead** — no beat this tick.  After ``miss_threshold`` consecutive
  misses the shard's keyspace fails over to its nearest alive neighbour
  (the dead queue died with the process; nothing to transfer).
* **stalled** — beating, but ``stall_tolerance_s`` late, for
  ``stall_threshold`` consecutive ticks.  The shard is still reachable,
  so failover *transfers* its queue to the neighbour before moving the
  keyspace.
* **recovered** — a failed shard that beats again is probed; after a
  clean probe its home cells are restored (rebalance).  Probing is
  bounded: past ``max_probe_retries`` failed probes the shard is
  **abandoned** and its keyspace stays with the neighbour for good.

When no neighbour is alive the keyspace is left on the failed shard and
declared *degraded*: its positions simply stop arriving, and the
dispatch layer's own fallbacks (habitual positions, the nearest-team
heuristic) carry those regions.  Either way the supervisor only ever
*moves ownership between snapshots* — it never ticks the engine, so no
failover can cause an uncommanded dispatch cycle.

Everything lands in a bounded incident ring with exact cycle counts, and
:class:`FailoverEvent.uncovered_cycles` is the gate the chaos harness
checks against the failover budget.
"""

from __future__ import annotations

import logging
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.service.sharding.router import ShardedIngestGuard

logger = logging.getLogger("repro.service.sharding")

STATUS_ACTIVE = "active"
STATUS_FAILED = "failed"
STATUS_ABANDONED = "abandoned"


@dataclass(frozen=True)
class SupervisorConfig:
    """Detection thresholds, probe bounds, and the failover budget."""

    #: Consecutive missed heartbeats before a shard is declared dead.
    miss_threshold: int = 1
    #: Beat lateness tolerated before a beat counts as stalled.
    stall_tolerance_s: float = 5.0
    #: Consecutive stalled beats before the shard is failed over.
    stall_threshold: int = 3
    #: Recovery probes attempted before a failed shard is abandoned.
    max_probe_retries: int = 8
    #: Max cycles a failed shard's keyspace may go uncovered; failovers
    #: exceeding it are reported as budget violations by the harness.
    failover_budget_cycles: int = 3
    #: Capacity of the supervisor's incident ring.
    max_incidents: int = 1_000

    def __post_init__(self) -> None:
        if self.miss_threshold < 1 or self.stall_threshold < 1:
            raise ValueError("detection thresholds must be at least one cycle")
        if self.stall_tolerance_s < 0:
            raise ValueError("stall tolerance must be non-negative")
        if self.max_probe_retries < 1:
            raise ValueError("need at least one recovery probe")
        if self.failover_budget_cycles < 1:
            raise ValueError("failover budget must allow at least one cycle")
        if self.max_incidents < 1:
            raise ValueError("incident ring needs capacity")


@dataclass(frozen=True)
class ShardingConfig:
    """Ingest topology: keyspace grid, shard count, supervision.

    The default is one shard owning the whole keyspace, which ingests
    exactly as a single :class:`~repro.service.ingest.IngestGuard`.
    """

    num_shards: int = 1
    cells_x: int = 8
    cells_y: int = 8
    #: Per-shard queue bound; ``None`` divides the service-level
    #: ``max_queue`` evenly so total capacity matches the one-shard run.
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


@dataclass(frozen=True)
class FailoverEvent:
    """One keyspace move (or degradation), with its coverage gap."""

    t_s: float
    from_shard: int
    #: Receiving shard, or ``None`` when no neighbour was alive and the
    #: keyspace was left degraded in place.
    to_shard: int | None
    reason: str
    cells: tuple[int, ...]
    #: Ticks the keyspace went unserved between the first missed/stalled
    #: beat and this event taking effect.
    uncovered_cycles: int
    transferred_records: int = 0


@dataclass(frozen=True)
class RebalanceEvent:
    """Home cells returned to a recovered shard."""

    t_s: float
    shard: int
    cells: tuple[int, ...]
    probes_used: int


@dataclass
class _ShardWatch:
    """Supervisor-side state for one shard."""

    status: str = STATUS_ACTIVE
    missed_beats: int = 0
    stalled_beats: int = 0
    probes: int = 0
    failovers: int = 0


class ShardSupervisor:
    """Watches heartbeats; commands failover and rebalance moves."""

    def __init__(
        self,
        router: ShardedIngestGuard,
        config: SupervisorConfig | None = None,
        incident_sink: Callable[[str, str, float], None] | None = None,
    ) -> None:
        self.router = router
        self.config = config or SupervisorConfig()
        self._incident_sink = incident_sink
        self.watch = {shard.shard_id: _ShardWatch() for shard in router.shards}
        self.failovers: list[FailoverEvent] = []
        self.rebalances: list[RebalanceEvent] = []
        self.incidents: deque[dict[str, object]] = deque(
            maxlen=self.config.max_incidents
        )
        self.incidents_dropped = 0
        self.ticks_supervised = 0

    # -- incident plumbing -------------------------------------------------

    def _record(self, kind: str, detail: str, t_s: float) -> None:
        ring = self.incidents
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self.incidents_dropped += 1
        ring.append({"kind": kind, "t_s": t_s, "detail": detail})
        if self._incident_sink is not None:
            self._incident_sink(kind, detail, t_s)

    # -- the per-tick judgement --------------------------------------------

    def on_tick(self, cycle_index: int, t_s: float) -> None:
        """Judge every shard's heartbeat for the tick that just drained.

        Call only for ticks where the snapshot actually ran (the sharded
        service checks ``router.last_snapshot_t_s``) — a tick served by
        the policy fallback without touching the feed says nothing about
        shard health.
        """
        self.ticks_supervised += 1
        for shard in self.router.shards:
            watch = self.watch[shard.shard_id]
            if watch.status == STATUS_ABANDONED:
                continue
            if watch.status == STATUS_FAILED:
                self._probe(shard.shard_id, t_s)
                continue
            if shard.last_beat_t_s != t_s:
                watch.stalled_beats = 0
                watch.missed_beats += 1
                if watch.missed_beats >= self.config.miss_threshold:
                    self._fail_over(shard.shard_id, t_s, reason="dead")
                continue
            if shard.last_beat_delay_s > self.config.stall_tolerance_s:
                watch.missed_beats = 0
                watch.stalled_beats += 1
                if watch.stalled_beats >= self.config.stall_threshold:
                    self._fail_over(shard.shard_id, t_s, reason="stalled")
                continue
            watch.missed_beats = 0
            watch.stalled_beats = 0

    # -- failover ----------------------------------------------------------

    def _fail_over(self, shard_id: int, t_s: float, reason: str) -> None:
        router = self.router
        watch = self.watch[shard_id]
        shard = router.shards[shard_id]
        uncovered = watch.missed_beats if reason == "dead" else 0
        target_id = router.assignment.neighbor_of(shard_id, router.alive_shards())
        cells = router.assignment.cells_of(shard_id)
        transferred = 0
        if target_id is None:
            # No alive neighbour: leave ownership in place, degraded.
            # The dispatch layer's fallbacks carry these regions until a
            # neighbour (or this shard) comes back.
            self._record(
                "shard_degraded",
                f"shard {shard_id} {reason} with no alive neighbour; "
                f"{len(cells)} cells degraded to fallback dispatch",
                t_s,
            )
            event_to: int | None = None
        else:
            if reason == "stalled" and shard.alive:
                transferred = shard.transfer_queue_to(router.shards[target_id])
            router.assignment.reassign(shard_id, target_id)
            self._record(
                "shard_failover",
                f"shard {shard_id} {reason}; {len(cells)} cells -> shard "
                f"{target_id} after {uncovered} uncovered cycle(s), "
                f"{transferred} queued records transferred",
                t_s,
            )
            event_to = target_id
        watch.status = STATUS_FAILED
        watch.failovers += 1
        watch.missed_beats = 0
        watch.stalled_beats = 0
        watch.probes = 0
        self.failovers.append(
            FailoverEvent(
                t_s=t_s,
                from_shard=shard_id,
                to_shard=event_to,
                reason=reason,
                cells=cells,
                uncovered_cycles=uncovered,
                transferred_records=transferred,
            )
        )
        logger.info(
            "failover: shard %d (%s) -> %s at t=%.0f", shard_id, reason, event_to, t_s
        )

    # -- recovery ----------------------------------------------------------

    def _probe(self, shard_id: int, t_s: float) -> None:
        watch = self.watch[shard_id]
        shard = self.router.shards[shard_id]
        watch.probes += 1
        healthy = (
            shard.alive
            and shard.last_beat_t_s == t_s
            and shard.last_beat_delay_s <= self.config.stall_tolerance_s
        )
        if healthy:
            cells = self.router.assignment.restore(shard_id)
            watch.status = STATUS_ACTIVE
            probes_used = watch.probes
            watch.probes = 0
            self.rebalances.append(
                RebalanceEvent(
                    t_s=t_s, shard=shard_id, cells=cells, probes_used=probes_used
                )
            )
            self._record(
                "shard_rebalance",
                f"shard {shard_id} recovered after {probes_used} probe(s); "
                f"{len(cells)} cells restored",
                t_s,
            )
            return
        if watch.probes >= self.config.max_probe_retries:
            watch.status = STATUS_ABANDONED
            self._record(
                "shard_abandoned",
                f"shard {shard_id} failed {watch.probes} recovery probes; "
                "keyspace stays with its failover target",
                t_s,
            )

    # -- reporting ---------------------------------------------------------

    def statuses(self) -> dict[int, str]:
        return {shard_id: watch.status for shard_id, watch in self.watch.items()}

    def max_uncovered_cycles(self) -> int:
        return max(
            (event.uncovered_cycles for event in self.failovers), default=0
        )

    def within_failover_budget(self) -> bool:
        return self.max_uncovered_cycles() <= self.config.failover_budget_cycles

    def summary(self) -> dict[str, object]:
        """JSON-ready digest for chaos reports and the service report."""
        return {
            "ticks_supervised": self.ticks_supervised,
            "statuses": {
                str(shard_id): watch.status
                for shard_id, watch in sorted(self.watch.items())
            },
            "failovers": [
                {
                    "t_s": event.t_s,
                    "from_shard": event.from_shard,
                    "to_shard": event.to_shard,
                    "reason": event.reason,
                    "cells": len(event.cells),
                    "uncovered_cycles": event.uncovered_cycles,
                    "transferred_records": event.transferred_records,
                }
                for event in self.failovers
            ],
            "rebalances": [
                {
                    "t_s": event.t_s,
                    "shard": event.shard,
                    "cells": len(event.cells),
                    "probes_used": event.probes_used,
                }
                for event in self.rebalances
            ],
            "max_uncovered_cycles": self.max_uncovered_cycles(),
            "failover_budget_cycles": self.config.failover_budget_cycles,
            "within_failover_budget": self.within_failover_budget(),
            "incidents": list(self.incidents),
            "incidents_dropped": self.incidents_dropped,
        }
