"""The sharded ingest guard: routes by keyspace, merges by reducer.

:class:`ShardedIngestGuard` presents the exact ``submit`` / ``snapshot``
/ ``stats`` surface of a single :class:`~repro.service.ingest.IngestGuard`,
so the :class:`~repro.service.ingest.ValidatedPositionFeed` and the
service report code work unchanged on top of N isolated shards; the
dispatch service always ingests through it (one shard by default).

Routing is geographic: each record goes to the current owner of the
grid cell its coordinates fall in.  Snapshots visit shards in shard-id
order, but the merge itself is order-insensitive
(:func:`~repro.service.sharding.partition.merge_shard_records` sorts by
person before folding), so the produced snapshot — including dict key
order — is bit-identical to the unsharded guard's on the clean path.

An optional ``fault_hook`` is applied lazily, at most once per distinct
timestamp, before any routing at that timestamp: the chaos layer uses
it to flip shard health (kill / stall / skew) as a pure function of
simulated time.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.service.ingest import IngestGuard
from repro.service.records import GpsRecord, IngestSchema
from repro.service.sharding.partition import (
    GridKeyspace,
    ShardAssignment,
    merge_counter_sum,
    merge_reason_counts,
    merge_shard_records,
)
from repro.service.sharding.shard import Shard

#: ``fault_hook(t_s)`` mutates shard health for the tick at ``t_s``.
ShardFaultHook = Callable[[float], None]


class ShardedIngestGuard:
    """N isolated ingest guards behind the one-guard interface."""

    def __init__(
        self,
        schema: IngestSchema,
        keyspace: GridKeyspace,
        num_shards: int,
        shard_max_queue: int = 50_000,
        max_quarantine: int = 2_000,
        max_tracked_persons: int = 100_000,
        fault_hook: ShardFaultHook | None = None,
    ) -> None:
        self.schema = schema
        self.keyspace = keyspace
        self.assignment = ShardAssignment(keyspace, num_shards)
        self.shards = [
            Shard(
                shard_id,
                IngestGuard(
                    schema,
                    max_queue=shard_max_queue,
                    max_quarantine=max_quarantine,
                    max_tracked_persons=max_tracked_persons,
                ),
            )
            for shard_id in range(num_shards)
        ]
        self.fault_hook = fault_hook
        self._fault_applied_t: float | None = None
        #: Timestamp of the last snapshot drain — the supervisor only
        #: judges heartbeats on ticks where the feed demonstrably ran.
        self.last_snapshot_t_s: float | None = None

    # -- fault plumbing ----------------------------------------------------

    def _apply_faults(self, t_s: float) -> None:
        if self.fault_hook is None or self._fault_applied_t == t_s:
            return
        self._fault_applied_t = t_s
        self.fault_hook(t_s)

    # -- the IngestGuard surface -------------------------------------------

    def shard_for(self, record: GpsRecord) -> Shard:
        if len(self.shards) == 1:  # it owns every cell: skip the lookup
            return self.shards[0]
        cell = self.keyspace.cell_of(record.x, record.y)
        return self.shards[self.assignment.owner(cell)]

    def submit(self, record: GpsRecord, now_s: float) -> bool:
        self._apply_faults(now_s)
        return self.shard_for(record).submit(record, now_s)

    def snapshot(self, now_s: float) -> dict[int, int]:
        """Drain every live shard, stamp heartbeats at ``now_s``, merge
        positions."""
        self._apply_faults(now_s)
        drains: list[list[GpsRecord]] = []
        for shard in self.shards:
            drained = shard.drain_snapshot(now_s)
            if drained is not None:
                drains.append(drained)
        self.last_snapshot_t_s = now_s
        return merge_shard_records(drains)

    @property
    def queued(self) -> int:
        return merge_counter_sum(shard.guard.queued for shard in self.shards)

    @property
    def accepted(self) -> int:
        return merge_counter_sum(shard.guard.accepted for shard in self.shards)

    @property
    def shed(self) -> int:
        return merge_counter_sum(shard.guard.shed for shard in self.shards)

    @property
    def drained(self) -> int:
        return merge_counter_sum(shard.guard.drained for shard in self.shards)

    @property
    def lost(self) -> int:
        return merge_counter_sum(shard.lost for shard in self.shards)

    def alive_shards(self) -> tuple[int, ...]:
        return tuple(shard.shard_id for shard in self.shards if shard.alive)

    def reconciles(self) -> bool:
        """Every shard's conservation identity, checked exactly."""
        return all(shard.reconciles() for shard in self.shards)

    def stats(self) -> dict[str, object]:
        """Aggregated counters in the unsharded guard's shape, plus
        ``per_shard`` detail for the service report."""
        reasons = merge_reason_counts(
            shard.guard.rejected_by_reason for shard in self.shards
        )
        return {
            "accepted": self.accepted,
            "shed": self.shed,
            "queued": self.queued,
            "drained": self.drained,
            "rejected_by_reason": reasons,
            "rejected_total": merge_counter_sum(reasons.values()),
            "quarantine_kept": merge_counter_sum(
                len(shard.guard.quarantined) for shard in self.shards
            ),
            "quarantine_dropped": merge_counter_sum(
                shard.guard.quarantine_dropped for shard in self.shards
            ),
            "tracked_persons": merge_counter_sum(
                shard.guard.tracked_persons for shard in self.shards
            ),
            "tracked_evictions": merge_counter_sum(
                shard.guard.tracked_evictions for shard in self.shards
            ),
            "lost": self.lost,
            "transferred": merge_counter_sum(
                shard.transferred_in for shard in self.shards
            ),
            "num_shards": len(self.shards),
            "per_shard": [shard.stats() for shard in self.shards],
        }
