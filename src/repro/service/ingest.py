"""Ingest guard: validation, quarantine, and backpressure for the feed.

Every GPS record entering the service passes through
:class:`IngestGuard.submit`.  Invalid records are quarantined with a
reason code (:mod:`repro.service.records`); valid ones enter a *bounded*
queue — when ingest outpaces the tick, the oldest queued records are
shed deterministically (they are the stalest fixes, and a newer fix for
the same person supersedes them anyway).  Nothing here ever raises on
bad data: corruption is an expected input, not an exceptional one.

:class:`ValidatedPositionFeed` adapts the guard to the engine's
``PositionFeed`` protocol: the inner feed's per-tick snapshot is turned
into records, routed through the guard, and only validated records
rebuild the snapshot the predictor sees.  With well-formed input the
rebuilt snapshot equals the inner one — the feed is bit-transparent on
the clean path.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from collections.abc import Callable
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.core.positions import PositionFeed
from repro.roadnet.graph import RoadNetwork
from repro.service.records import GpsRecord, IngestSchema, QuarantinedRecord

if TYPE_CHECKING:
    from repro.faults.models import ComponentFaultInjector

#: Chaos hook: rewrites a tick's record batch (corrupt-record storms).
RecordCorrupter = Callable[[list[GpsRecord], float], list[GpsRecord]]


class IngestGuard:
    """Schema validation + quarantine + bounded-queue backpressure."""

    def __init__(
        self,
        schema: IngestSchema,
        max_queue: int = 50_000,
        max_quarantine: int = 2_000,
        max_tracked_persons: int = 100_000,
    ) -> None:
        if max_queue < 1:
            raise ValueError("ingest queue needs capacity for at least one record")
        if max_quarantine < 1:
            raise ValueError("quarantine needs capacity for at least one record")
        if max_tracked_persons < 1:
            raise ValueError("per-person tracking needs capacity for at least one person")
        self.schema = schema
        self.max_queue = max_queue
        self.max_tracked_persons = max_tracked_persons
        self._queue: deque[GpsRecord] = deque()
        #: Most recent rejects, for the run report; bounded ring.
        self.quarantined: deque[QuarantinedRecord] = deque(maxlen=max_quarantine)
        self.quarantine_dropped = 0
        #: Newest accepted timestamp per person (ordering judged per person).
        #: Bounded LRU: a multi-day replay over millions of users must not
        #: grow validator memory without limit, so the least-recently-seen
        #: person's ordering/duplicate state is evicted deterministically
        #: once ``max_tracked_persons`` is reached (an evicted person is
        #: simply judged as new again on their next fix).
        self._last_t: OrderedDict[int, float] = OrderedDict()
        self.tracked_evictions = 0
        self.accepted = 0
        self.shed = 0
        self.drained = 0
        self.rejected_by_reason: dict[str, int] = {}

    def quarantine(self, record: GpsRecord, reason: str, detail: str) -> None:
        """File one invalid record under its reason code."""
        self.rejected_by_reason[reason] = self.rejected_by_reason.get(reason, 0) + 1
        ring = self.quarantined
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self.quarantine_dropped += 1
        ring.append(QuarantinedRecord(record=record, reason=reason, detail=detail))

    def submit(self, record: GpsRecord, now_s: float) -> bool:
        """Validate one record; queue it or quarantine it.

        Returns True when the record was accepted.  When the queue is
        full the *oldest* queued record is shed first — deterministic
        backpressure in favour of fresh data.
        """
        verdict = self.schema.validate(
            record, now_s, self._last_t.get(record.person_id)
        )
        if verdict is not None:
            reason, detail = verdict
            self.quarantine(record, reason, detail)
            return False
        self._last_t[record.person_id] = record.t_s
        self._last_t.move_to_end(record.person_id)
        if len(self._last_t) > self.max_tracked_persons:
            self._last_t.popitem(last=False)
            self.tracked_evictions += 1
        if len(self._queue) >= self.max_queue:
            self._queue.popleft()
            self.shed += 1
        self._queue.append(record)
        self.accepted += 1
        return True

    def drain(self) -> list[GpsRecord]:
        """Consume every queued record, oldest first."""
        out = list(self._queue)
        self._queue.clear()
        self.drained += len(out)
        return out

    def snapshot(self) -> dict[int, int]:
        """Drain the queue into a position snapshot ``{person: landmark}``.

        Later records win per person; per-person timestamps are monotone
        by construction (ordering violations were quarantined), so the
        last record is always the newest fix.
        """
        positions: dict[int, int] = {}
        for record in self.drain():
            positions[record.person_id] = record.node
        return positions

    @property
    def queued(self) -> int:
        return len(self._queue)

    @property
    def tracked_persons(self) -> int:
        return len(self._last_t)

    def reconciles(self) -> bool:
        """Check the ledger exactly: every accepted record was drained,
        is still queued, or was shed."""
        return self.accepted == self.drained + self.queued + self.shed

    def stats(self) -> dict[str, object]:
        """JSON-ready counters for run reports."""
        return {
            "accepted": self.accepted,
            "shed": self.shed,
            "queued": self.queued,
            "drained": self.drained,
            "rejected_by_reason": dict(sorted(self.rejected_by_reason.items())),
            "rejected_total": sum(self.rejected_by_reason.values()),
            "quarantine_kept": len(self.quarantined),
            "quarantine_dropped": self.quarantine_dropped,
            "tracked_persons": self.tracked_persons,
            "tracked_evictions": self.tracked_evictions,
        }


def make_record_corrupter(
    component_faults: "ComponentFaultInjector",
) -> RecordCorrupter:
    """Deterministic corrupt-record-storm hook for the chaos harness.

    On storm cycles (per the injector's ``corrupt_fraction``), a sampled
    subset of the tick's records is mangled into each invalid shape the
    schema must catch: NaN coordinates, future timestamps, backwards
    timestamps, negative person ids, off-the-map positions.  All draws
    come from the injector's per-cycle mutation substream, so the storm
    is a pure function of ``(seed, cycle)``.
    """

    def corrupt(records: list[GpsRecord], t_s: float) -> list[GpsRecord]:
        fraction = component_faults.corrupt_fraction(int(t_s))
        if fraction <= 0.0 or not records:
            return records
        rng = component_faults.mutation_rng(int(t_s))
        count = min(len(records), max(1, int(round(fraction * len(records)))))
        chosen = set(
            int(i) for i in rng.choice(len(records), size=count, replace=False)
        )
        out: list[GpsRecord] = []
        for i, record in enumerate(records):
            if i not in chosen:
                out.append(record)
                continue
            mode = int(rng.integers(5))
            if mode == 0:
                out.append(replace(record, x=float("nan")))
            elif mode == 1:
                out.append(replace(record, t_s=record.t_s + 86_400.0))
            elif mode == 2:
                out.append(replace(record, t_s=record.t_s - 700.0))
            elif mode == 3:
                out.append(replace(record, person_id=-record.person_id - 1))
            else:
                out.append(replace(record, x=record.x + 1e7))
        return out

    return corrupt


class ValidatedPositionFeed:
    """A ``PositionFeed`` whose every fix passed the ingest guard.

    The inner feed's snapshot is expanded into one :class:`GpsRecord`
    per person (coordinates from the matched landmark, exactly what the
    upstream matcher produced) and submitted through ``guard``.  An
    optional ``corrupter`` lets the chaos harness mangle the batch
    before validation; whatever survives the guard rebuilds the
    snapshot.  Per-tick results are cached so repeated queries at the
    same timestamp neither double-submit records nor trip the duplicate
    detector.
    """

    def __init__(
        self,
        inner: PositionFeed,
        guard: IngestGuard,
        network: RoadNetwork,
        clock: Callable[[], float] | None = None,
        deadline_slice_s: float | None = None,
        incident_sink: Callable[[str, str, float], None] | None = None,
        corrupter: RecordCorrupter | None = None,
    ) -> None:
        self.inner = inner
        self.guard = guard
        self.network = network
        self._clock = clock
        self.deadline_slice_s = deadline_slice_s
        self._incident_sink = incident_sink
        self.corrupter = corrupter
        self.deadline_overruns = 0
        self._cache: tuple[float, dict[int, int]] | None = None

    def habitual_node(self, pid: int, t_seconds: float) -> int | None:
        """Delegate so stacked wrappers keep the historical fallback path."""
        inner_habitual = getattr(self.inner, "habitual_node", None)
        if inner_habitual is None:
            return None
        return inner_habitual(pid, t_seconds)

    def _records_for(self, t_s: float) -> list[GpsRecord]:
        base = self.inner(t_s)
        records: list[GpsRecord] = []
        for pid, node in sorted(base.items()):
            x, y = self.network.landmark(node).xy
            records.append(
                GpsRecord(person_id=pid, t_s=t_s, x=float(x), y=float(y), node=node)
            )
        return records

    def __call__(self, t_s: float) -> dict[int, int]:
        if self._cache is not None and self._cache[0] == t_s:
            return self._cache[1]
        start = self._clock() if self._clock is not None else None
        records = self._records_for(t_s)
        if self.corrupter is not None:
            records = self.corrupter(records, t_s)
        for record in records:
            self.guard.submit(record, now_s=t_s)
        positions = self.guard.snapshot()
        if start is not None and self._clock is not None:
            elapsed = self._clock() - start
            if (
                self.deadline_slice_s is not None
                and elapsed > self.deadline_slice_s
            ):
                self.deadline_overruns += 1
                if self._incident_sink is not None:
                    self._incident_sink(
                        "ingest_deadline",
                        f"ingest stage took {elapsed:.3f}s "
                        f"(> {self.deadline_slice_s:.3f}s slice)",
                        t_s,
                    )
        self._cache = (t_s, positions)
        return positions
