"""Ingest guard tests: schema reasons, backpressure, quarantine bounds,
the chaos record corrupter, and the validated feed's clean-path
transparency.

Also covers the batch-side validators in :mod:`repro.mobility.cleaning`
that the streaming schema reuses (the same corruption must carry the
same reason code in both pipelines).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.models import ComponentFaultInjector
from repro.faults.profiles import get_component_profile
from repro.mobility.cleaning import (
    REASON_NON_FINITE,
    REASON_NON_MONOTONIC,
    MalformedTraceError,
    find_malformed,
    fix_reason,
    validate_trace,
)
from repro.mobility.trace import GpsTrace
from repro.service.ingest import (
    IngestGuard,
    ValidatedPositionFeed,
    make_record_corrupter,
)
from repro.service.records import (
    ALL_REASONS,
    REASON_DUPLICATE,
    REASON_FUTURE,
    REASON_OUT_OF_RANGE,
    REASON_UNKNOWN_NODE,
    REASON_UNKNOWN_PERSON,
    GpsRecord,
    IngestSchema,
)

SCHEMA = IngestSchema(
    width_m=1_000.0,
    height_m=800.0,
    known_persons=frozenset({1, 2, 3}),
    known_nodes=frozenset({10, 11}),
    future_slack_s=1.0,
)


def rec(pid=1, t=100.0, x=5.0, y=5.0, node=10) -> GpsRecord:
    return GpsRecord(person_id=pid, t_s=t, x=x, y=y, node=node)


class TestIngestSchema:
    def test_valid_record_passes(self):
        assert SCHEMA.validate(rec(), now_s=100.0, last_t_s=50.0) is None

    @pytest.mark.parametrize(
        "record, expected",
        [
            (rec(x=float("nan")), REASON_NON_FINITE),
            (rec(y=float("inf")), REASON_NON_FINITE),
            (rec(t=float("nan")), REASON_NON_FINITE),
            (rec(t=300.0), REASON_FUTURE),
            (rec(x=-1.0), REASON_OUT_OF_RANGE),
            (rec(y=801.0), REASON_OUT_OF_RANGE),
            (rec(pid=-4), REASON_UNKNOWN_PERSON),
            (rec(pid=99), REASON_UNKNOWN_PERSON),
            (rec(node=999), REASON_UNKNOWN_NODE),
        ],
    )
    def test_reason_codes(self, record, expected):
        verdict = SCHEMA.validate(record, now_s=100.0, last_t_s=None)
        assert verdict is not None
        reason, detail = verdict
        assert reason == expected
        assert reason in ALL_REASONS
        assert detail

    def test_future_slack_tolerates_bounded_skew(self):
        assert SCHEMA.validate(rec(t=100.9), now_s=100.0, last_t_s=None) is None

    def test_ordering_judged_against_last_accepted(self):
        dup = SCHEMA.validate(rec(t=100.0), now_s=200.0, last_t_s=100.0)
        assert dup is not None and dup[0] == REASON_DUPLICATE
        backwards = SCHEMA.validate(rec(t=99.0), now_s=200.0, last_t_s=100.0)
        assert backwards is not None and backwards[0] == REASON_NON_MONOTONIC

    def test_open_identity_sets_still_reject_negative_ids(self):
        schema = IngestSchema(width_m=100.0, height_m=100.0)
        verdict = schema.validate(rec(pid=-1), now_s=200.0, last_t_s=None)
        assert verdict is not None and verdict[0] == REASON_UNKNOWN_PERSON


class TestIngestGuard:
    def test_accept_and_snapshot_latest_wins(self):
        guard = IngestGuard(SCHEMA)
        assert guard.submit(rec(pid=1, t=10.0, node=10), now_s=10.0)
        assert guard.submit(rec(pid=1, t=20.0, node=11), now_s=20.0)
        assert guard.submit(rec(pid=2, t=20.0, node=10), now_s=20.0)
        assert guard.snapshot() == {1: 11, 2: 10}
        assert guard.queued == 0  # snapshot drains

    def test_rejects_are_quarantined_with_reason_counts(self):
        guard = IngestGuard(SCHEMA)
        assert not guard.submit(rec(x=float("nan")), now_s=100.0)
        assert not guard.submit(rec(pid=99), now_s=100.0)
        assert guard.rejected_by_reason == {
            REASON_NON_FINITE: 1,
            REASON_UNKNOWN_PERSON: 1,
        }
        assert len(guard.quarantined) == 2
        assert guard.quarantined[0].reason == REASON_NON_FINITE

    def test_duplicate_rejected_across_submissions(self):
        guard = IngestGuard(SCHEMA)
        assert guard.submit(rec(t=10.0), now_s=10.0)
        assert not guard.submit(rec(t=10.0), now_s=20.0)
        assert guard.rejected_by_reason == {REASON_DUPLICATE: 1}

    def test_backpressure_sheds_oldest_first(self):
        guard = IngestGuard(SCHEMA, max_queue=2)
        guard.submit(rec(pid=1, t=10.0, node=10), now_s=10.0)
        guard.submit(rec(pid=2, t=11.0, node=10), now_s=11.0)
        guard.submit(rec(pid=3, t=12.0, node=11), now_s=12.0)
        assert guard.shed == 1
        drained = guard.drain()
        assert [r.person_id for r in drained] == [2, 3]  # person 1 was oldest

    def test_quarantine_ring_is_bounded(self):
        guard = IngestGuard(SCHEMA, max_quarantine=3)
        for i in range(10):
            guard.submit(rec(pid=99, t=float(i)), now_s=100.0)
        assert len(guard.quarantined) == 3
        assert guard.quarantine_dropped == 7
        stats = guard.stats()
        assert stats["rejected_total"] == 10
        assert stats["quarantine_kept"] == 3
        assert stats["quarantine_dropped"] == 7


class TestRecordCorrupter:
    def _records(self, n=40):
        return [
            rec(pid=i + 1, t=1_000.0, x=10.0 + i, y=20.0, node=10) for i in range(n)
        ]

    def test_null_profile_is_identity(self):
        cf = ComponentFaultInjector(get_component_profile("none"), seed=3)
        corrupt = make_record_corrupter(cf)
        records = self._records()
        assert corrupt(records, 1_000.0) == records

    def test_storm_is_deterministic(self):
        cf = ComponentFaultInjector(get_component_profile("blackout"), seed=3)
        corrupt = make_record_corrupter(cf)
        records = self._records()
        ticks = [float(t) for t in range(1_000, 1_010)]
        once = [corrupt(list(records), t) for t in ticks]
        twice = [corrupt(list(records), t) for t in ticks]
        # repr-compare: NaN coordinates defeat dataclass `==` (nan != nan).
        assert repr(once) == repr(twice)
        # Blackout storms fire on about half the cycles: some tick mutated.
        assert any(batch != records for batch in once)

    def test_corrupted_records_are_caught_by_the_schema(self):
        cf = ComponentFaultInjector(get_component_profile("blackout"), seed=3)
        corrupt = make_record_corrupter(cf)
        schema = IngestSchema(width_m=1_000.0, height_m=800.0)
        originals = self._records()
        mangled = []
        now_s = 1_000.0
        for tick in range(1_000, 1_020):
            now_s = float(tick)
            mangled = [
                r for r in corrupt(list(originals), now_s) if r not in originals
            ]
            if mangled:
                break
        assert mangled
        for r in mangled:
            verdict = schema.validate(r, now_s=now_s, last_t_s=999.0)
            assert verdict is not None, r


class _FakeLandmark:
    def __init__(self, xy):
        self.xy = xy


class _FakeNetwork:
    """Two-landmark stand-in for the ValidatedPositionFeed tests."""

    def landmark(self, node_id):
        return _FakeLandmark((float(node_id), float(node_id)))


class TestValidatedPositionFeed:
    def _make(self, inner, corrupter=None, incidents=None):
        guard = IngestGuard(IngestSchema(width_m=1_000.0, height_m=1_000.0))
        sink = None
        if incidents is not None:
            sink = lambda kind, detail, t: incidents.append((kind, detail, t))
        feed = ValidatedPositionFeed(
            inner,
            guard,
            _FakeNetwork(),
            corrupter=corrupter,
            incident_sink=sink,
        )
        return feed, guard

    def test_clean_path_is_transparent(self):
        inner = lambda t: {3: 30, 1: 10, 2: 20}
        feed, guard = self._make(inner)
        assert feed(500.0) == inner(500.0)
        assert guard.stats()["rejected_total"] == 0

    def test_same_tick_queries_are_cached(self):
        calls = []

        def inner(t):
            calls.append(t)
            return {1: 10}

        feed, guard = self._make(inner)
        assert feed(500.0) == {1: 10}
        assert feed(500.0) == {1: 10}  # cached: no re-submit, no duplicates
        assert calls == [500.0]
        assert guard.rejected_by_reason == {}

    def test_corrupter_rejects_are_quarantined_not_served(self):
        inner = lambda t: {1: 10, 2: 20, 3: 30, 4: 40}

        def corrupter(records, t):
            # Mangle person 2's fix into a NaN coordinate.
            return [
                r if r.person_id != 2 else GpsRecord(r.person_id, r.t_s, float("nan"), r.y, r.node)
                for r in records
            ]

        incidents = []
        feed, guard = self._make(inner, corrupter=corrupter, incidents=incidents)
        assert feed(500.0) == {1: 10, 3: 30, 4: 40}
        assert guard.rejected_by_reason == {REASON_NON_FINITE: 1}

    def test_habitual_node_delegates(self):
        class Inner:
            def __call__(self, t):
                return {}

            def habitual_node(self, pid, t):
                return 77

        feed, _ = self._make(Inner())
        assert feed.habitual_node(5, 100.0) == 77
        bare, _ = self._make(lambda t: {})
        assert bare.habitual_node(5, 100.0) is None


class TestGuardBoundsAndTransfers:
    """Bounded per-person state and the exact ingest ledger."""

    def _open_schema(self):
        return IngestSchema(width_m=1_000.0, height_m=800.0)

    def test_per_person_state_is_bounded_with_lru_eviction(self):
        guard = IngestGuard(self._open_schema(), max_tracked_persons=3)
        for pid in (1, 2, 3, 4):
            assert guard.submit(rec(pid=pid, t=10.0), now_s=10.0)
        # Person 1 was least recently seen: evicted to admit person 4.
        assert guard.tracked_persons == 3
        assert guard.tracked_evictions == 1
        stats = guard.stats()
        assert stats["tracked_persons"] == 3
        assert stats["tracked_evictions"] == 1

    def test_eviction_order_follows_recency_not_insertion(self):
        guard = IngestGuard(self._open_schema(), max_tracked_persons=2)
        assert guard.submit(rec(pid=1, t=10.0), now_s=10.0)
        assert guard.submit(rec(pid=2, t=11.0), now_s=11.0)
        # Touch person 1 so person 2 becomes the LRU entry.
        assert guard.submit(rec(pid=1, t=12.0), now_s=12.0)
        assert guard.submit(rec(pid=3, t=13.0), now_s=13.0)  # evicts person 2
        # Person 1's ordering state survived: a replay is still caught...
        assert not guard.submit(rec(pid=1, t=12.0), now_s=14.0)
        assert guard.rejected_by_reason == {REASON_DUPLICATE: 1}
        # ...while evicted person 2 restarts with a clean slate.
        assert guard.submit(rec(pid=2, t=11.0), now_s=15.0)
        assert guard.tracked_evictions == 2  # admitting 2 re-evicted the LRU

    def test_eviction_is_deterministic(self):
        def run():
            guard = IngestGuard(self._open_schema(), max_tracked_persons=5)
            for i in range(40):
                guard.submit(rec(pid=i % 9 + 1, t=float(i)), now_s=float(i))
            return (
                guard.tracked_evictions,
                sorted(guard.snapshot().items()),
                guard.stats()["accepted"],
            )

        assert run() == run()

    def test_saturation_never_raises_and_reconciles(self):
        """Property-style saturation: random malformed fixes, a queue far
        smaller than the offered load, and periodic snapshots; every
        offered record still has exactly one fate."""
        rng = np.random.default_rng(42)
        guard = IngestGuard(self._open_schema(), max_queue=20)
        offered = 0
        quarantined = 0
        for tick in range(10):
            t = 50.0 * (tick + 1)
            for pid in range(1, 120):
                x = float(rng.uniform(0.0, 1_000.0))
                y = float(rng.uniform(0.0, 800.0))
                if rng.random() < 0.05:  # a few malformed fixes
                    x = float("nan")
                offered += 1
                if not guard.submit(rec(pid=pid, t=t, x=x, y=y), now_s=t):
                    quarantined += 1
                assert guard.queued <= 20
            if tick % 3 == 2:
                guard.snapshot()
        assert offered == guard.accepted + quarantined
        assert guard.shed > 0 and guard.drained > 0 and guard.queued > 0
        assert guard.reconciles()
        assert guard.stats()["rejected_total"] == quarantined
        # The check is exact: one miscounted record breaks it.
        guard.shed += 1
        assert not guard.reconciles()


# -- the shared batch validators (satellite: loud cleaning) --------------------


def _trace(person, t, x, y):
    n = len(person)
    return GpsTrace(
        person_id=np.asarray(person),
        t=np.asarray(t, dtype=np.float64),
        x=np.asarray(x, dtype=np.float64),
        y=np.asarray(y, dtype=np.float64),
        altitude=np.zeros(n),
        speed=np.zeros(n),
    )


class TestBatchValidators:
    def test_fix_reason_matches_schema_reasons(self):
        assert fix_reason(1.0, float("nan"), 2.0) == REASON_NON_FINITE
        assert fix_reason(float("inf"), 1.0, 2.0) == REASON_NON_FINITE
        assert fix_reason(1.0, 2.0, 3.0) is None

    def test_find_malformed_flags_non_finite(self):
        trace = _trace([1, 1], [0.0, 1.0], [1.0, float("nan")], [2.0, 2.0])
        bad = find_malformed(trace)
        assert bad is not None and bad[1] == REASON_NON_FINITE

    def test_find_malformed_flags_backwards_time(self):
        trace = _trace([1, 1], [10.0, 5.0], [1.0, 1.0], [2.0, 2.0])
        bad = find_malformed(trace, require_monotonic=True)
        assert bad is not None and bad[1] == REASON_NON_MONOTONIC
        # The batch cleaner tolerates unordered raw input by contract.
        assert find_malformed(trace, require_monotonic=False) is None

    def test_validate_trace_raises_typed_error(self):
        trace = _trace([7, 7], [0.0, 1.0], [1.0, 1.0], [float("nan"), 2.0])
        with pytest.raises(MalformedTraceError) as err:
            validate_trace(trace)
        assert err.value.reason == REASON_NON_FINITE
        assert err.value.person_id == 7
        assert err.value.index == 0
