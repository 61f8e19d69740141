"""Request-activation order is pinned across all three implementations.

The seed engine originally rescanned a deque head every tick; it now
advances an index cursor, and the event kernel pops from a
``RequestArray`` via ``bisect_right``.  All three must hand requests to
the pending queues in exactly the same order — sorted by request time,
ties in original input order (Python's stable sort) — for every query
sequence the engine can produce (non-decreasing tick times).
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.sim.engine import RescueSimulator, SimulationConfig
from repro.sim.kernel import EventKernelSimulator, RequestArray
from repro.sim.requests import RescueRequest


def _request(i: int, time_s: float) -> RescueRequest:
    return RescueRequest(
        request_id=i, person_id=i, time_s=time_s, segment_id=0, node_id=0
    )


def _deque_reference(requests, query_times):
    """The pre-refactor semantics: rescan the sorted deque head per tick."""
    active = deque(sorted(requests, key=lambda r: r.time_s))
    batches = []
    for t in query_times:
        batch = []
        while active and active[0].time_s <= t:
            batch.append(active.popleft())
        batches.append(batch)
    return batches


class _CursorHarness:
    """Just enough state to run the engine's indexed-cursor method."""

    def __init__(self, requests):
        self.requests = sorted(requests, key=lambda r: r.time_s)
        self._activation_cursor = 0

    take = RescueSimulator._take_due_requests


@pytest.mark.parametrize("seed", range(30))
def test_cursor_and_array_match_deque_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    # Coarse time grid: duplicates are likely, exercising tie order.
    times = [float(rng.integers(0, 15)) for _ in range(n)]
    requests = [_request(i, t) for i, t in enumerate(times)]
    queries = np.cumsum(rng.uniform(0.0, 4.0, size=12)).tolist()

    expected = _deque_reference(requests, queries)
    harness = _CursorHarness(requests)
    array = RequestArray(sorted(requests, key=lambda r: r.time_s))
    for t, batch in zip(queries, expected):
        assert harness.take(t) == batch
        assert array.take_due(t) == batch
    # Everything at or before the last query time is activated; the rest
    # is still waiting, in order.
    remaining = [r for r in sorted(requests, key=lambda r: r.time_s)
                 if r.time_s > queries[-1]]
    assert array.next_time() == (remaining[0].time_s if remaining else None)


def test_ties_preserve_input_order():
    requests = [_request(0, 5.0), _request(1, 3.0), _request(2, 5.0),
                _request(3, 5.0), _request(4, 1.0)]
    harness = _CursorHarness(requests)
    taken = harness.take(5.0)
    assert [r.request_id for r in taken] == [4, 1, 0, 2, 3]
    assert harness.take(5.0) == []  # cursor advanced, nothing re-activates


def test_request_array_rejects_unsorted_input():
    with pytest.raises(ValueError):
        RequestArray([_request(0, 5.0), _request(1, 1.0)])


class _RecordingSeed(RescueSimulator):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.activated: list[int] = []

    def _take_due_requests(self, upto_t):
        newly = super()._take_due_requests(upto_t)
        self.activated.extend(r.request_id for r in newly)
        return newly


class _RecordingKernel(EventKernelSimulator):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.activated: list[int] = []

    def _take_due_requests(self, upto_t):
        newly = super()._take_due_requests(upto_t)
        self.activated.extend(r.request_id for r in newly)
        return newly


def test_engine_activation_order_unchanged(florence_scenario):
    """End to end: both engines activate the same ids in the same order,
    with deliberate duplicate request times in the workload."""
    from repro.dispatch.nearest import NearestDispatcher

    scenario = florence_scenario
    network = scenario.network
    rng = np.random.default_rng(13)
    seg_ids = np.array(network.segment_ids())
    t0 = scenario.timeline.storm_start_s
    t1 = t0 + 1.0 * 3_600.0
    requests = []
    for i, seg in enumerate(rng.choice(seg_ids, size=30)):
        segment = network.segment(int(seg))
        # Quantized times: several requests share an activation instant.
        time_s = t0 + 300.0 * float(rng.integers(0, 10))
        requests.append(
            RescueRequest(request_id=i, person_id=i, time_s=time_s,
                          segment_id=int(seg), node_id=segment.u)
        )
    config = SimulationConfig(t0_s=t0, t1_s=t1, num_teams=5, seed=0)
    seed_sim = _RecordingSeed(
        scenario, list(requests), NearestDispatcher(), config
    )
    seed_sim.run()
    kernel_sim = _RecordingKernel(
        scenario, list(requests), NearestDispatcher(), config
    )
    kernel_sim.run()
    assert seed_sim.activated, "workload must activate requests"
    assert seed_sim.activated == kernel_sim.activated
    # The order is the stable time-sort of the input.
    expected = [r.request_id
                for r in sorted(requests, key=lambda r: r.time_s)
                if r.time_s <= t1]
    assert seed_sim.activated == expected
