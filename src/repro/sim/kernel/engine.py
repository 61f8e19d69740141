"""The event-driven simulation kernel.

:class:`EventKernelSimulator` subclasses the seed
:class:`~repro.sim.engine.RescueSimulator` and replaces its fixed-step
``run`` loop with an event heap, while every *processed* tick still runs
the seed tick body (the phase methods the seed ``run`` was refactored
into).  Bit-identity rests on one argument:

* Events are quantized to the seed's tick grid — the grid is rebuilt by
  replaying the seed's ``t += step_s`` float accumulation, and every
  event is keyed by an exact integer tick index.
* A grid tick is skipped only when it is provably a no-op: no request
  activates (the activation event sits at the first tick covering the
  next request), no dispatch cycle fires (likewise), no queued command
  falls due, no team's wake-up time has passed, and no breakdown window
  first covers it (trigger ticks are precomputed from the fault
  schedules — "reschedule rather than poll").
* Processed ticks run seed-identical code over the due teams in
  ascending team id — the seed's list order restricted to teams that do
  anything, which is the same mutation sequence because a team's tick
  body never mutates another team.

Over-eager wake-ups are therefore harmless (the tick body no-ops) and
the scheduler errs on that side; the golden-equivalence suite
(``tests/test_kernel_equivalence.py``) locks kernel and seed runs
together event-for-event across seeds and fault profiles.

:class:`EventKernelSimulator` is the one simulator production code
constructs.  The seed :meth:`RescueSimulator.run` loop stays as the
reference the equivalence suite compares against.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from itertools import accumulate
from typing import TYPE_CHECKING, cast

from repro.data.charlotte import CharlotteScenario
from repro.dispatch.base import DispatchObservation, Dispatcher, TeamCommand, TeamView
from repro.perf.routing_cache import HospitalField, RoutingCache
from repro.roadnet.routing import Route
from repro.sim.engine import PickupEvent, RescueSimulator, SimulationConfig, SimulationResult
from repro.sim.kernel.events import EventHeap, EventKind
from repro.sim.kernel.routing import FloodClosureIndex
from repro.sim.kernel.state import _NO_TARGET, RequestArray, TeamArray
from repro.sim.requests import RescueRequest
from repro.sim.teams import RescueTeam, TeamState

if TYPE_CHECKING:  # the fault layer is optional; only the type is needed here
    from repro.faults.models import FaultInjector

_INF = float("inf")


class EventKernelSimulator(RescueSimulator):
    """Event-driven drop-in for :class:`RescueSimulator` (see module doc)."""

    def __init__(
        self,
        scenario: CharlotteScenario,
        requests: list[RescueRequest],
        dispatcher: Dispatcher,
        config: SimulationConfig,
        faults: "FaultInjector | None" = None,
        on_cycle: Callable[[int, float, bool], None] | None = None,
    ) -> None:
        super().__init__(
            scenario, requests, dispatcher, config, faults=faults, on_cycle=on_cycle
        )
        self._requests_arr = RequestArray(self.requests)
        self._flood_index = FloodClosureIndex(self.network, self.scenario.flood)
        self._hospital_list = tuple(h.node_id for h in self.hospitals)
        self._field: HospitalField | None = None
        self._field_closed: frozenset[int] | None = None
        # The seed tick grid, replayed with the seed's own accumulated
        # float sum (NOT t0 + k*step — those differ in the last ulp).
        times: list[float] = []
        t = config.t0_s
        while t <= config.t1_s:
            times.append(t)
            t += config.step_s
        self._tick_times = times
        self._num_ticks = len(times)
        index = self.network.routing_index()
        #: Segment id -> free-flow traversal time (the seed's
        #: ``RoadSegment.free_flow_time_s`` floats).
        self._free_flow_s = dict(zip(index.segment_ids, index.seg_time_s))
        #: ``(t, speed multiplier at t)`` of the last leg begun.
        self._mult_at: tuple[float, float] = (float("nan"), 1.0)
        # Fault-closure boundaries: the closed set is piecewise constant
        # between window edges, so one cached frozenset serves the whole
        # interval (the "reschedule rather than poll" contract).
        bounds: set[float] = set()
        if self.faults is not None:
            for windows in self.faults.closure_windows().values():
                for w in windows:
                    bounds.add(w.start_s)
                    bounds.add(w.end_s)
        self._closure_bounds = sorted(bounds)
        self._fault_closed_span: tuple[float, float, frozenset[int]] = (
            _INF, -_INF, frozenset(),
        )
        #: ``(flood closed, fault closed, union)`` of the last fault-closed
        #: cycle, see :meth:`_closed_now`.
        self._closed_union: tuple[object, object, frozenset[int]] = (
            None, None, frozenset(),
        )
        # Breakdown trigger ticks: the first grid tick each outage window
        # covers (windows falling wholly between ticks never trigger —
        # exactly the seed's per-tick ``covers`` poll).
        self._breakdown_triggers: dict[int, list[int]] = {}
        if self.faults is not None:
            for team_id in range(config.num_teams):
                for w in self.faults.breakdown_windows(team_id):
                    k = self._tick_of(w.start_s)
                    if k < self._num_ticks and self._tick_times[k] < w.end_s:
                        self._breakdown_triggers.setdefault(k, []).append(team_id)
        self._events = EventHeap()
        self._wake_tokens: dict[int, int] = {}
        self._stream_tokens: dict[EventKind, tuple[int, int]] = {}
        self._processed = -1
        self._current_tick = -1
        self._ticks_run = 0

    @property
    def events_processed(self) -> int:
        """Events popped off the heap during the last :meth:`run`."""
        return self._events.popped

    @property
    def ticks_processed(self) -> int:
        """Grid ticks that actually ran (vs ``num_grid_ticks`` scheduled)."""
        return self._ticks_run

    @property
    def num_grid_ticks(self) -> int:
        return self._num_ticks

    # -- setup ----------------------------------------------------------------

    def _spawn_teams(self) -> list[RescueTeam]:
        """Seed placement (one sequential ``rng.choice`` per team), landing
        in :class:`TeamArray` columns instead of per-team objects."""
        nodes = [h.node_id for h in self.hospitals]
        spawn = [int(self._rng.choice(nodes)) for _ in range(self.config.num_teams)]
        self._team_array = TeamArray(self.config.team_capacity, spawn)
        # Views carry the full RescueTeam surface; the inherited seed tick
        # body runs on them unchanged.
        return cast(list[RescueTeam], self._team_array.views())

    # -- tick grid ------------------------------------------------------------

    def _tick_of(self, t_s: float) -> int:
        """Index of the first grid tick at or after ``t`` (== num_ticks
        when ``t`` falls beyond the window — never processed, as in the
        seed loop).  ``t`` is never NaN, and for every other float
        ``bisect_left`` finds what ``searchsorted(side="left")`` finds."""
        return bisect_left(self._tick_times, t_s)

    # -- closures -------------------------------------------------------------

    def _fault_closed_at(self, t: float) -> frozenset[int]:
        lo, hi, cached = self._fault_closed_span
        if lo <= t < hi:
            return cached
        faults = self.faults
        assert faults is not None
        closed = faults.closed_segments(t)
        bounds = self._closure_bounds
        i = bisect_right(bounds, t)
        lo = bounds[i - 1] if i > 0 else -_INF
        hi = bounds[i] if i < len(bounds) else _INF
        self._fault_closed_span = (lo, hi, closed)
        return closed

    def _closed_now(self, t: float) -> frozenset[int]:
        closed = self._flood_index.closed_at(t)
        if self.faults is not None:
            extra = self._fault_closed_at(t)
            if extra:
                # Both inputs keep their object while unchanged (closure
                # epoch, fault span), so the union does too.
                flood_in, extra_in, union = self._closed_union
                if flood_in is not closed or extra_in is not extra:
                    union = frozenset(closed | extra)
                    self._closed_union = (closed, extra, union)
                closed = union
        return closed

    # -- hospital routing -----------------------------------------------------

    def _current_field(self) -> HospitalField:
        # Identity, not equality: the closed set keeps its object through a
        # closure epoch, and an equal set under a new object is a cache hit
        # in the routing engine anyway.
        if self._field is None or self._field_closed is not self._closed:
            engine = cast(RoutingCache, self.router)  # no router is passed in
            self._field = engine.hospital_field(self._hospital_list, self._closed)
            self._field_closed = self._closed
        return self._field

    def _nearest_hospital_node(self, node: int) -> int | None:
        return self._current_field().nearest_hospital(node)

    def _hospital_leg_route(self, node: int, hosp: int) -> Route | None:
        # ``hosp`` is this field's nearest(node) by construction; the
        # field walk reconstructs the same shortest path the seed's
        # per-team search would (unique shortest paths; pinned by the
        # equivalence suite).
        return self._current_field().route(node)

    # -- request lifecycle ----------------------------------------------------

    def _take_due_requests(self, upto_t: float) -> list[RescueRequest]:
        newly = self._requests_arr.take_due(upto_t)
        self._activation_cursor = self._requests_arr.cursor
        return newly

    def _immediate_pickup(self, req: RescueRequest) -> None:
        seg = self.network.segment(req.segment_id)
        i = self._team_array.idle_team_at((seg.u, seg.v))
        if i is None:
            return
        team = self._teams[i]
        q = self._pending.get(req.segment_id)
        if not q or q[-1] is not req:
            return
        q.pop()
        self._result.pickups.append(
            PickupEvent(
                request_id=req.request_id,
                team_id=team.team_id,
                t_s=req.time_s,
                driving_delay_s=0.0,
                timeliness_s=0.0,
            )
        )
        team.passengers.append(req.request_id)
        team.total_pickups += 1
        if team.capacity_left == 0:
            self._route_to_hospital(team, req.time_s)

    # -- dispatch -------------------------------------------------------------

    def _observation(self, t: float) -> DispatchObservation:
        a = self._team_array
        down, targets = a.down_until_s, a.target_segment
        teams = [
            TeamView(
                team_id=i,
                node=a.node[i],
                state=a.state[i].value,
                capacity_left=a.capacity_left[i],
                assignable=a.state_code[i] != 2 and down[i] != down[i],
                total_pickups=a.total_pickups[i],
                target_segment=None if targets[i] == _NO_TARGET else targets[i],
            )
            for i in range(a.num_teams)
        ]
        return DispatchObservation(
            t_s=t,
            teams=teams,
            pending={s: len(q) for s, q in self._pending.items() if q},
            closed=self._closed,
            network=self.network,
            hospitals=self.hospitals,
        )

    def _serving_count(self, action: dict[int, TeamCommand]) -> int:
        serving = {tid for tid, c in action.items() if not c.is_depot}
        serving |= self._team_array.serving_ids()
        serving -= {tid for tid, c in action.items() if c.is_depot}
        return len(serving)

    def _apply_due_actions(self, t: float) -> None:
        n = self._team_array.num_teams
        while self._action_queue and self._action_queue[0][0] <= t:
            apply_t, _, action = heapq.heappop(self._action_queue)
            # Ascending command keys == the seed's ascending-team-id scan
            # restricted to commanded teams.
            for tid in sorted(action):
                if not 0 <= tid < n:
                    continue
                team = self._teams[tid]
                if not team.is_assignable:
                    continue
                self._deliver_command(team, action[tid], apply_t)

    # -- advancement ----------------------------------------------------------

    def _begin_leg(
        self, team: RescueTeam, route: Route, t: float, state: TeamState, target: int | None
    ) -> None:
        """The seed leg at ``t``: node times ``t + cumsum(free flow / mult)``.

        Per-element float division and a left-to-right running sum are the
        very IEEE operations of the seed's ``np.array([... / mult])`` and
        ``np.cumsum``, so every node time is bit-equal to the seed's.
        """
        t = float(t)
        last_t, mult = self._mult_at
        if t != last_t:
            flood = self.scenario.timeline.flood_level(t)
            mult = max(0.2, 1.0 - self.config.storm_slowdown * flood)
            self._mult_at = (t, mult)
        free_flow = self._free_flow_s
        elapsed = accumulate([free_flow[s] / mult for s in route.segment_ids])
        node_times = [t, *[t + x for x in elapsed]]
        self._team_array.begin_leg(team.team_id, route, node_times, t, state, target)

    def _advance_team(self, team: RescueTeam, t: float) -> None:
        """The seed ``_advance_team``, reading and writing the team's
        columns directly; ``wake_s`` is re-derived once at the end."""
        a = self._team_array
        i = team.team_id
        codes = a.state_code
        if codes[i] == 0:
            cmd = a.pending_assignment[i]
            if cmd is not None:
                self._apply_command(team, cmd, t)
            if codes[i] == 0:
                return
        closed = self._closed
        while codes[i] != 0:
            times = a.node_times[i]
            idx = a.next_node_idx[i]
            if times is None or idx >= len(times) or times[idx] > t:
                break
            seg = a.route_segments[i][idx - 1]
            if seg in closed:
                # A closed segment ahead: the seed loop's first step from
                # here is exactly this mid-leg stall and its detour.
                super()._advance_team(team, t)
                break
            node_t = times[idx]
            a.node[i] = a.route_nodes[i][idx]
            idx += 1
            a.next_node_idx[i] = idx
            if a.capacity_left[i] > 0:
                self._pickup_on_segment(team, seg, node_t)
            if idx >= len(times):
                self._on_arrival(team, node_t)
            elif a.pending_assignment[i] is not None and team.is_assignable:
                self._apply_command(team, a.pending_assignment[i], node_t)
            elif a.capacity_left[i] == 0 and codes[i] == 1:
                team.stop()
                self._route_to_hospital(team, node_t)
        a.recompute_wake(i)

    def _advance_teams(self, t: float) -> None:
        a = self._team_array
        due = a.attention(t)
        if self.faults is not None:
            triggers = self._breakdown_triggers.get(self._current_tick)
            if triggers:
                due = sorted(set(due).union(triggers))
        for i in due:
            team = self._teams[i]
            if self.faults is not None and self._update_breakdown(team, t):
                continue
            self._advance_team(team, t)

    # -- event scheduling -----------------------------------------------------

    def _schedule_stream(self, kind: EventKind, k: int) -> None:
        """(Re)schedule the single live event of a fleet-wide stream."""
        current = self._stream_tokens.get(kind)
        if current is not None:
            if current[1] == k:
                return  # already parked on that tick
            self._events.cancel(current[0])
            del self._stream_tokens[kind]
        if 0 <= k < self._num_ticks:
            self._stream_tokens[kind] = (self._events.schedule(k, kind), k)

    def _sync_wake_events(self) -> None:
        """Drain the dirty set: one wake event per team whose ``wake_s``
        moved.  A wake at or before the current tick is pushed to the next
        grid tick — the seed would touch that team next tick too (it broke
        out of its advance loop mid-tick)."""
        a = self._team_array
        if not a.dirty:
            return
        events = self._events
        down = a.down_until_s
        for i in sorted(a.dirty):
            token = self._wake_tokens.pop(i, None)
            if token is not None:
                events.cancel(token)
            wake = a.wake_s[i]
            if wake == _INF:
                continue
            k = self._tick_of(wake) if wake > -_INF else 0
            k = max(k, self._processed + 1)
            if k >= self._num_ticks:
                continue
            kind = EventKind.REPAIR if down[i] == down[i] else EventKind.ARRIVAL
            self._wake_tokens[i] = events.schedule(k, kind, i)
        a.dirty.clear()

    # -- main loop ------------------------------------------------------------

    def _run_tick(self, t: float, k: int) -> None:
        """The seed tick body, phase for phase."""
        self._current_tick = k
        self._ticks_run += 1
        self._activate_requests(t)
        if t >= self._next_dispatch:
            self._dispatch_cycle(t)
        self._apply_due_actions(t)
        self._advance_teams(t)
        next_req = self._requests_arr.next_time()
        self._schedule_stream(
            EventKind.REQUEST_ACTIVATION,
            self._num_ticks if next_req is None else self._tick_of(next_req),
        )
        self._schedule_stream(
            EventKind.DISPATCH_CYCLE, self._tick_of(self._next_dispatch)
        )
        self._schedule_stream(
            EventKind.ACTION_APPLY,
            self._tick_of(self._action_queue[0][0])
            if self._action_queue
            else self._num_ticks,
        )
        self._sync_wake_events()

    def run(self) -> SimulationResult:
        cfg = self.config
        self._requests_arr.cursor = 0
        self._activation_cursor = 0
        self._next_dispatch = cfg.t0_s
        self._cycle_index = 0
        self._processed = -1
        self._ticks_run = 0
        events = self._events = EventHeap()
        self._wake_tokens.clear()
        self._stream_tokens.clear()
        self._schedule_stream(EventKind.DISPATCH_CYCLE, 0)
        first_req = self._requests_arr.next_time()
        if first_req is not None:
            self._schedule_stream(
                EventKind.REQUEST_ACTIVATION, self._tick_of(first_req)
            )
        for k, team_ids in self._breakdown_triggers.items():
            for team_id in team_ids:
                events.schedule(k, EventKind.BREAKDOWN, team_id)
        for bound in self._closure_bounds:
            kb = self._tick_of(bound)
            if kb < self._num_ticks:
                events.schedule(kb, EventKind.CLOSURE_CHANGE)
        self._team_array.dirty.clear()  # spawn state: everyone idle, wake +inf
        while True:
            ev = events.pop()
            if ev is None:
                break
            k = int(ev.time)
            if k <= self._processed:
                continue  # stale: that tick already ran (or was superseded)
            if k >= self._num_ticks:
                break  # heap is time-ordered; nothing in-window remains
            self._processed = k
            self._run_tick(self._tick_times[k], k)
        return self._result

