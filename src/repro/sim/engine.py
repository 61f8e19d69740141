"""The rescue-dispatching simulation engine.

Drives a fleet of rescue teams over one evaluation window (the paper: 100
teams, 24 hours, Sep 16) against a stream of ground-truth rescue requests:

* every ``dispatch_period_s`` (5 min) the pluggable dispatcher is called
  with the current observation; its commands take effect after its
  computation delay (IP baselines ~300 s, RL < 0.5 s);
* teams drive precomputed legs at flood-adjusted speeds over the operable
  network, picking up pending requests on every segment they traverse
  (up to capacity c), and deliver passengers to the nearest hospital;
* every pickup/delivery/serving-count event is recorded for the metrics
  module (Figs. 9-14).
"""

from __future__ import annotations

import heapq
import itertools
import logging
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.data.charlotte import CharlotteScenario
from repro.dispatch.base import (
    DispatchGuard,
    DispatchObservation,
    Dispatcher,
    TeamCommand,
    TeamView,
)
from repro.hospitals.hospitals import Hospital
from repro.perf.routing_cache import Router, routing_cache
from repro.roadnet.routing import Route
from repro.sim.requests import RescueRequest
from repro.sim.teams import RescueTeam, TeamState

if TYPE_CHECKING:  # the fault layer is optional; only the type is needed here
    from repro.faults.models import FaultInjector

logger = logging.getLogger("repro.sim.engine")


@dataclass(frozen=True)
class SimulationConfig:
    """Evaluation-window parameters (paper Section V-B defaults)."""

    t0_s: float
    t1_s: float
    num_teams: int = 100
    team_capacity: int = 5
    dispatch_period_s: float = 300.0
    step_s: float = 60.0
    #: Driving speed multiplier at full flood level (matches the trace
    #: generator so team travel times and civilian travel times agree).
    storm_slowdown: float = 0.5
    #: Requests served within this bound are "timely served" (paper: 30 min).
    timely_window_s: float = 1_800.0
    seed: int = 0
    #: Wall-clock budget for one dispatcher invocation; an overrun
    #: activates the fallback policy for that cycle.  ``None`` disables
    #: the check (exceptions are always guarded regardless).
    dispatch_budget_s: float | None = None
    #: Capacity of the incident ring buffer.  A chaos run tripping a
    #: breaker every cycle must not grow the run record without bound;
    #: once full, the oldest incidents are shed and counted in
    #: ``SimulationResult.incidents_dropped``.
    max_incidents: int = 10_000

    def __post_init__(self) -> None:
        if self.t1_s <= self.t0_s:
            raise ValueError("need t0 < t1")
        if self.num_teams < 1 or self.team_capacity < 1:
            raise ValueError("need at least one team with positive capacity")
        if self.step_s <= 0 or self.dispatch_period_s <= 0:
            raise ValueError("step and dispatch period must be positive")
        if self.step_s > self.dispatch_period_s:
            raise ValueError("step must not exceed the dispatch period")
        if self.timely_window_s <= 0:
            raise ValueError("timely window must be positive")
        if not 0.0 < self.storm_slowdown <= 1.0:
            raise ValueError("storm slowdown must be in (0, 1]")
        if self.dispatch_budget_s is not None and self.dispatch_budget_s <= 0:
            raise ValueError("dispatch budget must be positive (or None to disable)")
        if self.max_incidents < 1:
            raise ValueError("incident ring needs capacity for at least one event")


@dataclass(frozen=True)
class PickupEvent:
    request_id: int
    team_id: int
    t_s: float
    #: Driving time since the serving team began its current leg.
    driving_delay_s: float
    #: Pickup time minus request time, floored at 0 (paper's timeliness).
    timeliness_s: float


@dataclass(frozen=True)
class DeliveryEvent:
    request_id: int
    team_id: int
    t_s: float
    hospital_node: int


@dataclass(frozen=True)
class IncidentEvent:
    """One degradation event recorded during a run.

    Kinds: ``dispatcher_fallback`` (dispatcher raised, blew its compute
    budget, or an injected dispatch-center failure), ``dropped_command``
    (radio outage ate a command), ``breakdown`` / ``repair_complete``
    (vehicle failure lifecycle), ``reroute`` (a team detoured around a
    closed segment mid-leg), ``hook_error`` (a dispatcher hook raised and
    was ignored).
    """

    kind: str
    t_s: float
    team_id: int | None = None
    detail: str = ""


@dataclass
class SimulationResult:
    """Everything recorded during one simulation run."""

    config: SimulationConfig
    dispatcher_name: str
    requests: list[RescueRequest]
    pickups: list[PickupEvent] = field(default_factory=list)
    deliveries: list[DeliveryEvent] = field(default_factory=list)
    #: (cycle time, number of serving teams) samples, one per dispatch cycle.
    serving_samples: list[tuple[float, int]] = field(default_factory=list)
    #: Degradation events (fault injection and graceful-degradation paths).
    #: Bounded: a ring of the most recent ``config.max_incidents`` events.
    incidents: deque[IncidentEvent] = field(default_factory=deque)
    #: Oldest incidents shed once the ring filled up.
    incidents_dropped: int = 0

    def __post_init__(self) -> None:
        # Normalise to a bounded ring regardless of what the caller passed
        # (a plain list from older call sites works transparently).
        self.incidents = deque(self.incidents, maxlen=self.config.max_incidents)

    @property
    def num_served(self) -> int:
        return len(self.pickups)

    @property
    def num_unserved(self) -> int:
        return len(self.requests) - len(self.pickups)


class RescueSimulator:
    """Simulates one dispatcher over one evaluation window."""

    def __init__(
        self,
        scenario: CharlotteScenario,
        requests: list[RescueRequest],
        dispatcher: Dispatcher,
        config: SimulationConfig,
        faults: "FaultInjector | None" = None,
        router: Router | None = None,
        on_cycle: Callable[[int, float, bool], None] | None = None,
    ) -> None:
        self.scenario = scenario
        self.network = scenario.network
        #: Routing entry point for every in-sim Dijkstra: the network's
        #: closure-aware cache by default, or an explicit router (the
        #: equivalence tests pass a DirectRouter to reproduce seed behavior).
        self.router = router if router is not None else routing_cache(scenario.network)
        self.hospitals: list[Hospital] = scenario.hospitals
        self._hospital_nodes = {h.node_id for h in scenario.hospitals}
        self.dispatcher = dispatcher
        self.config = config
        self.requests = sorted(requests, key=lambda r: r.time_s)
        self._rng = np.random.default_rng(config.seed)
        self._teams = self._spawn_teams()
        self._pending: dict[int, deque[RescueRequest]] = {}
        self._requests_by_id = {r.request_id: r for r in self.requests}
        self._closed: frozenset[int] = frozenset()
        #: request_id -> time a team first started driving toward it.
        self._first_response: dict[int, float] = {}
        self._result = SimulationResult(
            config=config, dispatcher_name=dispatcher.name, requests=self.requests
        )
        self._action_queue: list[tuple[float, int, dict[int, TeamCommand]]] = []
        self._action_counter = itertools.count()
        #: Index of the first not-yet-activated request (requests are sorted).
        self._activation_cursor = 0
        self._next_dispatch = config.t0_s
        self._cycle_index = 0
        #: Fault layer: ``None`` means zero-cost (no per-step branching
        #: beyond one identity check).  A null injector is dropped here.
        self.faults = faults if faults is not None and not faults.is_null else None
        if self.faults is not None:
            self.faults.bind_segments(self.network.segment_ids())
        self._guard = DispatchGuard(dispatcher, budget_s=config.dispatch_budget_s)
        #: (team_id, window start) of breakdowns already triggered.
        self._handled_breakdowns: set[tuple[int, float]] = set()
        #: Observer invoked after every dispatch cycle with
        #: ``(cycle_index, t_s, dispatcher_ran)`` — the service loop's
        #: per-tick heartbeat (injected dispatch-center failures skip the
        #: guard entirely, so guard counters alone cannot prove liveness).
        self._on_cycle = on_cycle

    # -- setup ----------------------------------------------------------------

    def _spawn_teams(self) -> list[RescueTeam]:
        """Paper Section V-B: initial team positions are randomly distributed
        among the hospitals."""
        nodes = [h.node_id for h in self.hospitals]
        return [
            RescueTeam(
                team_id=i,
                capacity=self.config.team_capacity,
                node=int(self._rng.choice(nodes)),
            )
            for i in range(self.config.num_teams)
        ]

    # -- helpers ----------------------------------------------------------------

    def _record_incident(
        self, kind: str, t_s: float, team_id: int | None = None, detail: str = ""
    ) -> None:
        ring = self._result.incidents
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self._result.incidents_dropped += 1
        ring.append(IncidentEvent(kind=kind, t_s=t_s, team_id=team_id, detail=detail))
        logger.info(
            "incident %s t=%.0f%s%s",
            kind,
            t_s,
            f" team={team_id}" if team_id is not None else "",
            f" ({detail})" if detail else "",
        )

    def _begin_leg(
        self, team: RescueTeam, route: Route, t: float, state: TeamState, target: int | None
    ) -> None:
        """Start ``route`` at ``t`` with the storm's speed multiplier at ``t``."""
        flood = self.scenario.timeline.flood_level(t)
        mult = max(0.2, 1.0 - self.config.storm_slowdown * flood)
        leg_times = np.array(
            [self.network.segment(s).free_flow_time_s / mult for s in route.segment_ids]
        )
        team.begin_leg(route, mult, leg_times, t, state, target)

    def _nearest_hospital_node(self, node: int) -> int | None:
        times = self.router.time_from(node, closed=self._closed)
        best_node, best_t = None, float("inf")
        for h in self.hospitals:
            t = times.get(h.node_id, float("inf"))
            if t < best_t:
                best_node, best_t = h.node_id, t
        return best_node

    def _team_view(self, team: RescueTeam) -> TeamView:
        return TeamView(
            team_id=team.team_id,
            node=team.node,
            state=team.state.value,
            capacity_left=team.capacity_left,
            assignable=team.is_assignable,
            total_pickups=team.total_pickups,
            target_segment=team.target_segment,
        )

    def _observation(self, t: float) -> DispatchObservation:
        return DispatchObservation(
            t_s=t,
            teams=[self._team_view(tm) for tm in self._teams],
            pending={s: len(q) for s, q in self._pending.items() if q},
            closed=self._closed,
            network=self.network,
            hospitals=self.hospitals,
        )

    # -- request lifecycle ---------------------------------------------------------

    def _take_due_requests(self, upto_t: float) -> list[RescueRequest]:
        """Indexed pop of every not-yet-active request with ``time_s <= t``.

        ``self.requests`` is sorted by time, so an advancing cursor replaces
        the old deque-head rescan; activation order is unchanged (pinned by
        ``tests/test_activation_order.py``).  The event kernel overrides
        this with its :class:`~repro.sim.kernel.state.RequestArray` pop.
        """
        start = self._activation_cursor
        reqs = self.requests
        end, n = start, len(reqs)
        while end < n and reqs[end].time_s <= upto_t:
            end += 1
        if end == start:
            return []
        self._activation_cursor = end
        return reqs[start:end]

    def _activate_requests(self, upto_t: float) -> None:
        newly = self._take_due_requests(upto_t)
        for req in newly:
            self._pending.setdefault(req.segment_id, deque()).append(req)
        if newly:
            incident = self._guard.observe_requests(newly)
            if incident is not None:
                self._record_incident("hook_error", upto_t, detail=incident)
            for req in newly:
                self._immediate_pickup(req)

    def _immediate_pickup(self, req: RescueRequest) -> None:
        """A team already standing at the request's segment serves it on the
        spot — the paper's "rescue team has already arrived at the person's
        position before the actual request" case (timeliness 0)."""
        seg = self.network.segment(req.segment_id)
        for team in self._teams:
            if (
                team.state is TeamState.IDLE
                and not team.is_down
                and team.capacity_left > 0
                and team.node in (seg.u, seg.v)
            ):
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
                return

    def _reanchor_pending(self) -> None:
        """Move pending requests off segments the flood has since closed.

        The pick-up point is the water's edge; as the flood rises or
        recedes, the closest drivable segment to a trapped person changes.
        Without this, a request whose anchor submerges mid-day is
        unreachable for hours regardless of dispatcher.
        """
        for seg in [s for s in self._pending if s in self._closed]:
            queue = self._pending.pop(seg)
            for req in queue:
                node = self.network.landmark(req.node_id)
                candidates = self.network.nearest_segments(node.x, node.y, 64)
                new_seg = next(
                    (s for s in candidates if s not in self._closed), req.segment_id
                )
                moved = RescueRequest(
                    request_id=req.request_id,
                    person_id=req.person_id,
                    time_s=req.time_s,
                    segment_id=new_seg,
                    node_id=req.node_id,
                )
                self._pending.setdefault(new_seg, deque()).append(moved)
        # Keep FIFO-by-request-time semantics after merging queues.
        for seg, queue in self._pending.items():
            if len(queue) > 1:
                self._pending[seg] = deque(sorted(queue, key=lambda r: r.time_s))

    def _pickup_on_segment(
        self, team: RescueTeam, segment_id: int, exit_t: float
    ) -> None:
        """Pick up requests while traversing a segment.

        The pickup is stamped at the segment's *exit* time: the person is
        reached somewhere along the segment, and using the exit bound keeps
        driving delays strictly positive.
        """
        q = self._pending.get(segment_id)
        if not q:
            return
        while q and team.capacity_left > 0:
            if q[0].time_s > exit_t:
                break
            req = q.popleft()
            # Driving delay: from the moment the system first started
            # driving a team toward this request (its first response) to
            # the pickup.  Re-commands and detours in between count as
            # driving, not as queueing.  Incidental pickups with no prior
            # response fall back to the serving team's own leg.
            responded = self._first_response.get(
                req.request_id, max(team.leg_start_s, req.time_s)
            )
            self._result.pickups.append(
                PickupEvent(
                    request_id=req.request_id,
                    team_id=team.team_id,
                    t_s=exit_t,
                    driving_delay_s=max(0.0, exit_t - max(responded, req.time_s)),
                    timeliness_s=max(0.0, exit_t - req.time_s),
                )
            )
            team.passengers.append(req.request_id)
            team.total_pickups += 1

    # -- movement -----------------------------------------------------------------------

    def _hospital_leg_route(self, node: int, hosp: int) -> Route | None:
        """The routing call behind every drive-to-hospital / depot leg.

        ``hosp`` is always ``_nearest_hospital_node(node)``; the event
        kernel overrides this pair with one shared nearest-hospital field
        per closed set instead of one search per query.
        """
        return self.router.route(node, hosp, closed=self._closed)

    def _route_to_hospital(self, team: RescueTeam, t: float) -> None:
        hosp = self._nearest_hospital_node(team.node)
        if hosp is None:
            team.stop()  # marooned: wait for the flood to recede
            return
        if hosp == team.node:
            self._deliver(team, t)
            return
        route = self._hospital_leg_route(team.node, hosp)
        if route is None or route.is_trivial:
            team.stop()
            return
        self._begin_leg(team, route, t, TeamState.TO_HOSPITAL, None)

    def _deliver(self, team: RescueTeam, t: float) -> None:
        for rid in team.passengers:
            self._result.deliveries.append(
                DeliveryEvent(request_id=rid, team_id=team.team_id, t_s=t, hospital_node=team.node)
            )
        team.passengers.clear()
        team.stop()

    def _apply_command(self, team: RescueTeam, cmd: TeamCommand, t: float) -> None:
        team.pending_assignment = None
        if (
            not cmd.is_depot
            and team.state is TeamState.TO_SEGMENT
            and team.target_segment == cmd.segment_id
        ):
            return  # already en route to exactly this destination
        if cmd.is_depot:
            if team.node in self._hospital_nodes:
                team.stop()
                return
            hosp = self._nearest_hospital_node(team.node)
            if hosp is None or hosp == team.node:
                team.stop()
                return
            route = self._hospital_leg_route(team.node, hosp)
            if route is None or route.is_trivial:
                team.stop()
                return
            self._begin_leg(team, route, t, TeamState.TO_SEGMENT, None)
            return
        # Flood-aware dispatchers plan over the operable network; unaware
        # ones plan over the full map and their teams stall at the water.
        planning_closed = self._closed if self.dispatcher.flood_aware else frozenset()
        route = self.router.route_to_segment(
            team.node, cmd.segment_id, closed=planning_closed
        )
        if route is None:
            team.stop()  # destination unreachable through the flood
            return
        self._begin_leg(team, route, t, TeamState.TO_SEGMENT, cmd.segment_id)
        for req in self._pending.get(cmd.segment_id, ()):
            if req.time_s <= t:
                self._first_response.setdefault(req.request_id, t)

    def _on_arrival(self, team: RescueTeam, t_arr: float) -> None:
        if team.state is TeamState.TO_HOSPITAL:
            self._deliver(team, t_arr)
        elif team.passengers:
            team.stop()
            self._route_to_hospital(team, t_arr)
        else:
            team.stop()
        if team.pending_assignment is not None and team.state is TeamState.IDLE:
            self._apply_command(team, team.pending_assignment, t_arr)

    def _advance_team(self, team: RescueTeam, t: float) -> None:
        if team.state is TeamState.IDLE:
            if team.pending_assignment is not None:
                self._apply_command(team, team.pending_assignment, t)
            if team.state is TeamState.IDLE:
                return
        while team.is_driving and team.node_times is not None:
            idx = team.next_node_idx
            if idx >= len(team.route_nodes) or team.node_times[idx] > t:
                break
            seg = team.route_segments[idx - 1]
            if seg in self._closed:
                # The road ahead is underwater.  The driver detours locally:
                # re-route to the same destination over the operable network
                # from the stall point.  The time already spent driving into
                # the flood is the paper's "wasted time on routes with
                # unavailable road segments".
                stall_t = float(team.node_times[idx - 1])
                orig_leg_start = team.leg_start_s
                orig_state = team.state
                orig_target = team.target_segment
                team.stop()
                self._record_incident(
                    "reroute", stall_t, team_id=team.team_id,
                    detail=f"segment {seg} closed mid-leg",
                )
                if orig_state is TeamState.TO_HOSPITAL or team.passengers:
                    self._route_to_hospital(team, stall_t)
                elif orig_target is not None and orig_target not in self._closed:
                    route = self.router.route_to_segment(
                        team.node, orig_target, closed=self._closed
                    )
                    if route is not None:
                        self._begin_leg(
                            team, route, stall_t, TeamState.TO_SEGMENT, orig_target
                        )
                        team.leg_start_s = orig_leg_start
                break
            node_t = float(team.node_times[idx])
            team.node = team.route_nodes[idx]
            team.next_node_idx += 1
            if team.capacity_left > 0:
                self._pickup_on_segment(team, seg, node_t)
            if team.next_node_idx >= len(team.route_nodes):
                self._on_arrival(team, node_t)
            elif team.pending_assignment is not None and team.is_assignable:
                self._apply_command(team, team.pending_assignment, node_t)
            elif team.capacity_left == 0 and team.state is TeamState.TO_SEGMENT:
                team.stop()
                self._route_to_hospital(team, node_t)

    # -- fault handling ----------------------------------------------------------------------

    def _update_breakdown(self, team: RescueTeam, t: float) -> bool:
        """Advance the team's breakdown state; True while out of service.

        A breakdown strands the team (and its passengers) where it stands
        for the repair duration; on recovery a loaded team heads for a
        hospital first, an empty one waits for re-dispatch.
        """
        if team.is_down:
            if t < team.down_until_s:
                return True
            team.repair()
            self._record_incident("repair_complete", t, team_id=team.team_id)
            if team.passengers:
                self._route_to_hospital(team, t)
        window = self.faults.breakdown_window(team.team_id, t)
        if window is not None:
            key = (team.team_id, window.start_s)
            if key not in self._handled_breakdowns:
                self._handled_breakdowns.add(key)
                team.break_down(window.end_s)
                self._record_incident(
                    "breakdown", t, team_id=team.team_id,
                    detail=f"inoperable until t={window.end_s:.0f}s "
                    f"({len(team.passengers)} stranded passengers)",
                )
                return True
        return team.is_down

    def _closed_now(self, t: float) -> frozenset[int]:
        """Flood-closed segments, plus fault-injected closures if any."""
        closed = self.network.closed_segments(self.scenario.flood, t)
        if self.faults is not None:
            extra = self.faults.closed_segments(t)
            if extra:
                closed = frozenset(closed | extra)
        return closed

    def _dispatch_cycle_action(
        self, obs: DispatchObservation, t: float, cycle_index: int
    ) -> tuple[dict[int, TeamCommand], bool]:
        """One guarded dispatcher invocation: ``(commands, ran)``.

        ``ran`` is False when an injected dispatch-center failure skipped
        the call entirely (its hooks must not run either).  Exceptions and
        compute-budget overruns inside the dispatcher yield the fallback
        policy: no new commands — teams retain their current orders and
        idle teams hold position.
        """
        if self.faults is not None and self.faults.dispatcher_fails(cycle_index):
            self._record_incident(
                "dispatcher_fallback", t, detail="injected dispatch-center failure"
            )
            return {}, False
        action, incident = self._guard.dispatch(obs)
        if incident is not None:
            self._record_incident("dispatcher_fallback", t, detail=incident)
        return action, True

    # -- main loop -------------------------------------------------------------------------------

    def _serving_count(self, action: dict[int, TeamCommand]) -> int:
        """Teams counted as serving for this cycle's sample: commanded to a
        segment this cycle, or already driving to a hospital / an assigned
        segment — minus teams a depot command just recalled."""
        serving_ids = {tid for tid, c in action.items() if not c.is_depot}
        serving_ids.update(
            tm.team_id
            for tm in self._teams
            if tm.state is TeamState.TO_HOSPITAL
            or (tm.state is TeamState.TO_SEGMENT and tm.target_segment is not None)
        )
        # A depot command overrides an in-flight serving leg.
        serving_ids -= {tid for tid, c in action.items() if c.is_depot}
        return len(serving_ids)

    def _dispatch_cycle(self, t: float) -> None:
        """One dispatch cycle: refresh closures, invoke the guarded
        dispatcher, queue its commands behind the computation delay, and
        record the serving sample."""
        self._closed = self._closed_now(t)
        self._reanchor_pending()
        obs = self._observation(t)
        action, ran = self._dispatch_cycle_action(obs, t, self._cycle_index)
        apply_at = t + self.dispatcher.computation_delay_s
        if self.faults is not None:
            apply_at += self.faults.comm_latency_s
        heapq.heappush(
            self._action_queue, (apply_at, next(self._action_counter), action)
        )
        self._result.serving_samples.append((t, self._serving_count(action)))
        if ran:
            incident = self._guard.on_cycle_end(obs)
            if incident is not None:
                self._record_incident("hook_error", t, detail=incident)
        if self._on_cycle is not None:
            self._on_cycle(self._cycle_index, t, ran)
        self._next_dispatch += self.config.dispatch_period_s
        self._cycle_index += 1

    def _deliver_command(self, team: RescueTeam, cmd: TeamCommand, apply_t: float) -> None:
        """Hand one due command to one team (or drop it on a radio outage)."""
        if self.faults is not None and self.faults.comm_blocked(team.team_id, apply_t):
            self._record_incident(
                "dropped_command", apply_t, team_id=team.team_id,
                detail="radio outage",
            )
            return
        team.pending_assignment = cmd

    def _apply_due_actions(self, t: float) -> None:
        while self._action_queue and self._action_queue[0][0] <= t:
            apply_t, _, action = heapq.heappop(self._action_queue)
            for team in self._teams:
                cmd = action.get(team.team_id)
                if cmd is None or not team.is_assignable:
                    continue
                self._deliver_command(team, cmd, apply_t)

    def _advance_teams(self, t: float) -> None:
        for team in self._teams:
            if self.faults is not None and self._update_breakdown(team, t):
                continue
            self._advance_team(team, t)

    def run(self) -> SimulationResult:
        cfg = self.config
        t = cfg.t0_s
        self._activation_cursor = 0
        self._next_dispatch = cfg.t0_s
        self._cycle_index = 0
        while t <= cfg.t1_s:
            self._activate_requests(t)
            if t >= self._next_dispatch:
                self._dispatch_cycle(t)
            self._apply_due_actions(t)
            self._advance_teams(t)
            t += cfg.step_s
        return self._result
