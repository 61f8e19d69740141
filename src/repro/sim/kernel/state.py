"""Structure-of-arrays team and request state for the event kernel.

:class:`TeamArray` keeps every team's scalar fields in per-field columns
(position, state code, remaining capacity, wake-up time, repair time, leg
progress), so per-tick questions — *which teams need attention at tick
t?*, *is any idle team standing at this segment?* — are one loop over a
column instead of attribute walks over ``RescueTeam`` objects.  The
columns are plain Python lists: a fleet holds 20-100 teams, and the
kernel reads and writes one team's scalars far more often than it scans
a column, so list items (no numpy scalar boxing) are the cheap access.
Ragged per-team payloads (route node/segment tuples, absolute
node-arrival times, passenger lists, the deferred dispatch command) sit
in lists beside them, one entry per team.

:class:`TeamArrayView` is a zero-copy per-team facade over one column
index with the full attribute/method surface of
:class:`repro.sim.teams.RescueTeam` — the seed engine's team logic runs
on views unchanged, every write lands in the columns, and the randomized
round-trip suite (``tests/test_kernel_team_array.py``) pins view state
bit-equal to a ``RescueTeam`` driven through the same mutations.

The ``wake_s`` column is the kernel's scheduling contract: for every team
it holds the earliest absolute time at which the seed tick body could do
anything observable to that team (next node arrival while driving, repair
completion while broken down, "now" when idle with a deferred command,
``+inf`` otherwise).  Every mutator keeps it current and adds the team to
the ``dirty`` set, which the engine drains once per processed tick to
reschedule wake events — over-eager wake-ups are harmless (the tick body
is a provable no-op), missed wake-ups are the only hazard, hence the
conservative rule.  Code that writes the columns directly (the kernel's
advance loop) calls :meth:`TeamArray.recompute_wake` when it is done.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterable

import numpy as np

from repro.roadnet.routing import Route
from repro.sim.requests import RescueRequest
from repro.sim.teams import TeamState

_STATE_CODE = {TeamState.IDLE: 0, TeamState.TO_SEGMENT: 1, TeamState.TO_HOSPITAL: 2}
_NO_TARGET = -1
_INF = float("inf")
_NAN = float("nan")


class _PassengerList(list[int]):
    """Passenger list that mirrors its length into the capacity column."""

    __slots__ = ("_array", "_i")

    def __init__(self, array: "TeamArray", i: int) -> None:
        super().__init__()
        self._array = array
        self._i = i

    def append(self, request_id: int) -> None:
        super().append(request_id)
        self._array.capacity_left[self._i] = self._array.capacity - len(self)

    def clear(self) -> None:
        super().clear()
        self._array.capacity_left[self._i] = self._array.capacity


class TeamArray:
    """Columnar state of the whole fleet (see module docstring)."""

    def __init__(self, capacity: int, nodes: Iterable[int]) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        node_list = [int(n) for n in nodes]
        n = len(node_list)
        if n < 1:
            raise ValueError("need at least one team")
        self.capacity = int(capacity)
        self.num_teams = n
        # -- scalar columns --------------------------------------------------
        self.node = node_list
        self.state_code = [0] * n
        self.capacity_left = [self.capacity] * n
        self.next_node_idx = [0] * n
        self.target_segment = [_NO_TARGET] * n
        self.leg_start_s = [0.0] * n
        self.total_pickups = [0] * n
        #: Repair time while broken down, NaN while operational.
        self.down_until_s = [_NAN] * n
        self.wake_s = [_INF] * n
        # -- ragged per-team payloads --------------------------------------
        self.state: list[TeamState] = [TeamState.IDLE] * n
        self.route_nodes: list[tuple[int, ...]] = [()] * n
        self.route_segments: list[tuple[int, ...]] = [()] * n
        #: Absolute arrival time per route node of the current leg.
        self.node_times: list[list[float] | None] = [None] * n
        self.passengers: list[_PassengerList] = [_PassengerList(self, i) for i in range(n)]
        self.pending_assignment: list[object | None] = [None] * n
        #: Teams whose ``wake_s`` changed since the engine last drained
        #: this set (scheduling only, never results).
        self.dirty: set[int] = set()
        self._views = [TeamArrayView(self, i) for i in range(n)]

    def views(self) -> "list[TeamArrayView]":
        return list(self._views)

    def view(self, i: int) -> "TeamArrayView":
        return self._views[i]

    def recompute_wake(self, i: int) -> None:
        """Re-derive team ``i``'s ``wake_s`` from its columns."""
        down = self.down_until_s[i]
        if down == down:  # not NaN: broken down, wake at repair completion
            wake = down
        elif self.state_code[i]:
            idx = self.next_node_idx[i]
            times = self.node_times[i]
            wake = times[idx] if times is not None and idx < len(times) else _INF
        elif self.pending_assignment[i] is not None:
            wake = -_INF  # apply the deferred command this tick
        else:
            wake = _INF
        if wake != self.wake_s[i]:
            self.wake_s[i] = wake
            self.dirty.add(i)

    def begin_leg(
        self,
        i: int,
        route: Route,
        node_times: list[float],
        t_now: float,
        state: TeamState,
        target_segment: int | None,
    ) -> None:
        """Start team ``i`` on ``route`` with precomputed ``node_times``
        (``t_now`` first, one absolute arrival time per route node)."""
        if state is TeamState.IDLE:
            raise ValueError("a leg must target a segment or a hospital")
        if route.src != self.node[i]:
            raise ValueError(
                f"route starts at {route.src} but team {i} is at {self.node[i]}"
            )
        self.route_nodes[i] = route.nodes
        self.route_segments[i] = route.segment_ids
        self.node_times[i] = node_times
        self.next_node_idx[i] = 1
        self.state[i] = state
        self.state_code[i] = _STATE_CODE[state]
        self.target_segment[i] = _NO_TARGET if target_segment is None else target_segment
        self.leg_start_s[i] = t_now
        self.recompute_wake(i)

    def attention(self, t: float) -> list[int]:
        """Ascending indices of teams the tick body must visit at ``t``."""
        return [i for i, wake in enumerate(self.wake_s) if wake <= t]

    def serving_ids(self) -> set[int]:
        """Teams driving to a hospital or to an assigned segment — the
        fleet half of the seed serving-sample census."""
        return {
            i
            for i, (code, target) in enumerate(zip(self.state_code, self.target_segment))
            if code == 2 or (code == 1 and target != _NO_TARGET)
        }

    def idle_team_at(self, nodes: tuple[int, int]) -> int | None:
        """First (lowest-id) idle, operable team with spare capacity
        standing at either endpoint — the seed ``_immediate_pickup`` scan."""
        u, v = nodes
        codes, down, left = self.state_code, self.down_until_s, self.capacity_left
        for i, node in enumerate(self.node):
            if (
                (node == u or node == v)
                and codes[i] == 0
                and down[i] != down[i]  # NaN == operational
                and left[i] > 0
            ):
                return i
        return None


class TeamArrayView:
    """One team's :class:`RescueTeam`-shaped window into the columns."""

    __slots__ = ("_a", "_i")

    def __init__(self, array: TeamArray, i: int) -> None:
        self._a = array
        self._i = i

    # -- identity -----------------------------------------------------------

    @property
    def team_id(self) -> int:
        return self._i

    @property
    def capacity(self) -> int:
        return self._a.capacity

    # -- columns ------------------------------------------------------------

    @property
    def node(self) -> int:
        return self._a.node[self._i]

    @node.setter
    def node(self, value: int) -> None:
        self._a.node[self._i] = int(value)

    @property
    def state(self) -> TeamState:
        return self._a.state[self._i]

    @state.setter
    def state(self, value: TeamState) -> None:
        self._a.state[self._i] = value
        self._a.state_code[self._i] = _STATE_CODE[value]
        self._a.recompute_wake(self._i)

    @property
    def passengers(self) -> _PassengerList:
        return self._a.passengers[self._i]

    @property
    def route_nodes(self) -> tuple[int, ...]:
        return self._a.route_nodes[self._i]

    @property
    def route_segments(self) -> tuple[int, ...]:
        return self._a.route_segments[self._i]

    @property
    def node_times(self) -> list[float] | None:
        return self._a.node_times[self._i]

    @property
    def next_node_idx(self) -> int:
        return self._a.next_node_idx[self._i]

    @next_node_idx.setter
    def next_node_idx(self, value: int) -> None:
        self._a.next_node_idx[self._i] = int(value)
        self._a.recompute_wake(self._i)

    @property
    def target_segment(self) -> int | None:
        value = self._a.target_segment[self._i]
        return None if value == _NO_TARGET else value

    @property
    def leg_start_s(self) -> float:
        return self._a.leg_start_s[self._i]

    @leg_start_s.setter
    def leg_start_s(self, value: float) -> None:
        self._a.leg_start_s[self._i] = float(value)

    @property
    def pending_assignment(self) -> object | None:
        return self._a.pending_assignment[self._i]

    @pending_assignment.setter
    def pending_assignment(self, value: object | None) -> None:
        self._a.pending_assignment[self._i] = value
        self._a.recompute_wake(self._i)

    @property
    def total_pickups(self) -> int:
        return self._a.total_pickups[self._i]

    @total_pickups.setter
    def total_pickups(self, value: int) -> None:
        self._a.total_pickups[self._i] = int(value)

    @property
    def down_until_s(self) -> float | None:
        value = self._a.down_until_s[self._i]
        return None if value != value else value

    # -- derived properties (seed formulas) ---------------------------------

    @property
    def capacity_left(self) -> int:
        return self._a.capacity_left[self._i]

    @property
    def is_driving(self) -> bool:
        return self._a.state_code[self._i] != 0

    @property
    def is_down(self) -> bool:
        down = self._a.down_until_s[self._i]
        return down == down

    @property
    def is_assignable(self) -> bool:
        return self._a.state_code[self._i] != 2 and not self.is_down

    @property
    def arrival_time_s(self) -> float | None:
        times = self._a.node_times[self._i]
        return None if times is None else times[-1]

    # -- transitions (seed RescueTeam semantics) -----------------------------

    def begin_leg(
        self,
        route: Route,
        speed_multiplier: float,
        segment_times_s: np.ndarray,
        t_now: float,
        state: TeamState,
        target_segment: int | None,
    ) -> None:
        if len(segment_times_s) != len(route.segment_ids):
            raise ValueError("segment_times_s must align with the route")
        t_now = float(t_now)
        node_times = np.concatenate([[t_now], t_now + np.cumsum(segment_times_s)])
        self._a.begin_leg(
            self._i, route, node_times.tolist(), t_now, state, target_segment
        )

    def stop(self) -> None:
        a, i = self._a, self._i
        a.route_nodes[i] = ()
        a.route_segments[i] = ()
        a.node_times[i] = None
        a.next_node_idx[i] = 0
        a.target_segment[i] = _NO_TARGET
        a.state[i] = TeamState.IDLE
        a.state_code[i] = 0
        a.recompute_wake(i)

    def break_down(self, repair_done_s: float) -> None:
        if self.is_driving:
            self.stop()
        self._a.down_until_s[self._i] = float(repair_done_s)
        self._a.recompute_wake(self._i)

    def repair(self) -> None:
        self._a.down_until_s[self._i] = _NAN
        self._a.recompute_wake(self._i)


class RequestArray:
    """Activation-time column over the sorted request list.

    Activation is an indexed pop: a cursor over the presorted
    ``time_s`` column replaces the seed's repeated deque head rescans,
    and ``next_time`` is what the kernel schedules its next
    request-activation event from.
    """

    def __init__(self, requests: list[RescueRequest]) -> None:
        self.requests = requests
        self.time_s = [float(r.time_s) for r in requests]
        if any(b < a for a, b in zip(self.time_s, self.time_s[1:])):
            raise ValueError("requests must be sorted by time")
        self.cursor = 0

    def __len__(self) -> int:
        return len(self.requests)

    def next_time(self) -> float | None:
        """Activation time of the next inactive request, if any."""
        if self.cursor >= len(self.requests):
            return None
        return self.time_s[self.cursor]

    def take_due(self, upto_t: float) -> list[RescueRequest]:
        """Pop every request with ``time_s <= upto_t``, in order."""
        start = self.cursor
        end = bisect_right(self.time_s, upto_t)
        if end <= start:
            return []
        self.cursor = end
        return self.requests[start:end]


def team_array_from_views(views: "list[TeamArrayView] | list[Any]") -> TeamArray | None:
    """The backing :class:`TeamArray` when ``views`` came from one."""
    if views and isinstance(views[0], TeamArrayView):
        return views[0]._a
    return None
