"""Randomized round-trip: TeamArray columns == per-object RescueTeam.

Every mutation the engine ever performs on a team — ``begin_leg``,
node-by-node advancement, ``stop``, ``break_down``/``repair``, passenger
boarding and delivery, deferred-command handoff — is applied in random
order to a :class:`RescueTeam` and to the matching
:class:`TeamArrayView`, and after *every* op the view must expose exactly
the object's state (floats and node-time arrays bitwise).  The columnar
invariants (``capacity_left``, ``state_code``, the ``wake_s`` scheduling
contract) and the fleet queries (``attention``,
``serving_ids``, ``idle_team_at``) are cross-checked against brute-force
loops over the same views.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.roadnet.routing import Route
from repro.sim.kernel import TeamArray, TeamArrayView
from repro.sim.kernel.state import _NO_TARGET, _STATE_CODE, team_array_from_views
from repro.sim.teams import RescueTeam, TeamState

CAPACITY = 3


def _random_route(rng: np.random.Generator, src: int) -> tuple[Route, np.ndarray]:
    n_segs = int(rng.integers(1, 5))
    nodes = [src] + [int(rng.integers(0, 1_000)) for _ in range(n_segs)]
    seg_ids = tuple(int(rng.integers(0, 10_000)) for _ in range(n_segs))
    times = rng.uniform(5.0, 300.0, size=n_segs)
    route = Route(
        nodes=tuple(nodes),
        segment_ids=seg_ids,
        travel_time_s=float(times.sum()),
        length_m=float(n_segs * 100.0),
    )
    return route, times


def _assert_mirrors(team: RescueTeam, view: TeamArrayView) -> None:
    assert view.team_id == team.team_id
    assert view.capacity == team.capacity
    assert view.node == team.node
    assert view.state is team.state
    assert list(view.passengers) == list(team.passengers)
    assert view.route_nodes == team.route_nodes
    assert view.route_segments == team.route_segments
    if team.node_times is None:
        assert view.node_times is None
    else:
        assert view.node_times is not None
        assert all(type(x) is float for x in view.node_times)
        assert np.asarray(view.node_times).tobytes() == team.node_times.tobytes()
    assert view.next_node_idx == team.next_node_idx
    assert view.target_segment == team.target_segment
    assert view.leg_start_s == team.leg_start_s
    assert view.pending_assignment is team.pending_assignment
    assert view.total_pickups == team.total_pickups
    assert view.down_until_s == team.down_until_s
    assert view.capacity_left == team.capacity_left
    assert view.is_driving == team.is_driving
    assert view.is_down == team.is_down
    assert view.is_assignable == team.is_assignable
    assert view.arrival_time_s == team.arrival_time_s


def _assert_columns_consistent(array: TeamArray) -> None:
    """Column invariants the engine's vectorized scans rely on."""
    for i, view in enumerate(array.views()):
        assert array.capacity_left[i] == array.capacity - len(array.passengers[i])
        assert array.state_code[i] == _STATE_CODE[array.state[i]]
        assert (array.target_segment[i] == _NO_TARGET) == (
            view.target_segment is None
        )
        # The wake_s contract, recomputed from first principles.
        down = array.down_until_s[i]
        if down == down:
            expected = float(down)
        elif array.state[i] is not TeamState.IDLE:
            idx = int(array.next_node_idx[i])
            times = array.node_times[i]
            if times is not None and idx < len(times):
                expected = float(times[idx])
            else:
                expected = float("inf")
        elif array.pending_assignment[i] is not None:
            expected = float("-inf")
        else:
            expected = float("inf")
        assert array.wake_s[i] == expected


def _apply_random_op(
    rng: np.random.Generator, team: RescueTeam, view: TeamArrayView, t: float
) -> None:
    """One engine-shaped mutation, applied identically to both."""
    roll = rng.random()
    if roll < 0.25:
        route, times = _random_route(rng, team.node)
        state = TeamState.TO_SEGMENT if rng.random() < 0.5 else TeamState.TO_HOSPITAL
        target = (
            int(route.segment_ids[-1])
            if state is TeamState.TO_SEGMENT and rng.random() < 0.8
            else None
        )
        team.begin_leg(route, 1.0, times, t, state, target)
        view.begin_leg(route, 1.0, times, t, state, target)
    elif roll < 0.45:
        # Advance through one node, the way _advance_team moves teams.
        if team.is_driving and team.node_times is not None:
            idx = team.next_node_idx
            if idx < len(team.route_nodes):
                team.node = team.route_nodes[idx]
                team.next_node_idx += 1
                view.node = view.route_nodes[idx]
                view.next_node_idx += 1
            else:
                team.stop()
                view.stop()
    elif roll < 0.55:
        team.stop()
        view.stop()
    elif roll < 0.65:
        until = t + float(rng.uniform(60.0, 3_600.0))
        team.break_down(until)
        view.break_down(until)
    elif roll < 0.72:
        if team.is_down:
            team.repair()
            view.repair()
    elif roll < 0.82:
        if team.capacity_left > 0:
            rid = int(rng.integers(0, 100_000))
            team.passengers.append(rid)
            team.total_pickups += 1
            view.passengers.append(rid)
            view.total_pickups += 1
        else:
            team.passengers.clear()
            view.passengers.clear()
    elif roll < 0.92:
        cmd = object() if rng.random() < 0.7 else None
        team.pending_assignment = cmd
        view.pending_assignment = cmd
    else:
        team.passengers.clear()
        view.passengers.clear()


@pytest.mark.parametrize("seed", range(25))
def test_randomized_round_trip(seed):
    rng = np.random.default_rng(seed)
    n_teams = int(rng.integers(2, 6))
    spawn = [int(rng.integers(0, 1_000)) for _ in range(n_teams)]
    array = TeamArray(CAPACITY, spawn)
    views = array.views()
    teams = [
        RescueTeam(team_id=i, capacity=CAPACITY, node=spawn[i])
        for i in range(n_teams)
    ]
    t = 0.0
    for _ in range(60):
        t += float(rng.uniform(0.0, 120.0))
        i = int(rng.integers(n_teams))
        _apply_random_op(rng, teams[i], views[i], t)
        _assert_mirrors(teams[i], views[i])
        _assert_columns_consistent(array)
        # Vectorized fleet queries vs brute force over the object fleet.
        due = [
            j for j in range(n_teams) if float(array.wake_s[j]) <= t
        ]
        assert [int(k) for k in array.attention(t)] == due
        serving = {
            tm.team_id
            for tm in teams
            if tm.state is TeamState.TO_HOSPITAL
            or (tm.state is TeamState.TO_SEGMENT and tm.target_segment is not None)
        }
        assert array.serving_ids() == serving
        probe = (teams[i].node, int(rng.integers(0, 1_000)))
        brute = next(
            (
                tm.team_id
                for tm in teams
                if tm.state is TeamState.IDLE
                and not tm.is_down
                and tm.capacity_left > 0
                and tm.node in probe
            ),
            None,
        )
        assert array.idle_team_at(probe) == brute


def test_team_array_from_views_identifies_backing_store():
    array = TeamArray(CAPACITY, [1, 2, 3])
    assert team_array_from_views(array.views()) is array
    plain = [RescueTeam(team_id=0, capacity=CAPACITY, node=1)]
    assert team_array_from_views(plain) is None
    assert team_array_from_views([]) is None


def test_begin_leg_arrival_times_bitwise_equal_seed_formula():
    """The node-time construction must be the seed's exact float recipe."""
    rng = np.random.default_rng(7)
    array = TeamArray(CAPACITY, [5])
    view = array.view(0)
    team = RescueTeam(team_id=0, capacity=CAPACITY, node=5)
    route, times = _random_route(rng, 5)
    t0 = 1_234.567
    team.begin_leg(route, 1.0, times, t0, TeamState.TO_SEGMENT, None)
    view.begin_leg(route, 1.0, times, t0, TeamState.TO_SEGMENT, None)
    assert team.node_times is not None and view.node_times is not None
    assert team.node_times.tobytes() == np.asarray(view.node_times).tobytes()


def test_validation_mirrors_rescue_team():
    array = TeamArray(CAPACITY, [5])
    view = array.view(0)
    rng = np.random.default_rng(3)
    route, times = _random_route(rng, 99)  # wrong source node
    with pytest.raises(ValueError):
        view.begin_leg(route, 1.0, times, 0.0, TeamState.TO_SEGMENT, None)
    route, times = _random_route(rng, 5)
    with pytest.raises(ValueError):
        view.begin_leg(route, 1.0, times, 0.0, TeamState.IDLE, None)
    with pytest.raises(ValueError):
        view.begin_leg(route, 1.0, times[:-1], 0.0, TeamState.TO_SEGMENT, None)
    with pytest.raises(ValueError):
        TeamArray(0, [1])
    with pytest.raises(ValueError):
        TeamArray(CAPACITY, [])
