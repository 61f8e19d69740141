"""The "Schedule" baseline — Van den Berg et al. [5].

On-demand integer-programming dispatch for *normal* situations:

* reacts only to already-called-in requests (no prediction);
* solves an assignment IP minimizing total driving delay each period;
* is flood-unaware: its cost matrix uses free-flow travel times on the
  *full* road network, so its estimates are wrong wherever segments are
  destroyed (paper: "Schedule does not consider the real-time road network
  connection status ... which causes the emergency vehicles to waste time
  on routes with unavailable road segments");
* keeps every surplus team posted at a standby segment, so its number of
  serving teams is constant (Fig. 14);
* carries the paper's ~300 s IP computation delay.
"""

from __future__ import annotations

from repro.dispatch.assignment import expand_demand_slots, solve_assignment
from repro.dispatch.base import (
    DispatchObservation,
    Dispatcher,
    TeamCommand,
    command_segment,
)
from repro.dispatch.standby import standby_segments
from repro.roadnet.matrix import travel_time_oracle


class ScheduleDispatcher(Dispatcher):
    """On-demand IP dispatcher for normal situations."""

    name = "Schedule"
    flood_aware = False

    def __init__(self, computation_delay_s: float = 300.0, team_capacity: int = 5) -> None:
        if team_capacity < 1:
            raise ValueError("team_capacity must be positive")
        self.computation_delay_s = float(computation_delay_s)
        self.team_capacity = int(team_capacity)

    def dispatch(self, obs: DispatchObservation) -> dict[int, TeamCommand]:
        oracle = travel_time_oracle(obs.network)
        teams = obs.assignable_teams()
        if not teams:
            return {}

        demand = {seg: float(n) for seg, n in obs.pending.items() if n > 0}
        slots = expand_demand_slots(demand, self.team_capacity, max_slots=len(teams))
        # The IP's solve time grows with the demand it covers (paper Section
        # V-C3: "the computation time varies under different amounts of
        # request demands").
        self.computation_delay_s = float(min(600.0, 240.0 + 20.0 * len(slots)))

        commands: dict[int, TeamCommand] = {}
        assigned: set[int] = set()
        if slots:
            cost = oracle.nodes_to_segments_s([t.node for t in teams], slots)
            for r, c in solve_assignment(cost):
                commands[teams[r].team_id] = command_segment(slots[c])
                assigned.add(teams[r].team_id)

        # Surplus teams hold standby positions — always serving.
        standby = standby_segments(obs.network, obs.hospitals)
        k = 0
        for t in teams:
            if t.team_id in assigned:
                continue
            commands[t.team_id] = command_segment(standby[k % len(standby)])
            k += 1
        return commands
