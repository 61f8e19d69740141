"""The "Rescue" baseline — Huang et al. [8].

Rescue-team dispatching for catastrophic situations based on time-series
demand prediction:

* predicts the request demand of each road segment at the current hour as
  the weighted average of the demand observed at this hour over several
  previous days (recent days weigh more);
* periodically solves an assignment IP minimizing total driving delay to
  the predicted (plus called-in) demand;
* considers no disaster-related factors, so its predictions miss where the
  danger actually is (the paper's explanation for Figs. 15-16);
* like Schedule, it is flood-unaware in its cost estimates, keeps all
  teams serving, and pays the ~300 s IP computation delay.
"""

from __future__ import annotations

from collections import defaultdict

from repro.dispatch.assignment import expand_demand_slots, solve_assignment
from repro.dispatch.base import (
    DispatchObservation,
    Dispatcher,
    TeamCommand,
    command_segment,
)
from repro.dispatch.standby import standby_segments
from repro.roadnet.matrix import travel_time_oracle
from repro.sim.requests import RescueRequest
from repro.weather.storms import SECONDS_PER_DAY, SECONDS_PER_HOUR


class TimeSeriesDemandPredictor:
    """Per-segment hour-of-day demand from weighted historical averages."""

    def __init__(self, num_days: int = 5, decay: float = 0.7, hour_window: int = 4) -> None:
        if num_days < 1:
            raise ValueError("num_days must be positive")
        if not (0.0 < decay <= 1.0):
            raise ValueError("decay must be in (0, 1]")
        if hour_window < 0:
            raise ValueError("hour_window must be non-negative")
        self.num_days = int(num_days)
        self.decay = float(decay)
        self.hour_window = int(hour_window)
        #: counts[(day, hour_of_day)][segment] = observed requests
        self._counts: dict[tuple[int, int], dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )

    def record(self, t_s: float, segment_id: int) -> None:
        day = int(t_s // SECONDS_PER_DAY)
        hour = int((t_s % SECONDS_PER_DAY) // SECONDS_PER_HOUR)
        self._counts[(day, hour)][segment_id] += 1

    def predict(self, t_s: float) -> dict[int, float]:
        """Predicted demand per segment for the hour containing ``t``."""
        day = int(t_s // SECONDS_PER_DAY)
        hour = int((t_s % SECONDS_PER_DAY) // SECONDS_PER_HOUR)
        demand: dict[int, float] = defaultdict(float)
        weight_sum = 0.0
        # Per-segment requests are sparse, so the hour-of-day lookup uses a
        # small window around the current hour.
        hours = [
            h for h in range(hour - self.hour_window, hour + self.hour_window + 1)
            if 0 <= h < 24
        ]
        for age in range(1, self.num_days + 1):
            w = self.decay ** (age - 1)
            weight_sum += w
            for h in hours:
                for seg, n in self._counts.get((day - age, h), {}).items():
                    demand[seg] += w * n
        if weight_sum == 0.0:
            return {}
        return {seg: v / weight_sum for seg, v in demand.items() if v > 0}


class RescueTsDispatcher(Dispatcher):
    """Time-series prediction + IP dispatcher for disasters."""

    name = "Rescue"
    flood_aware = False

    def __init__(
        self,
        computation_delay_s: float = 300.0,
        team_capacity: int = 5,
        num_days: int = 5,
        decay: float = 0.7,
    ) -> None:
        if team_capacity < 1:
            raise ValueError("team_capacity must be positive")
        self.computation_delay_s = float(computation_delay_s)
        self.team_capacity = int(team_capacity)
        self.predictor = TimeSeriesDemandPredictor(num_days=num_days, decay=decay)
        #: Per-segment binary "demand predicted here" flags of the last
        #: prediction, kept for the Fig 15/16 accuracy comparison.
        self.last_prediction: dict[int, float] = {}

    def observe_requests(self, requests: list[RescueRequest]) -> None:
        for req in requests:
            self.predictor.record(req.time_s, req.segment_id)

    def seed_history(self, requests: list[RescueRequest]) -> None:
        """Load pre-window request history (the previous disaster days)."""
        self.observe_requests(requests)

    def dispatch(self, obs: DispatchObservation) -> dict[int, TeamCommand]:
        oracle = travel_time_oracle(obs.network)
        teams = obs.assignable_teams()
        if not teams:
            return {}

        predicted = self.predictor.predict(obs.t_s)
        self.last_prediction = dict(predicted)
        demand: dict[int, float] = defaultdict(float)
        for seg, n in obs.pending.items():
            demand[seg] += float(n)
        for seg, v in predicted.items():
            demand[seg] += v
        slots = expand_demand_slots(dict(demand), self.team_capacity, max_slots=len(teams))
        # IP solve time grows with demand; Rescue covers predicted demand on
        # top of the called-in requests, so its programs are bigger and
        # slower than Schedule's (the paper's Fig 13 ordering).
        self.computation_delay_s = float(min(600.0, 240.0 + 20.0 * len(slots)))

        commands: dict[int, TeamCommand] = {}
        assigned: set[int] = set()
        if slots:
            cost = oracle.nodes_to_segments_s([t.node for t in teams], slots)
            for r, c in solve_assignment(cost):
                commands[teams[r].team_id] = command_segment(slots[c])
                assigned.add(teams[r].team_id)

        standby = standby_segments(obs.network, obs.hospitals)
        k = 0
        for t in teams:
            if t.team_id in assigned:
                continue
            commands[t.team_id] = command_segment(standby[k % len(standby)])
            k += 1
        return commands
