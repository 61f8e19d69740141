"""The MobiRescue RL dispatcher (paper Section IV-C).

Every dispatching period:

1. the SVM predictor turns the real-time population feed into the predicted
   distribution of potential rescue requests ``ñ_e`` (stage 2 of Fig. 7);
2. called-in pending requests are added on top — they are certain demand;
3. each team's shared DQN scores its candidate destination segments and
   either claims one (decrementing the remaining demand so later teams
   spread out) or returns to the depot (``x_mk = 0``).

The reward of Eq. 5 is decomposed per team: ``alpha`` times the requests
the team actually picked up since its last decision, minus ``beta`` times
the driving delay of the chosen leg (hours), minus ``gamma`` when the team
is serving.  Transitions complete at the team's *next* decision, giving a
standard TD(0) chain per team through the shared replay buffer — and when
``online_training`` is on, the model keeps learning during deployment
exactly as Section IV-C4 prescribes.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.config import MobiRescueConfig
from repro.core.predictor import RequestPredictor
from repro.core.state import CandidateTable, build_context
from repro.data.charlotte import CharlotteScenario
from repro.dispatch.base import (
    DispatchObservation,
    Dispatcher,
    TeamCommand,
    TeamView,
    command_depot,
    command_segment,
)
from repro.ml.dqn import DQNAgent, DQNConfig
from repro.roadnet.matrix import travel_time_oracle

logger = logging.getLogger("repro.core.rl_dispatcher")


@dataclass
class _OpenTransition:
    state: np.ndarray
    action: int
    travel_time_s: float
    serving: bool
    pickups_before: int


def make_agent(config: MobiRescueConfig) -> DQNAgent:
    """Fresh DQN agent sized for the MobiRescue state/action encoding."""
    return DQNAgent(
        DQNConfig(
            state_dim=config.state_dim,
            num_actions=config.num_actions,
            hidden_sizes=config.hidden_sizes,
            learning_rate=config.learning_rate,
            gamma=config.discount,
            # Exploration must survive several training episodes (a few
            # thousand learn steps), not die within the first one.
            epsilon_decay=0.9993,
            seed=config.seed,
        )
    )


class MobiRescueDispatcher(Dispatcher):
    """SVM-predicted demand + shared-DQN team dispatching."""

    name = "MobiRescue"

    def __init__(
        self,
        scenario: CharlotteScenario,
        predictor: RequestPredictor,
        positions_fn: Callable[[float], dict[int, int]],
        agent: DQNAgent,
        config: MobiRescueConfig | None = None,
        training: bool = False,
    ) -> None:
        if not predictor.is_fitted:
            raise ValueError("predictor must be fitted before dispatching")
        self.scenario = scenario
        self.predictor = predictor
        self.positions_fn = positions_fn
        self.agent = agent
        self.config = config or MobiRescueConfig()
        self.training = training
        self.computation_delay_s = self.config.computation_delay_s
        self._open: dict[int, _OpenTransition] = {}
        #: ñ_e of the last cycle, for the Fig 15/16 prediction experiments.
        self.last_prediction: dict[int, int] = {}
        self._anchor_cache: tuple[frozenset[int], dict[int, int]] | None = None
        #: Cycles where the prediction stage failed and the dispatcher
        #: degraded to reactive (pending-only) dispatching.
        self.prediction_failures = 0
        #: Optional observer called with ``(detail, t_s)`` whenever the
        #: prediction stage degrades; the online dispatch service hooks
        #: this so sensing failures show up in the incident log instead of
        #: only in process logs.
        self.incident_sink: Callable[[str, float], None] | None = None

    def _operable_anchor(self, segment_id: int, obs: DispatchObservation) -> int:
        """Nearest operable segment to a (possibly submerged) segment."""
        if segment_id not in obs.closed:
            return segment_id
        if self._anchor_cache is None or self._anchor_cache[0] is not obs.closed:
            self._anchor_cache = (obs.closed, {})
        cache = self._anchor_cache[1]
        if segment_id not in cache:
            mx, my = obs.network.segment_midpoint(segment_id)
            candidates = obs.network.nearest_segments(mx, my, 64)
            cache[segment_id] = next(
                (s for s in candidates if s not in obs.closed), segment_id
            )
        return cache[segment_id]

    # -- dispatching -------------------------------------------------------

    def dispatch(self, obs: DispatchObservation) -> dict[int, TeamCommand]:
        cfg = self.config
        oracle = travel_time_oracle(obs.network)
        t = obs.t_s
        flood_level = self.scenario.timeline.flood_level(t)

        # Degraded sensing must not take the dispatch center down: if the
        # position feed or the predictor fails (dead GPS backends, a
        # diverged model), fall back to reactive dispatching on called-in
        # requests only — stage A still works without stage-2 predictions.
        try:
            raw_predicted = self.predictor.predict_request_distribution(
                self.positions_fn(t), t
            )
        except Exception as exc:  # repro: allow-broad-except -- sanctioned
            # degradation point (PR 1): any sensing failure — dead GPS
            # backend, diverged predictor — downgrades to reactive
            # dispatch instead of taking the dispatch center down.
            self.prediction_failures += 1
            detail = f"prediction stage failed ({type(exc).__name__}: {exc})"
            logger.warning(
                "t=%.0f %s; degrading to pending-only dispatch", t, detail
            )
            if self.incident_sink is not None:
                self.incident_sink(detail, t)
            raw_predicted = {}
        self.last_prediction = dict(raw_predicted)
        predicted: dict[int, float] = defaultdict(float)
        for seg, n in raw_predicted.items():
            # Predicted demand on a submerged segment is served from the
            # flood edge: shift it to the nearest operable segment, the same
            # remapping actual requests undergo.
            predicted[self._operable_anchor(seg, obs)] += float(n)
        pending: dict[int, float] = {seg: float(n) for seg, n in obs.pending.items()}

        commands: dict[int, TeamCommand] = {}

        # ---- Stage A: reactive matching of called-in requests. ----
        # Certain demand is dispatched by min-cost matching over *operable*
        # travel times — MobiRescue is the only method with the satellite
        # flood feed, so its cost estimates are right where the baselines'
        # full-network estimates are wrong.  Teams already en route to a
        # pending-backed target keep their legs (and their claim).
        committed_pending: list[TeamView] = []
        pool: list[TeamView] = []
        for team in sorted(obs.assignable_teams(), key=lambda tv: tv.team_id):
            target = team.target_segment
            if (
                team.state == "to_segment"
                and target is not None
                and target not in obs.closed
                and pending.get(target, 0.0) > 0
            ):
                committed_pending.append(team)
            else:
                pool.append(team)
        for team in committed_pending:
            target = team.target_segment
            pending[target] = max(
                0.0, pending[target] - float(max(1, team.capacity_left))
            )

        matched: dict[int, int] = self._match_pending(pending, pool, obs)
        for team_id, seg in matched.items():
            commands[team_id] = command_segment(seg)
            pending[seg] = max(0.0, pending[seg] - 5.0)

        # ---- Stage B: RL positioning over predicted demand. ----
        # The DQN decides, per remaining team, whether to cruise toward a
        # predicted-demand segment or return to the depot — the lever behind
        # both proactive pickups (Fig 9) and the adaptive fleet size
        # (Fig 14).  Teams already on a predicted leg that still carries
        # demand keep it.
        deciding: list[TeamView] = []
        for team in pool:
            if team.team_id in matched:
                continue
            target = team.target_segment
            if (
                team.state == "to_segment"
                and target is not None
                and target not in obs.closed
                and predicted.get(target, 0.0) > 0
            ):
                predicted[target] = max(
                    0.0, predicted[target] - float(max(1, team.capacity_left))
                )
                continue
            deciding.append(team)

        # One candidate table per cycle; each team's claim updates it in
        # place so later teams spread out.
        if deciding:
            table = CandidateTable(
                deciding, {}, predicted, oracle, obs.closed, flood_level, cfg
            )
        greedy = not self.training
        for row, team in enumerate(deciding):
            ctx = build_context(table, row)
            action = self.agent.act(ctx.state, ctx.valid_actions, greedy=greedy)
            self._close_transition(team.team_id, team.total_pickups, ctx.state)

            if action < len(ctx.candidate_segments):
                seg = ctx.candidate_segments[action]
                commands[team.team_id] = command_segment(seg)
                table.claim(seg, float(max(1, team.capacity_left)))
                travel = ctx.travel_times[action]
                serving = True
            else:
                commands[team.team_id] = command_depot()
                travel = 0.0
                serving = False
            self._open[team.team_id] = _OpenTransition(
                state=ctx.state,
                action=action,
                travel_time_s=travel,
                serving=serving,
                pickups_before=team.total_pickups,
            )

        if self.training or self.config.online_training:
            for _ in range(cfg.learn_steps_per_cycle):
                self.agent.learn()
        return commands

    def _match_pending(
        self,
        pending: dict[int, float],
        pool: list[TeamView],
        obs: DispatchObservation,
    ) -> dict[int, int]:
        """Min-cost matching of teams to pending-request slots on the
        operable network.  Returns team_id -> segment."""
        from repro.dispatch.assignment import expand_demand_slots, solve_assignment
        from repro.perf.routing_cache import routing_cache

        live = {s: v for s, v in pending.items() if v > 0 and s not in obs.closed}
        if not live or not pool:
            return {}
        router = routing_cache(obs.network)
        slots = expand_demand_slots(live, capacity=5, max_slots=len(pool))
        cost = np.zeros((len(pool), len(slots)))
        col_costs: dict[int, dict[int, float]] = {}
        for seg_id in sorted(set(slots)):
            seg = obs.network.segment(seg_id)
            to_u = router.time_to(seg.u, closed=obs.closed)
            col_costs[seg_id] = {
                tv.team_id: to_u.get(tv.node, 1e7) + seg.free_flow_time_s
                for tv in pool
            }
        for i, tv in enumerate(pool):
            for j, seg_id in enumerate(slots):
                cost[i, j] = col_costs[seg_id][tv.team_id]
        matched: dict[int, int] = {}
        for r, c in solve_assignment(cost):
            if cost[r, c] >= 1e7:
                continue  # unreachable through the flood
            matched[pool[r].team_id] = slots[c]
        return matched

    # -- learning ----------------------------------------------------------

    def _reward(self, tr: _OpenTransition, pickups_now: int) -> float:
        cfg = self.config
        served = pickups_now - tr.pickups_before
        return (
            cfg.alpha * served
            - cfg.beta * tr.travel_time_s / 3_600.0
            - cfg.gamma * (1.0 if tr.serving else 0.0)
        )

    def _close_transition(
        self, team_id: int, pickups_now: int, next_state: np.ndarray
    ) -> None:
        tr = self._open.pop(team_id, None)
        if tr is None or not (self.training or self.config.online_training):
            return
        self.agent.remember(
            tr.state, tr.action, self._reward(tr, pickups_now), next_state, done=False
        )

    def finish_episode(self, final_pickups: dict[int, int]) -> None:
        """Flush open transitions at episode end (terminal states)."""
        for team_id, tr in list(self._open.items()):
            pickups = final_pickups.get(team_id, tr.pickups_before)
            terminal = np.zeros_like(tr.state)
            self.agent.remember(
                tr.state, tr.action, self._reward(tr, pickups), terminal, done=True
            )
        self._open.clear()
