"""RL state/action encoding for the MobiRescue dispatcher.

The paper's raw state (Eq. 3) is the predicted request count of *every*
road segment plus every team's position — thousands of dimensions.  As is
standard for fleet dispatching with a shared DNN policy (and as Pensieve
[24]-style systems do), we factor the joint action (Eq. 4) into per-team
decisions over a short list of *candidate* destination segments, scored by
a shared Q-network:

* candidates: the top-K segments by proximity-weighted demand, recomputed
  per team, with demand decremented as earlier teams claim it — this is
  what couples the per-team decisions into a joint action;
* per-team state: for each candidate, (called-in pending demand, predicted
  potential demand, travel time) — pending and predicted are separate
  features because called-in requests are certain pickups while SVM
  predictions are speculative, and the Q-function must be able to value
  them differently — plus (capacity left, flood level, total demand);
* actions: candidate index 0..K-1, or K = return to depot (``x_mk = 0``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MobiRescueConfig
from repro.dispatch.base import TeamView
from repro.roadnet.matrix import TravelTimeOracle

#: Feature scales: demand saturates at this many waiting people, travel
#: time at this many seconds.
DEMAND_SCALE = 10.0
TIME_SCALE = 1_800.0

FEATURES_PER_CANDIDATE = 3
TEAM_FEATURES = 3


@dataclass(frozen=True)
class TeamDecisionContext:
    """Everything the policy sees for one team's decision."""

    state: np.ndarray
    candidate_segments: tuple[int, ...]
    valid_actions: np.ndarray  # mask over num_actions (candidates + depot)
    travel_times: tuple[float, ...]


class CandidateTable:
    """Stage B's candidate table for one dispatch cycle.

    Every deciding team of a cycle ranks the same demand map, and between
    two teams only the entry of the segment just claimed changes.  So the
    work that does not depend on the team is done once per cycle, in the
    manner of a preloaded travel-time matrix:

    * ``segments``: the operable segments carrying demand, sorted by id;
    * one teams x segments float32 gather of free-flow travel times from
      the :class:`TravelTimeOracle`, with the score's proximity discount
      ``1 + t / 600`` and the scaled travel-time feature over it;
    * per segment, the weight ``pending_weight * pending + predicted``
      and the scaled pending and predicted features;
    * the demand total of the state's last feature.

    :meth:`claim` updates the claimed segment's entries in place.  A
    segment whose demand reaches 0 leaves the live index, and each team
    scores the *compressed* live subset, still in sorted segment order:
    ``np.argsort`` is not stable, so scoring dead entries as ``-inf``
    instead would break score ties differently from ranking the live
    segments alone, in sorted order, which is how the encoding is defined
    (the scalar reference in ``tests/test_dispatch_cycle_tables.py``).

    After a claim the total is re-summed over the demand maps in their
    own order, so it is exact for any values; a running ``total += new -
    old`` would be exact only while every value is integer-valued.  A
    cycle's demand map holds only a handful of segments.
    """

    def __init__(
        self,
        teams: list[TeamView],
        pending: dict[int, float],
        predicted: dict[int, float],
        oracle: TravelTimeOracle,
        closed: frozenset[int],
        flood_level: float,
        config: MobiRescueConfig,
    ) -> None:
        self.teams = teams
        self.config = config
        self.pending = dict(pending)
        self.predicted = dict(predicted)
        pend, pred = self.pending, self.predicted
        self.segments = sorted(
            s
            for s in set(pend) | set(pred)
            if s not in closed and (pend.get(s, 0) + pred.get(s, 0)) > 0
        )
        segs = self.segments
        self._column = {s: j for j, s in enumerate(segs)}
        self._pending = np.array([pend.get(s, 0.0) for s in segs], dtype=float)
        self._predicted = np.array([pred.get(s, 0.0) for s in segs], dtype=float)
        self._weight = config.pending_weight * self._pending + self._predicted
        #: Pending demand never changes within a cycle, and a segment with
        #: pending demand never dies, so this holds for the whole cycle.
        self._any_pending = bool((self._pending > 0).any())
        self._pending_feature = np.minimum(self._pending, DEMAND_SCALE) / DEMAND_SCALE
        self._predicted_feature = (
            np.minimum(self._predicted, DEMAND_SCALE) / DEMAND_SCALE
        )
        self._travel = oracle.nodes_to_segments_s([t.node for t in teams], segs)
        self._discount = 1.0 + self._travel / 600.0
        self._time_feature = np.minimum(self._travel, 2 * TIME_SCALE) / TIME_SCALE
        self._alive = np.ones(len(segs), dtype=bool)
        self._live = np.arange(len(segs))
        self.total = sum(pend.values()) + sum(pred.values())
        self.flood_feature = float(np.clip(flood_level, 0.0, 1.0))

    def claim(self, segment: int, amount: float) -> None:
        """A team takes ``amount`` of the segment's predicted demand."""
        new = max(0.0, self.predicted.get(segment, 0.0) - amount)
        self.predicted[segment] = new
        self.total = sum(self.pending.values()) + sum(self.predicted.values())
        j = self._column.get(segment)
        if j is None:
            return
        self._predicted[j] = new
        self._predicted_feature[j] = min(new, DEMAND_SCALE) / DEMAND_SCALE
        self._weight[j] = self.config.pending_weight * self._pending[j] + new
        if self._alive[j] and not (self._pending[j] + new) > 0:
            self._alive[j] = False
            self._live = np.flatnonzero(self._alive)


def build_context(table: CandidateTable, row: int) -> TeamDecisionContext:
    """Encode team ``table.teams[row]``'s decision state (Eq. 3 restricted
    to the team) from the cycle's :class:`CandidateTable`.

    Candidates are the top-k live segments by proximity-weighted demand.
    Called-in requests must always be *considered*, even when distant
    speculative clusters outscore them: up to half the slots go to the
    nearest pending segments, the rest by score.
    """
    team = table.teams[row]
    cfg = table.config
    k = cfg.num_candidates
    f = FEATURES_PER_CANDIDATE
    state = np.zeros(cfg.state_dim)
    valid = np.zeros(cfg.num_actions, dtype=bool)
    valid[k] = True  # depot is always allowed
    live = table._live
    cands: tuple[int, ...] = ()
    travel: tuple[float, ...] = ()
    if live.size:
        travel_row = table._travel[row]
        score = table._weight[live] / table._discount[row][live]
        order = np.argsort(-score)
        if table._any_pending:
            reserved = np.flatnonzero(table._pending[live] > 0)
            if reserved.size:
                times = travel_row[live[reserved]]
                reserved = reserved[np.argsort(times, kind="stable")][: max(1, k // 2)]
                order = np.concatenate([reserved, order[~np.isin(order, reserved)]])
        chosen = live[order[:k]]
        n = chosen.size
        state[0 : f * n : f] = table._pending_feature[chosen]
        state[1 : f * n : f] = table._predicted_feature[chosen]
        state[2 : f * n : f] = table._time_feature[row][chosen]
        valid[:n] = True
        segs = table.segments
        cands = tuple(segs[j] for j in chosen.tolist())
        travel = tuple(travel_row[chosen].tolist())
    state[f * k] = team.capacity_left / 5.0
    state[f * k + 1] = table.flood_feature
    state[f * k + 2] = min(table.total, 10 * DEMAND_SCALE) / (10 * DEMAND_SCALE)
    return TeamDecisionContext(
        state=state,
        candidate_segments=cands,
        valid_actions=valid,
        travel_times=travel,
    )
