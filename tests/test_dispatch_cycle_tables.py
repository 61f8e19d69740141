"""The dispatch cycle's hoisted tables against the per-point code they replace.

The MobiRescue dispatch cycle reads landmark altitudes and region slots
from tables built once per predictor, region weather factors and
waterlines as 7-entry vectors, closed-segment sets that keep their object
through a closure epoch, and a flat trajectory index for the position
feed.  Each test here pins one of those against a reference composed of
the scalar calls (``factor_vector``, ``is_flooded``, ``waterline_m``,
per-person ``searchsorted``): exact equality, not approx.

Stage B of the dispatcher ranks every deciding team's candidates from a
per-cycle :class:`~repro.core.state.CandidateTable`, and the DQN acts on
a single-row forward pass; those are pinned here against the per-team
scalar encoding and the batch forward pass they replace, including the
ways a vectorized rewrite silently breaks bit-identity (unstable argsort
ties, running float totals, 1-D matrix products).
"""

from __future__ import annotations

from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import MobiRescueConfig
from repro.core.predictor import RequestPredictor, build_training_set
from repro.core.rl_dispatcher import MobiRescueDispatcher, make_agent
from repro.core.state import (
    DEMAND_SCALE,
    FEATURES_PER_CANDIDATE,
    TIME_SCALE,
    CandidateTable,
    TeamDecisionContext,
    build_context,
)
from repro.dispatch.base import TeamView
from repro.dispatch.nearest import NearestDispatcher
from repro.faults import make_injector
from repro.geo.flood import FloodModel
from repro.mobility.cleaning import clean_trace
from repro.mobility.mapmatch import MatchedTrajectories, map_match
from repro.roadnet.matrix import travel_time_oracle
from repro.sim.engine import SimulationConfig
from repro.sim.kernel import EventKernelSimulator
from repro.sim.kernel.routing import FloodClosureIndex
from repro.weather.storms import SECONDS_PER_DAY, SECONDS_PER_HOUR

CYCLE_S = 300.0


@pytest.fixture(scope="module")
def michael_matched(michael_small):
    scenario, bundle = michael_small
    part = scenario.partition
    clean, _ = clean_trace(bundle.trace, part.width_m, part.height_m)
    return map_match(clean, scenario.network)


@pytest.fixture(scope="module")
def michael_predictor(michael_small, michael_matched):
    scenario, bundle = michael_small
    training = build_training_set(scenario, bundle, matched=michael_matched, seed=1)
    return RequestPredictor(scenario, c=8.0).fit(training)


@pytest.fixture(scope="module", params=["michael", "florence"])
def predictor(request, michael_predictor, florence_small):
    if request.param == "michael":
        return michael_predictor
    return michael_predictor.clone_for(florence_small[0])


def probe_times(timeline) -> list[float]:
    """t = 0, pre-storm (severity 0), storm onset, storm peak, river crest,
    and a time whose forecast horizon runs past the end of the timeline."""
    crest = timeline.storm_end_s + timeline.crest_lag_days * SECONDS_PER_DAY
    return [
        0.0,
        timeline.storm_start_s - 6.0 * SECONDS_PER_HOUR,
        timeline.storm_start_s,
        0.5 * (timeline.storm_start_s + timeline.storm_end_s),
        crest,
        timeline.duration_s - SECONDS_PER_HOUR,
    ]


def reference_factors(scenario, nodes, t_s) -> np.ndarray:
    net = scenario.network
    return np.array(
        [scenario.weather.factor_vector(*net.landmark(n).xy, t_s) for n in nodes]
    )


def reference_flooded(predictor, nodes, t_s) -> np.ndarray:
    scenario = predictor.scenario
    net, flood = scenario.network, scenario.flood
    horizon = predictor.flood_forecast_horizon_s
    return np.array(
        [
            flood.is_flooded(*net.landmark(n).xy, t_s)
            or flood.is_flooded(*net.landmark(n).xy, t_s + horizon)
            for n in nodes
        ]
    )


def reference_labels(predictor, nodes, t_s) -> np.ndarray:
    labels = predictor.predict_labels(reference_factors(predictor.scenario, nodes, t_s))
    return labels & reference_flooded(predictor, nodes, t_s).astype(int)


class TestPredictorTables:
    def test_static_tables_match_scalar_calls(self, predictor):
        scenario = predictor.scenario
        nodes = scenario.network.landmark_ids()
        for t_s in probe_times(scenario.timeline):
            precip, wind = scenario.weather.region_factors(t_s)
            slots = predictor._node_slot
            table = np.column_stack([precip[slots], wind[slots], predictor._node_alt])
            np.testing.assert_array_equal(table, reference_factors(scenario, nodes, t_s))
            flood = scenario.flood
            alt = predictor._node_flood_alt
            gate = (alt <= flood.waterlines(t_s)[slots]) | (
                alt <= flood.waterlines(t_s + predictor.flood_forecast_horizon_s)[slots]
            )
            np.testing.assert_array_equal(gate, reference_flooded(predictor, nodes, t_s))

    def test_labels_match_scalar_reference(self, predictor):
        scenario = predictor.scenario
        nodes = scenario.network.landmark_ids()
        positives = 0
        for t_s in probe_times(scenario.timeline):
            labels = predictor.predict_node_labels(nodes, t_s)
            np.testing.assert_array_equal(labels, reference_labels(predictor, nodes, t_s))
            positives += int(labels.sum())
        assert positives > 0, "the probe times must exercise positive decisions"

    def test_distribution_matches_scalar_reference(self, predictor):
        scenario = predictor.scenario
        net = scenario.network
        rng = np.random.default_rng(5)
        ids = net.landmark_ids()
        person_nodes = {pid: int(rng.choice(ids)) for pid in range(400)}
        for t_s in probe_times(scenario.timeline):
            uniq, counts = np.unique(list(person_nodes.values()), return_counts=True)
            nodes = [int(n) for n in uniq]
            labels = reference_labels(predictor, nodes, t_s)
            reference: dict[int, int] = {}
            for node, label, count in zip(nodes, labels, counts):
                if label == 1:
                    seg = net.nearest_segment(*net.landmark(node).xy)
                    reference[seg] = reference.get(seg, 0) + int(count)
            got = predictor.predict_request_distribution(person_nodes, t_s)
            assert list(got.items()) == list(reference.items())

    def test_unknown_landmark_raises_value_error(self, predictor):
        ids = predictor.scenario.network.landmark_ids()
        t_s = predictor.scenario.timeline.storm_start_s
        for bad in (max(ids) + 1, -1):
            with pytest.raises(ValueError, match=f"unknown landmark id {bad}"):
                predictor.predict_node_labels([ids[0], bad], t_s)
            with pytest.raises(ValueError, match="unknown landmark id"):
                predictor.predict_request_distribution({1: ids[0], 2: bad}, t_s)


class TestCloneCarriesHorizon:
    def test_clone_keeps_six_hour_horizon(self, michael_small, michael_predictor):
        scenario, _ = michael_small
        original = michael_predictor.clone_for(scenario)
        original.flood_forecast_horizon_s = 6.0 * SECONDS_PER_HOUR
        clone = original.clone_for(scenario)
        assert clone.flood_forecast_horizon_s == 6.0 * SECONDS_PER_HOUR
        default = michael_predictor.clone_for(scenario)
        assert default.flood_forecast_horizon_s == 12.0 * SECONDS_PER_HOUR

        nodes = scenario.network.landmark_ids()
        person_nodes = dict(enumerate(nodes))
        tl = scenario.timeline
        times = np.arange(tl.storm_start_s, tl.storm_end_s, 3.0 * SECONDS_PER_HOUR)
        horizon_matters = False
        for t_s in times:
            expect = original.predict_request_distribution(person_nodes, t_s)
            assert clone.predict_request_distribution(person_nodes, t_s) == expect
            horizon_matters |= default.predict_request_distribution(person_nodes, t_s) != expect
        assert horizon_matters, "a 12 h clone must predict differently somewhere"


class TestNodesAtTime:
    @staticmethod
    def reference(matched: MatchedTrajectories, t_s: float) -> dict[int, int]:
        out: dict[int, int] = {}
        for pid, (ts, nodes) in matched.trajectories.items():
            i = int(np.searchsorted(ts, t_s, side="right")) - 1
            if i >= 0:
                out[pid] = int(nodes[i])
        return out

    def test_matches_per_person_searchsorted(self, michael_small, michael_matched):
        scenario, _ = michael_small
        firsts = [float(ts[0]) for ts, _ in michael_matched.trajectories.values()]
        some_ts = next(iter(michael_matched.trajectories.values()))[0]
        times = [
            min(firsts) - 1.0,  # before anyone's first fix
            float(np.median(firsts)),  # part of the population visible
            float(some_ts[len(some_ts) // 2]),  # exactly a fix time
            float(some_ts[-1]),
            scenario.timeline.storm_start_s,
            scenario.timeline.duration_s + 1.0,
        ]
        times += list(np.arange(0.0, scenario.timeline.duration_s, 7_777.0))
        for t_s in times:
            got = michael_matched.nodes_at_time(t_s)
            assert list(got.items()) == list(self.reference(michael_matched, t_s).items())
        assert michael_matched.nodes_at_time(min(firsts) - 1.0) == {}

    def test_empty_trajectory_and_insertion_order(self):
        f = np.array
        matched = MatchedTrajectories(
            {
                9: (f([10.0, 20.0, 30.0]), f([1, 2, 3])),
                2: (f([], dtype=float), f([], dtype=np.int64)),
                4: (f([15.0]), f([7])),
                1: (f([5.0, 25.0]), f([8, 9])),
            },
            dropped_far_fixes=0,
        )
        for t_s in (0.0, 5.0, 10.0, 14.9, 15.0, 20.0, 25.0, 30.0, 99.0):
            got = matched.nodes_at_time(t_s)
            assert list(got.items()) == list(self.reference(matched, t_s).items())
        assert list(matched.nodes_at_time(20.0)) == [9, 4, 1]
        assert MatchedTrajectories({}, 0).nodes_at_time(1.0) == {}
        only_empty = MatchedTrajectories({3: (f([], dtype=float), f([], dtype=np.int64))}, 0)
        assert only_empty.nodes_at_time(1.0) == {}


class TestRegionVectors:
    def test_waterlines_equal_waterline_m(self, florence_scenario):
        flood = florence_scenario.flood
        rids = florence_scenario.partition.region_ids
        for t_s in probe_times(florence_scenario.timeline):
            vec = flood.waterlines(t_s)
            assert not vec.flags.writeable
            assert vec.tolist() == [flood.waterline_m(r, t_s) for r in rids]

    def test_waterline_memo_is_bounded(self, florence_scenario):
        scen = florence_scenario
        flood = FloodModel(scen.terrain, scen.weather_field.severity_fn())
        t0 = scen.timeline.storm_start_s
        first = flood.waterlines(t0)
        assert flood.waterlines(t0) is first
        for k in range(3 * FloodModel.WATERLINE_MEMO):
            flood.waterlines(t0 + k * CYCLE_S)
            assert len(flood._waterline_memo) <= FloodModel.WATERLINE_MEMO
        again = flood.waterlines(t0)
        assert again is not first and again.tolist() == first.tolist()

    def test_is_flooded_many_equals_is_flooded(self, florence_scenario):
        scen = florence_scenario
        rng = np.random.default_rng(3)
        xy = rng.uniform([0.0, 0.0], [scen.partition.width_m, scen.partition.height_m],
                         size=(300, 2))
        for t_s in probe_times(scen.timeline):
            many = scen.flood.is_flooded_many(xy, t_s)
            scalar = [scen.flood.is_flooded(x, y, t_s) for x, y in xy]
            assert many.tolist() == scalar

    def test_factor_vectors_equal_factor_vector(self, florence_scenario):
        scen = florence_scenario
        rng = np.random.default_rng(4)
        xy = rng.uniform([0.0, 0.0], [scen.partition.width_m, scen.partition.height_m],
                         size=(200, 2))
        for t_s in probe_times(scen.timeline):
            many = scen.weather.factor_vectors(xy, t_s)
            scalar = np.array([scen.weather.factor_vector(x, y, t_s) for x, y in xy])
            np.testing.assert_array_equal(many, scalar)


class TestClosureEpochs:
    def test_closed_at_keeps_object_through_epoch(self, florence_scenario):
        scen = florence_scenario
        index = FloodClosureIndex(scen.network, scen.flood)
        t0 = scen.timeline.storm_start_s
        times = t0 + CYCLE_S * np.arange(288)
        prev = None
        kept = changed = 0
        for t_s in times:
            closed = index.closed_at(float(t_s))
            assert closed == scen.network.closed_segments(scen.flood, float(t_s))
            if prev is not None:
                if closed == prev:
                    assert closed is prev
                    kept += 1
                else:
                    changed += 1
            prev = closed
        assert kept > 0 and changed > 0

    def test_anchor_cache_survives_epoch(self, florence_scenario, michael_predictor):
        scen = florence_scenario
        index = FloodClosureIndex(scen.network, scen.flood)
        cfg = MobiRescueConfig(seed=1)
        dispatcher = MobiRescueDispatcher(
            scen, michael_predictor.clone_for(scen), lambda t: {}, make_agent(cfg), cfg
        )
        t0 = scen.timeline.storm_end_s
        first = index.closed_at(t0)
        assert first, "the epoch must close some segments"
        segs = sorted(first)[:5]
        obs = SimpleNamespace(closed=first, network=scen.network)
        anchors = [dispatcher._operable_anchor(s, obs) for s in segs]
        cache = dispatcher._anchor_cache
        assert all(a not in first for a in anchors)
        second = index.closed_at(t0 + CYCLE_S)
        assert second is first, "the next cycle must stay in the epoch"
        obs = SimpleNamespace(closed=second, network=scen.network)
        assert [dispatcher._operable_anchor(s, obs) for s in segs] == anchors
        assert dispatcher._anchor_cache is cache
        assert len(cache[1]) == len(segs)

    def test_fault_union_keeps_object(self, florence_scenario):
        scen = florence_scenario
        t0 = scen.timeline.storm_start_s
        t1 = t0 + 12.0 * SECONDS_PER_HOUR
        faults = make_injector("severe", t0, t1, seed=7)
        sim = EventKernelSimulator(
            scen, [], NearestDispatcher(),
            SimulationConfig(t0_s=t0, t1_s=t1, num_teams=5, seed=0, step_s=60.0),
            faults=faults,
        )
        reused = 0
        prev = None
        for t_s in t0 + CYCLE_S * np.arange(144):
            flood_part = sim._flood_index.closed_at(float(t_s))
            fault_part = sim._fault_closed_at(float(t_s))
            closed = sim._closed_now(float(t_s))
            assert closed == flood_part | fault_part
            if prev is not None and fault_part and prev[:2] == (flood_part, fault_part):
                assert prev[0] is flood_part and prev[1] is fault_part
                assert closed is prev[2]
                reused += 1
            prev = (flood_part, fault_part, closed)
        assert reused > 0


# -- Stage B: candidate table and single-row act ----------------------------


def reference_select_candidates(team, pending, predicted, oracle, closed, k, pending_weight):
    """The per-team candidate ranking the table replaces: re-sort the
    live segments, gather this team's travel times, rebuild the weights."""
    segs = sorted(
        s
        for s in set(pending) | set(predicted)
        if s not in closed and (pending.get(s, 0) + predicted.get(s, 0)) > 0
    )
    if not segs:
        return [], np.zeros(0)
    times = oracle.node_to_segments_s(team.node, segs)
    weight = np.array(
        [pending_weight * pending.get(s, 0.0) + predicted.get(s, 0.0) for s in segs]
    )
    score = weight / (1.0 + times / 600.0)
    chosen: list[int] = []
    live_pending = [i for i, s in enumerate(segs) if pending.get(s, 0.0) > 0]
    live_pending.sort(key=lambda i: times[i])
    for i in live_pending[: max(1, k // 2)]:
        chosen.append(i)
    for i in np.argsort(-score):
        if len(chosen) >= k:
            break
        if int(i) not in chosen:
            chosen.append(int(i))
    idx = np.array(chosen[:k])
    return [segs[int(i)] for i in idx], times[idx]


def reference_build_context(team, pending, predicted, oracle, closed, flood_level, config):
    k = config.num_candidates
    cands, times = reference_select_candidates(
        team, pending, predicted, oracle, closed, k, config.pending_weight
    )
    state = np.zeros(config.state_dim)
    valid = np.zeros(config.num_actions, dtype=bool)
    valid[k] = True
    f = FEATURES_PER_CANDIDATE
    for i, (seg, tt) in enumerate(zip(cands, times)):
        state[f * i] = min(pending.get(seg, 0.0), DEMAND_SCALE) / DEMAND_SCALE
        state[f * i + 1] = min(predicted.get(seg, 0.0), DEMAND_SCALE) / DEMAND_SCALE
        state[f * i + 2] = min(tt, 2 * TIME_SCALE) / TIME_SCALE
        valid[i] = True
    total = sum(pending.values()) + sum(predicted.values())
    state[f * k] = team.capacity_left / 5.0
    state[f * k + 1] = float(np.clip(flood_level, 0.0, 1.0))
    state[f * k + 2] = min(total, 10 * DEMAND_SCALE) / (10 * DEMAND_SCALE)
    return TeamDecisionContext(
        state=state,
        candidate_segments=tuple(cands),
        valid_actions=valid,
        travel_times=tuple(float(t) for t in times),
    )


class TieOracle:
    """Travel times drawn from four values, so equal demands tie exactly
    in score far more often than on a real network."""

    def __init__(self, nodes, segments, rng) -> None:
        times = rng.choice([60.0, 120.0, 300.0, 900.0], size=(len(nodes), len(segments)))
        self._times = times.astype(np.float32)
        self._row = {n: i for i, n in enumerate(nodes)}
        self._col = {s: j for j, s in enumerate(segments)}

    def node_to_segments_s(self, src, segment_ids):
        return self._times[self._row[src], [self._col[s] for s in segment_ids]]

    def nodes_to_segments_s(self, srcs, segment_ids):
        rows = np.array([self._row[n] for n in srcs], dtype=np.intp)
        cols = np.array([self._col[s] for s in segment_ids], dtype=np.intp)
        return self._times[np.ix_(rows, cols)]


def assert_same_context(got: TeamDecisionContext, want: TeamDecisionContext) -> None:
    assert got.state.dtype == want.state.dtype
    assert got.state.tobytes() == want.state.tobytes()
    assert got.candidate_segments == want.candidate_segments
    assert all(type(s) is int for s in got.candidate_segments)
    assert np.array_equal(got.valid_actions, want.valid_actions)
    assert got.travel_times == want.travel_times


def run_cycle(rng, teams, pending, predicted, oracle, closed, flood, cfg) -> int:
    """Decide every team from the table and from the per-team reference,
    claiming the same random candidate on both; returns the claims made."""
    table = CandidateTable(teams, pending, predicted, oracle, closed, flood, cfg)
    ref_predicted = defaultdict(float, predicted)
    claims = 0
    for row, team in enumerate(teams):
        got = build_context(table, row)
        want = reference_build_context(
            team, pending, dict(ref_predicted), oracle, closed, flood, cfg
        )
        assert_same_context(got, want)
        action = int(rng.integers(0, len(got.candidate_segments) + 1))
        if action < len(got.candidate_segments):
            seg = got.candidate_segments[action]
            amount = float(max(1, team.capacity_left))
            table.claim(seg, amount)
            ref_predicted[seg] = max(0.0, ref_predicted[seg] - amount)
            claims += 1
    return claims


class TestCandidateTable:
    CFG = MobiRescueConfig(num_candidates=4)

    @staticmethod
    def random_cycle(rng, network, n_segments=40, with_pending=False):
        segments = [
            int(s) for s in rng.choice(network.segment_ids(), n_segments, replace=False)
        ]
        nodes = [int(n) for n in rng.choice(network.landmark_ids(), 6, replace=False)]
        teams = [
            TeamView(i, int(rng.choice(nodes)), "idle", int(rng.integers(0, 6)), True)
            for i in range(int(rng.integers(1, 12)))
        ]
        # Small integer demands: many reach 0 after one or two claims.
        predicted = {s: float(rng.integers(0, 4)) for s in segments}
        pending = {}
        if with_pending:
            pending = {
                s: float(rng.integers(1, 3)) for s in segments if rng.random() < 0.15
            }
        closed = frozenset(s for s in segments if rng.random() < 0.2)
        return nodes, segments, teams, pending, predicted, closed

    @pytest.mark.parametrize("with_pending", [False, True])
    def test_matches_per_team_reference_with_ties(self, michael_small, with_pending):
        network = michael_small[0].network
        rng = np.random.default_rng(11)
        claims = 0
        for _ in range(60):
            nodes, segments, teams, pending, predicted, closed = self.random_cycle(
                rng, network, with_pending=with_pending
            )
            oracle = TieOracle(nodes, segments, rng)
            claims += run_cycle(
                rng, teams, pending, predicted, oracle, closed, rng.random(), self.CFG
            )
        assert claims > 100

    def test_matches_reference_on_real_oracle(self, michael_small):
        network = michael_small[0].network
        oracle = travel_time_oracle(network)
        rng = np.random.default_rng(12)
        for _ in range(20):
            _, _, teams, pending, predicted, closed = self.random_cycle(rng, network)
            run_cycle(rng, teams, pending, predicted, oracle, closed, 0.4, self.CFG)

    def test_demand_reaching_zero_leaves_the_live_index(self, michael_small):
        network = michael_small[0].network
        oracle = travel_time_oracle(network)
        segs = [s.segment_id for s in network.segments()[:3]]
        team = TeamView(0, network.landmark_ids()[0], "idle", 5, True)
        teams = [team] * 3
        table = CandidateTable(
            teams, {}, {segs[0]: 2.0, segs[1]: 7.0, segs[2]: 0.0}, oracle,
            frozenset(), 0.0, self.CFG,
        )
        assert table.segments == segs[:2]
        assert set(build_context(table, 0).candidate_segments) == set(segs[:2])
        table.claim(segs[0], 5.0)
        ctx = build_context(table, 1)
        assert ctx.candidate_segments == (segs[1],)
        assert table.total == 7.0
        table.claim(segs[1], 5.0)
        table.claim(segs[1], 5.0)
        ctx = build_context(table, 2)
        assert ctx.candidate_segments == () and table.total == 0.0
        assert ctx.valid_actions.tolist() == [False] * 4 + [True]

    def test_empty_and_all_closed(self, michael_small):
        network = michael_small[0].network
        oracle = travel_time_oracle(network)
        team = TeamView(0, network.landmark_ids()[0], "idle", 3, True)
        seg = network.segments()[0].segment_id
        for predicted, closed in (({}, frozenset()), ({seg: 4.0}, frozenset({seg}))):
            table = CandidateTable([team], {}, predicted, oracle, closed, 0.5, self.CFG)
            want = reference_build_context(
                team, {}, predicted, oracle, closed, 0.5, self.CFG
            )
            assert_same_context(build_context(table, 0), want)
        table = CandidateTable([], {}, {seg: 1.0}, oracle, frozenset(), 0.5, self.CFG)
        assert table.segments == [seg]

    def test_padding_dead_entries_reorders_ties(self):
        """Why the table compresses the live subset: ``np.argsort`` is not
        stable, so ranking the full row with dead entries at ``-inf``
        breaks score ties differently from ranking the live entries."""
        rng = np.random.default_rng(0)
        differ = 0
        for _ in range(50):
            score = rng.choice([1.0, 2.0, 3.0], size=40)
            alive = rng.random(40) < 0.7
            live = np.flatnonzero(alive)
            compressed = live[np.argsort(-score[live])]
            padded = np.argsort(-np.where(alive, score, -np.inf))[: live.size]
            differ += not np.array_equal(compressed, padded)
        assert differ > 0

    def test_predicted_demand_is_integer_valued(self, predictor, michael_matched):
        """Predicted demand is a count, and claims subtract integer
        capacities, so every demand value the table sees is an
        integer-valued float.  A running total would lean on this; the
        table re-sums instead (see the fractional test below)."""
        positions = michael_matched.nodes_at_time
        nonempty = 0
        for t_s in probe_times(predictor.scenario.timeline):
            dist = predictor.predict_request_distribution(positions(t_s), t_s)
            assert all(type(n) is int for n in dist.values())
            nonempty += bool(dist)
        assert nonempty > 0

    def test_fractional_demand_resums_exactly(self, michael_small):
        """With fractional demand the total still equals the reference bit
        for bit; a running ``total += new - old`` drifts on these inputs."""
        network = michael_small[0].network
        oracle = travel_time_oracle(network)
        segs = [s.segment_id for s in network.segments()[:12]]
        team = TeamView(0, network.landmark_ids()[0], "idle", 1, True)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            predicted = {s: float(rng.uniform(0.1, 3.0)) for s in segs}
            run_cycle(rng, [team] * 10, {}, predicted, oracle, frozenset(), 0.2, self.CFG)

    def test_batched_oracle_rows_equal_single_source(self, michael_small):
        network = michael_small[0].network
        oracle = travel_time_oracle(network)
        nodes = network.landmark_ids()[:7]
        segs = network.segment_ids()[::5]
        table = oracle.nodes_to_segments_s(nodes, segs)
        assert table.dtype == np.float32 and table.shape == (len(nodes), len(segs))
        for row, node in zip(table, nodes):
            assert row.tobytes() == oracle.node_to_segments_s(node, segs).tobytes()


class _MatmulRecorder(np.ndarray):
    """A weight view that records the ndim of what it is multiplied by."""

    seen: list[int] = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _MatmulRecorder.seen.append(inputs[0].ndim)
        inputs = tuple(np.asarray(x) for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestSingleRowAct:
    def test_predict_one_keeps_two_dimensional_products(self):
        """A 1-D ``x @ w`` is a gemv, which may round differently from the
        ``(1, in) @ w`` gemm of the batch path."""
        net = make_agent(MobiRescueConfig(seed=4)).q_net
        for layer in net.layers:
            layer.w = layer.w.view(_MatmulRecorder)
        _MatmulRecorder.seen = []
        net.predict_one(np.zeros(net.input_dim))
        assert _MatmulRecorder.seen == [2] * len(net.layers)

    def test_act_matches_masked_batch_argmax(self):
        cfg = MobiRescueConfig(seed=6)
        agent = make_agent(cfg)
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.random(cfg.state_dim)
            valid = rng.random(cfg.num_actions) < 0.5
            valid[-1] = True
            q = agent.q_net.forward(x[None, :])[0]
            want = int(np.argmax(np.where(valid, q, -np.inf)))
            assert agent.act(x, valid, greedy=True) == want
