"""Fault injection: models, profiles, engine degradation paths, determinism."""

import numpy as np
import pytest

from repro.core.positions import DegradedPositionFeed
from repro.data.charlotte import build_charlotte_scenario
from repro.dispatch.base import (
    DispatchGuard,
    Dispatcher,
    command_segment,
)
from repro.faults import (
    CommLossFault,
    DispatcherFailureFault,
    FaultInjector,
    FaultProfile,
    GpsDropoutFault,
    OutageWindow,
    PROFILES,
    RoadClosureFault,
    TeamBreakdownFault,
    get_profile,
    make_injector,
    sample_windows,
)
from repro.roadnet.generator import RoadNetworkConfig
from repro.sim.engine import RescueSimulator, SimulationConfig
from repro.sim.metrics import SimulationMetrics
from repro.sim.requests import RescueRequest
from repro.sim.teams import RescueTeam, TeamState
from repro.weather.storms import FLORENCE

DAY = 86_400.0
T0 = 2 * DAY  # dry pre-storm day: engine mechanics are deterministic


@pytest.fixture(scope="module")
def small_scenario():
    return build_charlotte_scenario(
        FLORENCE, RoadNetworkConfig(grid_cols=8, grid_rows=8)
    )


class ScriptedDispatcher(Dispatcher):
    name = "Scripted"

    def __init__(self, script):
        self.script = script
        self.cycle = 0

    def dispatch(self, obs):
        commands = self.script.get(self.cycle, {})
        self.cycle += 1
        return commands


def _request_near(scenario, node, dt=0.0):
    seg = scenario.network.out_segments(node)[0]
    return RescueRequest(0, 999, T0 + dt, seg.segment_id, node)


def _result_fingerprint(result):
    return (
        tuple(result.pickups),
        tuple(result.deliveries),
        tuple(result.serving_samples),
        tuple(result.incidents),
    )


class TestProfiles:
    def test_shipped_profiles(self):
        assert set(PROFILES) == {"none", "mild", "severe", "blackout"}
        assert get_profile("none").is_null
        for name in ("mild", "severe", "blackout"):
            assert not get_profile(name).is_null

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            get_profile("catastrophic")

    def test_make_injector_none_is_disabled(self):
        assert make_injector("none", 0.0, DAY) is None
        assert make_injector("severe", 0.0, DAY) is not None

    def test_injector_validation(self):
        profile = get_profile("severe")
        with pytest.raises(ValueError):
            FaultInjector(profile, 10.0, 5.0)
        with pytest.raises(ValueError):
            FaultInjector(profile, 0.0, DAY, seed=-1)


class TestSampling:
    def test_outage_window_covers(self):
        w = OutageWindow(10.0, 20.0)
        assert w.covers(10.0) and w.covers(19.999)
        assert not w.covers(20.0) and not w.covers(9.999)

    def test_sample_windows_disjoint_sorted_clipped(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            windows = sample_windows(rng, 0.0, DAY, 1.0, 5.0, 4 * 3_600.0)
            prev_end = -1.0
            for w in windows:
                assert 0.0 <= w.start_s < w.end_s <= DAY
                assert w.start_s > prev_end  # merged: strictly disjoint
                prev_end = w.end_s

    def test_zero_probability_never_affects(self):
        rng = np.random.default_rng(0)
        assert sample_windows(rng, 0.0, DAY, 0.0, 5.0, 3_600.0) == ()

    def test_query_order_independent(self):
        a = make_injector("severe", 0.0, DAY, seed=3)
        b = make_injector("severe", 0.0, DAY, seed=3)
        ids = list(range(30))
        fwd = [a.comm_blocked(i, 40_000.0) for i in ids]
        rev = [b.comm_blocked(i, 40_000.0) for i in reversed(ids)]
        assert fwd == list(reversed(rev))

    def test_seed_changes_schedule(self):
        t = 40_000.0
        ids = range(300)
        a = make_injector("blackout", 0.0, DAY, seed=0)
        b = make_injector("blackout", 0.0, DAY, seed=1)
        assert [a.gps_stale(i, t) for i in ids] != [b.gps_stale(i, t) for i in ids]

    def test_closures_bound_once(self):
        inj = make_injector("blackout", 0.0, DAY, seed=0)
        inj.bind_segments(list(range(500)))
        first = inj.closed_segments(DAY / 2)
        inj.bind_segments(list(range(500, 900)))  # ignored: already bound
        assert inj.closed_segments(DAY / 2) == first
        assert first  # blackout closes plenty out of 500 segments


class TestDispatchGuard:
    class _Boom(Dispatcher):
        name = "Boom"

        def dispatch(self, obs):
            raise RuntimeError("solver crashed")

        def on_cycle_end(self, obs):
            raise ValueError("training diverged")

    def test_exception_becomes_fallback(self):
        guard = DispatchGuard(self._Boom())
        action, incident = guard.dispatch(None)
        assert action == {}
        assert "solver crashed" in incident
        assert guard.fallback_count == 1

    def test_budget_overrun_becomes_fallback(self):
        import time

        class Slow(Dispatcher):
            name = "Slow"

            def dispatch(self, obs):
                time.sleep(0.05)
                return {0: command_segment(1)}

        guard = DispatchGuard(Slow(), budget_s=0.001)
        action, incident = guard.dispatch(None)
        assert action == {}
        assert "compute budget" in incident

    def test_within_budget_passes_through(self):
        class Fast(Dispatcher):
            name = "Fast"

            def dispatch(self, obs):
                return {0: command_segment(1)}

        guard = DispatchGuard(Fast(), budget_s=60.0)
        action, incident = guard.dispatch(None)
        assert incident is None
        assert action == {0: command_segment(1)}

    def test_hooks_guarded(self):
        guard = DispatchGuard(self._Boom())
        assert "training diverged" in guard.on_cycle_end(None)
        assert guard.hook_error_count == 1

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            DispatchGuard(self._Boom(), budget_s=0.0)


class TestTeamBreakdownState:
    def test_break_down_and_repair(self):
        team = RescueTeam(team_id=0, capacity=5, node=0)
        assert not team.is_down and team.is_assignable
        team.break_down(500.0)
        assert team.is_down
        assert not team.is_assignable
        assert team.state is TeamState.IDLE
        team.repair()
        assert not team.is_down and team.is_assignable


class TestEngineDegradation:
    def test_crashing_dispatcher_does_not_abort_run(self, small_scenario):
        scen = small_scenario
        node = scen.network.landmark_ids()[10]
        req = _request_near(scen, node)

        class Crashy(ScriptedDispatcher):
            def dispatch(self, obs):
                self.cycle += 1
                if self.cycle % 2 == 0:
                    raise RuntimeError("boom")
                return {0: command_segment(req.segment_id)}

        sim = RescueSimulator(
            scen, [req], Crashy({}),
            SimulationConfig(t0_s=T0, t1_s=T0 + 6 * 3_600, num_teams=1, seed=3),
        )
        result = sim.run()
        m = SimulationMetrics(result)
        assert result.num_served == 1  # surviving cycles still dispatch
        assert m.fallback_activations > 0
        assert m.incident_counts()["dispatcher_fallback"] == m.fallback_activations

    def test_injected_dispatcher_failure_activates_fallback(self, small_scenario):
        scen = small_scenario
        profile = FaultProfile(
            name="disp-only", dispatcher=DispatcherFailureFault(p_fail_per_cycle=1.0)
        )
        inj = FaultInjector(profile, T0, T0 + 2 * 3_600, seed=0)
        node = scen.network.landmark_ids()[10]
        req = _request_near(scen, node)
        sim = RescueSimulator(
            scen, [req],
            ScriptedDispatcher({i: {0: command_segment(req.segment_id)} for i in range(40)}),
            SimulationConfig(t0_s=T0, t1_s=T0 + 2 * 3_600, num_teams=1, seed=3),
            faults=inj,
        )
        result = sim.run()
        m = SimulationMetrics(result)
        # Every cycle failed: the dispatcher never ran, nothing was served.
        assert result.num_served == 0
        assert m.fallback_activations == len(result.serving_samples)

    def test_comm_blackout_drops_commands(self, small_scenario):
        scen = small_scenario
        profile = FaultProfile(
            name="comm-only",
            comm=CommLossFault(p_affected=1.0, outages_per_team=1.0, mean_outage_s=10 * DAY),
        )
        inj = FaultInjector(profile, T0 - DAY, T0 + 2 * DAY, seed=1)
        # Guarantee the whole window is one long outage for team 0.
        inj._comm[0] = (OutageWindow(T0 - DAY, T0 + 2 * DAY),)
        node = scen.network.landmark_ids()[10]
        req = _request_near(scen, node)
        sim = RescueSimulator(
            scen, [req],
            ScriptedDispatcher({i: {0: command_segment(req.segment_id)} for i in range(40)}),
            SimulationConfig(t0_s=T0, t1_s=T0 + 4 * 3_600, num_teams=1, seed=3),
            faults=inj,
        )
        result = sim.run()
        m = SimulationMetrics(result)
        assert result.num_served == 0  # no command ever reached the team
        assert m.dropped_commands > 0

    def test_breakdown_strands_then_recovers(self, small_scenario):
        scen = small_scenario
        profile = FaultProfile(
            name="bk-only",
            breakdown=TeamBreakdownFault(p_affected=1.0, breakdowns_per_team=1.0),
        )
        inj = FaultInjector(profile, T0, T0 + DAY, seed=1)
        # Break down one hour in, repaired two hours later.
        inj._breakdown[0] = (OutageWindow(T0 + 3_600.0, T0 + 3 * 3_600.0),)
        node = scen.network.landmark_ids()[10]
        req = _request_near(scen, node)
        sim = RescueSimulator(
            scen, [req],
            ScriptedDispatcher({i: {0: command_segment(req.segment_id)} for i in range(300)}),
            SimulationConfig(t0_s=T0, t1_s=T0 + 12 * 3_600, num_teams=1, seed=3),
            faults=inj,
        )
        result = sim.run()
        m = SimulationMetrics(result)
        assert m.breakdowns == 1
        assert m.incident_counts().get("repair_complete") == 1
        # The team recovers and the mission still completes.
        assert result.num_served == 1
        assert len(result.deliveries) == 1

    def test_fault_closures_feed_reroutes(self, small_scenario):
        scen = small_scenario
        profile = FaultProfile(
            name="closure-only",
            closure=RoadClosureFault(
                p_affected=0.5, closures_per_segment=1.0, mean_closure_s=12 * 3_600.0
            ),
        )
        inj = FaultInjector(profile, T0, T0 + DAY, seed=5)
        node = scen.network.landmark_ids()[10]
        req = _request_near(scen, node)
        sim = RescueSimulator(
            scen, [req],
            ScriptedDispatcher({i: {0: command_segment(req.segment_id)} for i in range(300)}),
            SimulationConfig(t0_s=T0, t1_s=T0 + 12 * 3_600, num_teams=1, seed=3),
            faults=inj,
        )
        result = sim.run()  # must complete despite widespread closures
        assert inj.closed_segments(T0 + 6 * 3_600)  # closures actually active

    def test_dispatch_budget_config(self, small_scenario):
        import time

        scen = small_scenario
        node = scen.network.landmark_ids()[10]
        req = _request_near(scen, node)

        class Slow(ScriptedDispatcher):
            def dispatch(self, obs):
                time.sleep(0.02)
                return {0: command_segment(req.segment_id)}

        sim = RescueSimulator(
            scen, [req], Slow({}),
            SimulationConfig(
                t0_s=T0, t1_s=T0 + 2 * 3_600, num_teams=1, seed=3,
                dispatch_budget_s=0.001,
            ),
        )
        result = sim.run()
        m = SimulationMetrics(result)
        assert result.num_served == 0  # every cycle blew the budget
        assert m.fallback_activations == len(result.serving_samples)


class TestFaultDeterminism:
    def _run(self, scen, faults):
        node = scen.network.landmark_ids()[10]
        req = _request_near(scen, node)
        script = {i: {j: command_segment(req.segment_id) for j in range(4)} for i in range(300)}
        sim = RescueSimulator(
            scen, [req], ScriptedDispatcher(script),
            SimulationConfig(t0_s=T0, t1_s=T0 + 24 * 3_600, num_teams=4, seed=3),
            faults=faults,
        )
        return sim.run()

    def test_same_seed_same_profile_bit_identical(self, small_scenario):
        scen = small_scenario
        r1 = self._run(scen, make_injector("severe", T0, T0 + 24 * 3_600, seed=11))
        r2 = self._run(scen, make_injector("severe", T0, T0 + 24 * 3_600, seed=11))
        assert _result_fingerprint(r1) == _result_fingerprint(r2)
        m1, m2 = SimulationMetrics(r1), SimulationMetrics(r2)
        assert m1.incident_counts() == m2.incident_counts()
        assert np.array_equal(m1.served_per_hour(), m2.served_per_hour())
        assert np.array_equal(m1.driving_delays(), m2.driving_delays())

    def test_none_profile_matches_no_injector_exactly(self, small_scenario):
        scen = small_scenario
        baseline = self._run(scen, None)
        guarded = self._run(scen, make_injector("none", T0, T0 + 24 * 3_600, seed=11))
        assert _result_fingerprint(baseline) == _result_fingerprint(guarded)


class TestDegradedPositionFeed:
    class _StubInjector:
        """People in ``stale_ids`` are stale at every time."""

        def __init__(self, stale_ids):
            self.stale_ids = stale_ids

        def gps_stale(self, pid, t):
            return pid in self.stale_ids

        def gps_windows(self, pid):
            if pid in self.stale_ids:
                return (OutageWindow(-np.inf, np.inf),)
            return ()

    def test_drops_stale_without_history(self):
        inner = lambda t: {1: 10, 2: 20, 3: 30}  # noqa: E731
        feed = DegradedPositionFeed(inner, self._StubInjector({2}))
        assert feed(0.0) == {1: 10, 3: 30}
        assert feed.stale_drops == 1
        assert feed.fallback_uses == 0

    def test_falls_back_to_habitual_position(self):
        class InnerWithHistory:
            def __call__(self, t):
                return {1: 10, 2: 20}

            def habitual_node(self, pid, t):
                return 99 if pid == 2 else None

        feed = DegradedPositionFeed(InnerWithHistory(), self._StubInjector({2}))
        assert feed(0.0) == {1: 10, 2: 99}
        assert feed.fallback_uses == 1
        assert feed.stale_drops == 0

    def test_no_faults_is_identity(self):
        inner = lambda t: {1: 10, 2: 20}  # noqa: E731
        feed = DegradedPositionFeed(inner, self._StubInjector(set()))
        assert feed(5.0) == inner(5.0)

    def test_matches_per_person_gps_stale_under_severe(self):
        """The flat window table answers exactly what per-person
        ``gps_stale`` calls answer: same dict, same key order, same
        counters, whatever order people are first seen in."""

        class Inner:
            def __init__(self, rng):
                self.rng = rng

            def __call__(self, t):
                # A varying, shuffled population, so people first appear
                # at different times and in a different order per call.
                pids = self.rng.permutation(400)[: int(self.rng.integers(50, 400))]
                return {int(p): int(p) % 37 for p in pids}

            def habitual_node(self, pid, t):
                return None if pid % 3 == 0 else 1_000 + pid

        t0, t1 = 0.0, 2 * DAY
        feed = DegradedPositionFeed(
            Inner(np.random.default_rng(1)), make_injector("severe", t0, t1, seed=5)
        )
        reference_inner = Inner(np.random.default_rng(1))
        faults = make_injector("severe", t0, t1, seed=5)
        # Sample the reference's windows in the opposite order of ids.
        for pid in range(399, -1, -1):
            faults.gps_stale(pid, t0)
        drops = uses = stale_seen = 0
        for t in np.linspace(t0, t1, 97):
            want: dict[int, int] = {}
            for pid, node in reference_inner(float(t)).items():
                if not faults.gps_stale(pid, float(t)):
                    want[pid] = node
                    continue
                stale_seen += 1
                estimated = reference_inner.habitual_node(pid, float(t))
                if estimated is None:
                    drops += 1
                else:
                    want[pid] = estimated
                    uses += 1
            got = feed(float(t))
            assert list(got.items()) == list(want.items())
            assert (feed.stale_drops, feed.fallback_uses) == (drops, uses)
        assert drops > 0 and uses > 0 and stale_seen > 0
