"""Golden-equivalence suite: the event kernel must change nothing.

One fixed-seed workload is pushed through the engine twice — once through
the seed fixed-step :class:`RescueSimulator` routing with the seed per-call
Dijkstra (:class:`DirectRouter`), once through the event-driven
:class:`EventKernelSimulator` with its default router — and every recorded artifact
(pickups, deliveries, serving samples, incidents, reward traces) must be
*bit-identical*: exact float equality, not approx.  The kernel skips
ticks and reorders nothing observable; any divergence means it did.

The matrix spans simulation seeds and fault-injection profiles: the
``severe`` profile exercises breakdowns (repair wake events), injected
road closures (closure-boundary events), radio outages and dispatcher
failures on top of the flood dynamics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dispatch.nearest import NearestDispatcher
from repro.dispatch.rescue_ts import RescueTsDispatcher
from repro.dispatch.schedule import ScheduleDispatcher
from repro.faults import make_injector
from repro.perf.routing_cache import DirectRouter, routing_cache
from repro.sim.engine import RescueSimulator, SimulationConfig
from repro.sim.kernel import EventKernelSimulator
from repro.sim.requests import RescueRequest
from repro.sim.teams import RescueTeam, TeamState


@pytest.fixture(scope="module")
def kernel_window(florence_scenario):
    """(scenario, requests, t0, t1): a fixed 2-hour storm-onset workload."""
    scenario = florence_scenario
    network = scenario.network
    rng = np.random.default_rng(11)
    seg_ids = np.array(network.segment_ids())
    t0 = scenario.timeline.storm_start_s
    t1 = t0 + 2.0 * 3_600.0
    requests = []
    for i, seg in enumerate(rng.choice(seg_ids, size=60)):
        segment = network.segment(int(seg))
        requests.append(
            RescueRequest(
                request_id=i,
                person_id=i,
                time_s=float(t0 + rng.uniform(0.0, (t1 - t0) * 0.8)),
                segment_id=int(seg),
                node_id=segment.u,
            )
        )
    return scenario, requests, t0, t1


def _config(t0, t1, *, seed=0, step_s=60.0, num_teams=20):
    return SimulationConfig(
        t0_s=t0, t1_s=t1, num_teams=num_teams, seed=seed, step_s=step_s
    )


def _run(cls, scenario, requests, config, dispatcher=None, faults=None, router=None):
    # Only the seed simulator takes a router; the kernel always routes
    # through the network's process-wide engine.
    extra = {} if router is None else {"router": router}
    sim = cls(
        scenario, list(requests), dispatcher or NearestDispatcher(), config,
        faults=faults, **extra,
    )
    return sim.run()


def _assert_bit_identical(a, b):
    """Full SimulationResult equality — frozen event dataclasses compare
    fieldwise, floats included, so ``==`` here *is* bit-identity."""
    assert a.pickups == b.pickups
    assert a.deliveries == b.deliveries
    assert a.serving_samples == b.serving_samples
    assert list(a.incidents) == list(b.incidents)
    assert a.incidents_dropped == b.incidents_dropped
    assert a.requests == b.requests
    assert a.num_served == b.num_served


class TestKernelGoldenEquivalence:
    @pytest.mark.parametrize("sim_seed", [0, 3])
    @pytest.mark.parametrize("profile", ["none", "mild", "severe"])
    def test_kernel_bit_identical(self, kernel_window, profile, sim_seed):
        scenario, requests, t0, t1 = kernel_window
        config = _config(t0, t1, seed=sim_seed)

        def faults():
            return make_injector(profile, t0, t1, seed=7)

        seed_result = _run(
            RescueSimulator, scenario, requests, config,
            faults=faults(), router=DirectRouter(scenario.network),
        )
        kernel_result = _run(
            EventKernelSimulator, scenario, requests, config, faults=faults()
        )
        assert seed_result.num_served > 0
        if profile == "severe":
            assert seed_result.incidents, "severe profile must record incidents"
        _assert_bit_identical(seed_result, kernel_result)

    def test_kernel_fine_step_bit_identical(self, kernel_window):
        """The regime the kernel exists for — sub-minute steps — where most
        grid ticks are provably skippable."""
        scenario, requests, t0, t1 = kernel_window
        config = _config(t0, t1, step_s=10.0)
        seed_result = _run(
            RescueSimulator, scenario, requests, config,
            router=DirectRouter(scenario.network),
        )
        sim = EventKernelSimulator(
            scenario, list(requests), NearestDispatcher(), config
        )
        kernel_result = sim.run()
        _assert_bit_identical(seed_result, kernel_result)
        assert sim.ticks_processed < sim.num_grid_ticks
        assert sim.events_processed >= sim.ticks_processed

    def test_flood_unaware_dispatcher_equivalence(self, kernel_window):
        """Flood-unaware planning (empty closed set for commands, real one
        for driving) exercises the mid-leg reroute path."""
        scenario, requests, t0, t1 = kernel_window
        config = _config(t0, t1)
        seed_result = _run(
            RescueSimulator, scenario, requests, config,
            dispatcher=RescueTsDispatcher(),
            router=DirectRouter(scenario.network),
        )
        kernel_result = _run(
            EventKernelSimulator, scenario, requests, config,
            dispatcher=RescueTsDispatcher(),
        )
        _assert_bit_identical(seed_result, kernel_result)


    @pytest.mark.parametrize("sim_seed", [0, 3])
    @pytest.mark.parametrize("profile", ["none", "severe"])
    def test_schedule_bit_identical(self, kernel_window, profile, sim_seed):
        """The flood-unaware IP baseline: standby postings keep every team
        commanded, and its computation delay moves with the demand."""
        scenario, requests, t0, t1 = kernel_window
        config = _config(t0, t1, seed=sim_seed)

        def faults():
            return make_injector(profile, t0, t1, seed=7)

        seed_result = _run(
            RescueSimulator, scenario, requests, config,
            dispatcher=ScheduleDispatcher(), faults=faults(),
            router=DirectRouter(scenario.network),
        )
        kernel_result = _run(
            EventKernelSimulator, scenario, requests, config,
            dispatcher=ScheduleDispatcher(), faults=faults(),
        )
        assert seed_result.num_served > 0
        _assert_bit_identical(seed_result, kernel_result)


#: ``(num_grid_ticks, ticks_processed, events_processed)`` of the kernel on
#: the window above, as first recorded: which ticks run and which events
#: pop is part of the kernel's contract, and the perfbench output check
#: compares these same counters.
SCHEDULE_COUNTERS = {
    ("none", 0, 60.0): (121, 121, 121),
    ("none", 3, 60.0): (121, 121, 121),
    ("severe", 0, 60.0): (121, 121, 271),
    ("severe", 3, 60.0): (121, 121, 271),
    ("none", 0, 10.0): (721, 499, 499),
}


class TestScheduleCounters:
    @pytest.mark.parametrize("profile, sim_seed, step_s", sorted(SCHEDULE_COUNTERS))
    def test_counters_pinned(self, kernel_window, profile, sim_seed, step_s):
        scenario, requests, t0, t1 = kernel_window
        config = _config(t0, t1, seed=sim_seed, step_s=step_s)
        sim = EventKernelSimulator(
            scenario, list(requests), NearestDispatcher(), config,
            faults=make_injector(profile, t0, t1, seed=7),
        )
        sim.run()
        counters = (sim.num_grid_ticks, sim.ticks_processed, sim.events_processed)
        assert counters == SCHEDULE_COUNTERS[(profile, sim_seed, step_s)]


class TestLegTimes:
    def test_kernel_node_times_bitwise_equal_seed(self, kernel_window):
        """The kernel's list-built leg equals the seed's numpy leg bit for
        bit, over storm times that move the speed multiplier and repeat
        (the kernel memoizes the multiplier of the last leg's time)."""
        scenario, requests, t0, t1 = kernel_window
        network = scenario.network
        config = _config(t0, t1)
        seed = RescueSimulator(
            scenario, list(requests), NearestDispatcher(), config,
            router=DirectRouter(network),
        )
        kernel = EventKernelSimulator(scenario, list(requests), NearestDispatcher(), config)
        view = kernel._teams[0]
        router = routing_cache(network)
        timeline = scenario.timeline
        times = np.linspace(timeline.storm_start_s - 3_600.0, t1 + 86_400.0, 12)
        mults = set()
        rng = np.random.default_rng(4)
        nodes = network.landmark_ids()
        legs = 0
        while legs < 150:
            src, dst = (int(n) for n in rng.choice(nodes, size=2, replace=False))
            route = router.route(src, dst)
            if route is None:
                continue
            t = float(rng.choice(times))
            team = RescueTeam(team_id=0, capacity=5, node=src)
            seed._begin_leg(team, route, t, TeamState.TO_SEGMENT, None)
            view.node = src
            kernel._begin_leg(view, route, t, TeamState.TO_SEGMENT, None)
            assert team.node_times is not None and view.node_times is not None
            assert np.asarray(view.node_times).tobytes() == team.node_times.tobytes()
            mults.add(kernel._mult_at[1])
            legs += 1
        assert len(mults) > 3, "the storm times must move the speed multiplier"


class TestRewardTraceEquivalence:
    def test_rl_reward_trace_bit_identical(self, michael_small, kernel_window):
        """The MobiRescue dispatcher's training transitions — state, action,
        reward, next-state — must be byte-for-byte the same through the
        seed loop and the event kernel."""
        from repro.core.config import MobiRescueConfig
        from repro.core.predictor import RequestPredictor, TrainingSet
        from repro.core.rl_dispatcher import MobiRescueDispatcher, make_agent

        scenario, requests, t0, t1 = kernel_window
        config = _config(t0, t1)
        mscen, _ = michael_small
        rng = np.random.default_rng(21)
        x = rng.normal(size=(80, 3))
        y = (x.sum(axis=1) > 0).astype(int)
        predictor = RequestPredictor(mscen, flood_gated=False).fit(
            TrainingSet(x=x, y=y)
        ).clone_for(scenario)
        cfg = MobiRescueConfig(seed=5)

        def run_with(cls, router):
            agent = make_agent(cfg)
            trace = []
            original = agent.remember

            def recording_remember(state, action, reward, next_state, done):
                trace.append(
                    (state.tobytes(), int(action), float(reward),
                     next_state.tobytes(), bool(done))
                )
                original(state, action, reward, next_state, done)

            agent.remember = recording_remember
            dispatcher = MobiRescueDispatcher(
                scenario, predictor, lambda t: {}, agent, cfg, training=True
            )
            result = _run(
                cls, scenario, requests, config,
                dispatcher=dispatcher, router=router,
            )
            return result, trace

        seed_result, seed_trace = run_with(
            RescueSimulator, DirectRouter(scenario.network)
        )
        kernel_result, kernel_trace = run_with(EventKernelSimulator, None)
        assert seed_trace, "training run must record transitions"
        assert seed_trace == kernel_trace
        _assert_bit_identical(seed_result, kernel_result)
