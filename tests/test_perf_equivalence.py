"""Golden-equivalence suite: the performance layer must change nothing.

One fixed-seed scenario is pushed through the full simulation engine
twice — once with the seed per-call Dijkstra (:class:`DirectRouter`), once
with the closure-aware :class:`RoutingCache` — and every recorded artifact
(pickups, deliveries, serving samples, incidents, reward traces) must be
*bit-identical*: exact float equality, not approx.  Any divergence means
the cache changed an answer, which it is never allowed to do.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dispatch.nearest import NearestDispatcher
from repro.dispatch.rescue_ts import RescueTsDispatcher
from repro.perf.routing_cache import DirectRouter, RoutingCache
from repro.sim.engine import RescueSimulator, SimulationConfig
from repro.sim.requests import remap_to_operable, requests_from_rescues
from repro.weather.storms import SECONDS_PER_DAY, day_index


@pytest.fixture(scope="module")
def eval_window(florence_small):
    """(scenario, requests, config) for a fixed-seed Sep-16 half day."""
    scenario, bundle = florence_small
    day = day_index(scenario.timeline, "Sep 16")
    t0, t1 = day * SECONDS_PER_DAY, (day + 0.5) * SECONDS_PER_DAY
    requests = remap_to_operable(
        requests_from_rescues(bundle.rescues, t0, t1), scenario.network, scenario.flood
    )
    assert requests, "evaluation window must contain requests"
    config = SimulationConfig(t0_s=t0, t1_s=t1, num_teams=15, seed=0)
    return scenario, requests, config


def _run(scenario, requests, config, dispatcher, router):
    sim = RescueSimulator(scenario, list(requests), dispatcher, config, router=router)
    return sim.run()


def _assert_bit_identical(a, b):
    """Full SimulationResult equality — frozen event dataclasses compare
    fieldwise, floats included, so ``==`` here *is* bit-identity."""
    assert a.pickups == b.pickups
    assert a.deliveries == b.deliveries
    assert a.serving_samples == b.serving_samples
    assert a.incidents == b.incidents
    assert a.requests == b.requests
    assert a.num_served == b.num_served
    # Spot-check that the float payloads really carry information.
    if a.pickups:
        assert any(p.driving_delay_s > 0 for p in a.pickups)


class TestEngineGoldenEquivalence:
    def test_cached_run_is_bit_identical(self, eval_window):
        scenario, requests, config = eval_window
        dispatcher = NearestDispatcher()
        seed_result = _run(
            scenario, requests, config, dispatcher, DirectRouter(scenario.network)
        )
        cached_result = _run(
            scenario, requests, config, dispatcher, RoutingCache(scenario.network)
        )
        assert seed_result.num_served > 0
        _assert_bit_identical(seed_result, cached_result)

    def test_flood_unaware_dispatcher_equivalence(self, eval_window):
        """A flood-unaware planner routes commands against the empty closed
        set but drives against the real one — both cache lines must agree
        with the seed run, reroutes included."""
        scenario, requests, config = eval_window
        seed_result = _run(
            scenario, requests, config,
            RescueTsDispatcher(), DirectRouter(scenario.network),
        )
        cached_result = _run(
            scenario, requests, config,
            RescueTsDispatcher(), RoutingCache(scenario.network),
        )
        _assert_bit_identical(seed_result, cached_result)

    def test_repeat_cached_runs_are_deterministic(self, eval_window):
        """A warm cache must answer exactly like a cold one."""
        scenario, requests, config = eval_window
        cache = RoutingCache(scenario.network)
        first = _run(scenario, requests, config, NearestDispatcher(), cache)
        assert cache.hits > 0
        second = _run(scenario, requests, config, NearestDispatcher(), cache)
        _assert_bit_identical(first, second)


class TestRewardTraceEquivalence:
    def test_rl_reward_trace_bit_identical(self, michael_small, eval_window):
        """The MobiRescue dispatcher's training transitions — state, action,
        reward, next-state — must be byte-for-byte the same whether the
        engine routes through :class:`DirectRouter` or :class:`RoutingCache`.
        Only the engine's router varies: the dispatcher's pending-request
        matching consults the process-wide cache in both runs."""
        from repro.core.config import MobiRescueConfig
        from repro.core.predictor import RequestPredictor, TrainingSet
        from repro.core.rl_dispatcher import MobiRescueDispatcher, make_agent

        scenario, requests, config = eval_window
        mscen, _ = michael_small
        rng = np.random.default_rng(21)
        x = rng.normal(size=(80, 3))
        y = (x.sum(axis=1) > 0).astype(int)
        predictor = RequestPredictor(mscen, flood_gated=False).fit(
            TrainingSet(x=x, y=y)
        ).clone_for(scenario)
        cfg = MobiRescueConfig(seed=5)

        def run_with(router):
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
            result = _run(scenario, requests, config, dispatcher, router)
            return result, trace

        seed_result, seed_trace = run_with(DirectRouter(scenario.network))
        cached_result, cached_trace = run_with(RoutingCache(scenario.network))
        assert seed_trace, "training run must record transitions"
        assert seed_trace == cached_trace
        _assert_bit_identical(seed_result, cached_result)
