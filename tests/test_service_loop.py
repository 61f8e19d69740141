"""Service-loop tests: guarded wrappers, golden equivalence, chaos runs.

The acceptance bar for the whole service layer is the *golden
equivalence* test: a full service run with every guard wired and zero
faults must be bit-identical to a plain engine run of the same system.
The chaos test then composes environment and component faults and checks
the harness invariants end to end.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.dispatch.base import Dispatcher
from repro.faults.models import InjectedPredictorFault
from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service.chaos import ChaosConfig, ChaosHarness
from repro.service.deadline import ManualClock
from repro.service.guards import GuardedPredictor, ResilientDispatcher
from repro.service.loop import ServiceConfig

# -- guarded predictor (fakes) -------------------------------------------------


class FakePredictor:
    def __init__(self, fail=False):
        self.fail = fail
        self.calls = 0

    @property
    def is_fitted(self):
        return True

    def predict_request_distribution(self, person_nodes, t_s):
        self.calls += 1
        if self.fail:
            raise RuntimeError("svm exploded")
        return {1: 2, 3: 4}


def make_guarded(inner, clock=None, threshold=2, slice_s=None, incidents=None):
    breaker = CircuitBreaker(
        "predictor", BreakerConfig(failure_threshold=threshold, cooldown_s=600.0)
    )
    sink = None
    if incidents is not None:
        sink = lambda kind, detail, t: incidents.append(kind)
    guard = GuardedPredictor(
        inner,
        breaker,
        clock if clock is not None else ManualClock(),
        deadline_slice_s=slice_s,
        incident_sink=sink,
    )
    return guard, breaker


class TestGuardedPredictor:
    def test_clean_path_is_transparent(self):
        inner = FakePredictor()
        guard, breaker = make_guarded(inner)
        assert guard.predict_request_distribution({}, 0.0) == {1: 2, 3: 4}
        assert inner.calls == 1
        assert breaker.state == "closed"
        assert guard.fallback_serves == 0

    def test_failure_serves_last_known_good(self):
        inner = FakePredictor()
        incidents = []
        guard, breaker = make_guarded(inner, incidents=incidents)
        good = guard.predict_request_distribution({}, 0.0)
        inner.fail = True
        served = guard.predict_request_distribution({}, 300.0)
        assert served == good
        assert guard.fallback_serves == 1
        assert incidents == ["predictor_failure"]

    def test_breaker_opens_and_inner_is_not_called(self):
        inner = FakePredictor(fail=True)
        incidents = []
        guard, breaker = make_guarded(inner, threshold=2, incidents=incidents)
        guard.predict_request_distribution({}, 0.0)
        guard.predict_request_distribution({}, 300.0)
        assert breaker.state == "open"
        calls_before = inner.calls
        guard.predict_request_distribution({}, 400.0)
        assert inner.calls == calls_before  # breaker open: no inner call
        assert incidents[-1] == "predictor_breaker_open"

    def test_recovery_probe_after_cooldown(self):
        inner = FakePredictor(fail=True)
        guard, breaker = make_guarded(inner, threshold=1)
        guard.predict_request_distribution({}, 0.0)
        assert breaker.state == "open"
        inner.fail = False
        result = guard.predict_request_distribution({}, 600.0)  # probe admitted
        assert result == {1: 2, 3: 4}
        assert breaker.state == "closed"

    def test_deadline_overrun_discards_result(self):
        clock = ManualClock()
        inner = FakePredictor()

        class SlowPredictor(FakePredictor):
            def predict_request_distribution(self, person_nodes, t_s):
                clock.advance(1.0)  # slower than any slice
                return super().predict_request_distribution(person_nodes, t_s)

        slow = SlowPredictor()
        incidents = []
        guard, breaker = make_guarded(
            slow, clock=clock, slice_s=0.2, incidents=incidents
        )
        served = guard.predict_request_distribution({}, 0.0)
        assert served == {}  # overrun result discarded; empty last-known-good
        assert breaker.failures == 1
        assert incidents == ["predictor_deadline"]

    def test_injected_fault_hook(self):
        inner = FakePredictor()
        guard, breaker = make_guarded(inner)
        guard.fault_hook = lambda t: True
        guard.predict_request_distribution({}, 0.0)
        assert inner.calls == 0  # fault fires before the inner call
        assert breaker.failures == 1


# -- resilient dispatcher (fakes) ----------------------------------------------


class FakeDispatcherBase(Dispatcher):
    name = "Fake"
    flood_aware = False
    computation_delay_s = 1.0

    def __init__(self):
        self.calls = 0
        self.observed = []
        self.cycle_ends = 0

    def dispatch(self, obs):
        self.calls += 1
        return {0: "cmd"}

    def observe_requests(self, requests):
        self.observed.append(requests)

    def on_cycle_end(self, obs):
        self.cycle_ends += 1


class FailingDispatcher(FakeDispatcherBase):
    def dispatch(self, obs):
        self.calls += 1
        raise InjectedPredictorFault("policy crashed")


class FallbackDispatcher(FakeDispatcherBase):
    name = "Fallback"

    def dispatch(self, obs):
        self.calls += 1
        return {9: "fallback-cmd"}


def obs_at(t_s: float):
    return SimpleNamespace(t_s=t_s)


def make_resilient(inner, fallback=None, clock=None, slice_s=None, hook=None):
    breaker = CircuitBreaker(
        "policy", BreakerConfig(failure_threshold=2, cooldown_s=600.0)
    )
    wrapper = ResilientDispatcher(
        inner,
        breaker,
        clock if clock is not None else ManualClock(),
        deadline_slice_s=slice_s,
        fallback=fallback if fallback is not None else FallbackDispatcher(),
        latency_hook=hook,
    )
    return wrapper, breaker


class TestResilientDispatcher:
    def test_clean_path_passes_commands_through(self):
        inner = FakeDispatcherBase()
        wrapper, breaker = make_resilient(inner)
        assert wrapper.dispatch(obs_at(0.0)) == {0: "cmd"}
        assert wrapper.fallback_cycles == 0
        assert wrapper.name == "Fake"
        assert wrapper.computation_delay_s == 1.0

    def test_exception_serves_fallback_same_cycle(self):
        inner = FailingDispatcher()
        fallback = FallbackDispatcher()
        wrapper, breaker = make_resilient(inner, fallback=fallback)
        assert wrapper.dispatch(obs_at(0.0)) == {9: "fallback-cmd"}
        assert wrapper.fallback_cycles == 1
        assert breaker.failures == 1

    def test_open_breaker_skips_inner(self):
        inner = FailingDispatcher()
        wrapper, breaker = make_resilient(inner)
        wrapper.dispatch(obs_at(0.0))
        wrapper.dispatch(obs_at(300.0))
        assert breaker.state == "open"
        calls_before = inner.calls
        wrapper.dispatch(obs_at(400.0))
        assert inner.calls == calls_before

    def test_latency_spike_advances_clock_not_wall_time(self):
        inner = FakeDispatcherBase()
        fallback = FallbackDispatcher()
        wrapper, breaker = make_resilient(
            inner, fallback=fallback, slice_s=0.2, hook=lambda t: 30.0
        )
        # Injected 30 s stall overruns the 0.2 s slice: fallback serves.
        assert wrapper.dispatch(obs_at(0.0)) == {9: "fallback-cmd"}
        assert breaker.failures == 1
        assert wrapper.fallback_cycles == 1

    def test_lifecycle_hooks_pass_through(self):
        inner = FakeDispatcherBase()
        wrapper, _ = make_resilient(inner)
        wrapper.observe_requests(["r1"])
        wrapper.on_cycle_end(obs_at(0.0))
        assert inner.observed == [["r1"]]
        assert inner.cycle_ends == 1


# -- service config ------------------------------------------------------------


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_queue=0)
        with pytest.raises(ValueError):
            ServiceConfig(future_slack_s=-1.0)
        with pytest.raises(ValueError):
            ServiceConfig(max_incidents=0)


class TestChaosConfig:
    def test_profiles_validated_up_front(self):
        assert ChaosConfig(profile="shard-kill").sharded
        assert not ChaosConfig(profile="mild").sharded
        for bad in ("sever", "shard-typo"):
            with pytest.raises(ValueError):
                ChaosConfig(profile=bad)


# -- the integration triple: golden equivalence + chaos invariants -------------


@pytest.fixture(scope="module")
def chaos_verdict():
    """One full baseline/clean/chaos triple on the shared small world."""
    harness = ChaosHarness(
        ChaosConfig(
            profile="severe",
            seeds=(0,),
            population_size=500,
            num_teams=10,
            window_days=0.25,
        )
    )
    return harness.run_seed(0), harness


class TestGoldenEquivalence:
    def test_clean_service_run_is_bit_identical(self, chaos_verdict):
        verdict, _ = chaos_verdict
        assert verdict.equivalence_ok, verdict.violations
        # Clean run: guards wired but completely silent.
        clean = verdict.clean_summary
        assert clean["service_incidents"] == 0
        assert clean["policy_fallback_cycles"] == 0
        assert clean["predictor_fallback_serves"] == 0
        assert clean["ingest"]["rejected_total"] == 0

    def test_clean_run_completed_every_tick(self, chaos_verdict):
        verdict, _ = chaos_verdict
        clean = verdict.clean_summary
        assert clean["ticks_completed"] == clean["ticks_expected"] > 0


class TestChaosInvariants:
    def test_verdict_passes(self, chaos_verdict):
        verdict, _ = chaos_verdict
        assert verdict.ok, verdict.violations

    def test_no_tick_skipped_under_chaos(self, chaos_verdict):
        verdict, _ = chaos_verdict
        assert verdict.ticks_ok
        chaos = verdict.chaos_summary
        assert chaos["ticks_completed"] == chaos["ticks_expected"]

    def test_faults_actually_fired(self, chaos_verdict):
        """A chaos run that injected nothing proves nothing."""
        verdict, _ = chaos_verdict
        chaos = verdict.chaos_summary
        assert chaos["service_incidents"] > 0
        assert chaos["ingest"]["rejected_total"] > 0
        # Every injected corruption mode must have been caught at ingest.
        assert len(chaos["ingest"]["rejected_by_reason"]) >= 3

    def test_pinned_served_and_rejected_counts(self, chaos_verdict):
        """The counts this fixture produced before ingest went through the
        sharded guard."""
        verdict, _ = chaos_verdict
        assert verdict.requests == 6
        assert (verdict.clean_served, verdict.chaos_served) == (5, 4)
        assert verdict.clean_summary["ingest"]["rejected_total"] == 0
        assert verdict.chaos_summary["ingest"]["rejected_total"] == 3750

    def test_report_is_json_ready(self, chaos_verdict):
        import json

        verdict, _ = chaos_verdict
        encoded = json.dumps(verdict.as_json())
        assert '"ok"' in encoded

    def test_expected_ticks_matches_engine_loop(self, chaos_verdict):
        verdict, harness = chaos_verdict
        service = harness._service(0, with_faults=False)
        # One serving sample is recorded per dispatch cycle: the replayed
        # loop arithmetic must agree with what the engine actually did.
        expected = service.expected_ticks()
        assert expected == verdict.clean_summary["ticks_expected"]
        assert expected == verdict.clean_summary["ticks_completed"]
