"""Shard chaos integration: the service harness on four shards.

The acceptance bar for the sharded topology: the clean 4-shard service
run is bit-identical to the plain engine run (as the one-shard service
is), and under the shard-blackout profile every tick still completes,
failover re-covers dead keyspace within the supervisor's budget, and the
per-shard record ledger reconciles exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.service.chaos import ChaosConfig, ChaosHarness, results_bit_identical
from repro.service.loop import DispatchService
from repro.sim.engine import RescueSimulator


@pytest.fixture(scope="module")
def shard_verdict():
    """One engine/4-shard-clean/shard-chaos triple on the shared small world."""
    harness = ChaosHarness(
        ChaosConfig(
            profile="shard-blackout",
            seeds=(0,),
            population_size=250,
            num_teams=10,
            window_days=0.25,
        )
    )
    return harness.run_seed(0), harness


class TestCleanShardedEquivalence:
    def test_clean_sharded_run_is_bit_identical_to_unsharded(self, shard_verdict):
        verdict, _ = shard_verdict
        assert verdict.equivalence_ok, verdict.violations

    def test_equivalence_holds_on_a_fresh_pair(self, shard_verdict):
        """Belt and braces: a 4-shard and a 1-shard clean service both
        equal the plain engine."""
        _, harness = shard_verdict
        baseline = RescueSimulator(
            harness.scenario,
            list(harness.requests),
            harness._make_dispatcher(0),
            harness._sim_config(0),
        ).run()
        four = harness._service(0, with_faults=False).run()
        one = DispatchService(
            harness.scenario,
            list(harness.requests),
            harness._make_dispatcher(0),
            harness._sim_config(0),
            known_persons=harness.known_persons,
        ).run()
        assert four.summary()["ingest"]["num_shards"] == 4
        assert one.summary()["ingest"]["num_shards"] == 1
        assert results_bit_identical(baseline, four.result)
        assert results_bit_identical(baseline, one.result)

    def test_clean_sharded_run_is_silent(self, shard_verdict):
        verdict, _ = shard_verdict
        clean = verdict.clean_summary
        assert clean["ticks_completed"] == clean["ticks_expected"] > 0
        assert clean["ingest"]["rejected_total"] == 0
        assert clean["ingest"]["lost"] == 0
        assert clean["supervisor"]["failovers"] == []


class TestShardChaosInvariants:
    def test_verdict_passes(self, shard_verdict):
        verdict, _ = shard_verdict
        assert verdict.ok, verdict.violations

    def test_no_tick_skipped_despite_shard_deaths(self, shard_verdict):
        verdict, _ = shard_verdict
        assert verdict.ticks_ok
        chaos = verdict.chaos_summary
        assert chaos["ticks_completed"] == chaos["ticks_expected"]

    def test_shard_faults_actually_fired(self, shard_verdict):
        """A chaos run that killed nothing proves nothing."""
        verdict, _ = shard_verdict
        supervisor = verdict.chaos_summary["supervisor"]
        assert supervisor["failovers"], "no shard ever failed over"

    def test_failover_stayed_within_budget(self, shard_verdict):
        verdict, _ = shard_verdict
        assert verdict.failover_budget_ok
        supervisor = verdict.chaos_summary["supervisor"]
        assert (
            supervisor["max_uncovered_cycles"]
            <= supervisor["failover_budget_cycles"]
        )

    def test_ledger_reconciles_under_chaos(self, shard_verdict):
        verdict, _ = shard_verdict
        assert verdict.reconciliation_ok

    def test_pinned_served_and_rejected_counts(self, shard_verdict):
        """The counts this fixture produced before the sharded service was
        folded into the one dispatch service."""
        verdict, _ = shard_verdict
        assert verdict.requests == 2
        assert (verdict.clean_served, verdict.chaos_served) == (1, 1)
        assert verdict.clean_summary["ingest"]["rejected_total"] == 0
        assert verdict.chaos_summary["ingest"]["rejected_total"] == 0

    def test_report_is_json_ready(self, shard_verdict):
        verdict, _ = shard_verdict
        encoded = json.dumps(verdict.as_json())
        assert '"failover_budget_ok"' in encoded
