"""Training chaos harness: invariants, detection matching, report shape."""

from __future__ import annotations

import json

import pytest

from repro.training import TrainChaosConfig, TrainChaosHarness
from repro.training.chaos import DETECTION_MAP, _matches


def small_config(**overrides) -> TrainChaosConfig:
    defaults = dict(
        profile="train-mild",
        seeds=(0,),
        episodes=2,
        population_size=500,
        num_teams=8,
    )
    defaults.update(overrides)
    return TrainChaosConfig(**defaults)


class TestConfig:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            TrainChaosConfig(profile="train-nope")

    def test_needs_seeds_and_positive_sizes(self):
        with pytest.raises(ValueError):
            TrainChaosConfig(seeds=())
        with pytest.raises(ValueError):
            TrainChaosConfig(episodes=0)
        with pytest.raises(ValueError):
            TrainChaosConfig(recovery_floor=0.0)


class TestDetectionMatching:
    def test_step_fault_matches_same_window_kind(self):
        applied = {"kind": "nan-gradient", "episode": 1, "attempt": 0, "step": 4}
        hit = {"kind": "nan-loss", "episode": 1, "attempt": 0, "step": 5, "value": 0}
        assert _matches(applied, hit)
        other_attempt = dict(hit, attempt=1)
        assert not _matches(applied, other_attempt)
        wrong_kind = dict(hit, kind="reward-collapse")
        assert not _matches(applied, wrong_kind)

    def test_bitrot_matches_on_checkpoint_number(self):
        applied = {"kind": "checkpoint-bitrot", "episode": 2, "checkpoint": 3}
        hit = {"kind": "checkpoint-bitrot", "episode": 2, "attempt": 0, "value": 3.0}
        assert _matches(applied, hit)
        assert not _matches(applied, dict(hit, value=2.0))

    def test_map_covers_every_step_fault(self):
        assert set(DETECTION_MAP) == {
            "nan-gradient", "corrupt-replay", "reward-spike",
        }


class TestHarness:
    @pytest.fixture(scope="class")
    def report(self, michael_small):
        config = small_config()
        return TrainChaosHarness(config, dataset=michael_small).run()

    def test_all_invariants_hold(self, report):
        assert report["ok"], report["violations"]
        assert report["violations"] == []

    def test_faults_fired_and_were_detected(self, report):
        run = report["runs"][0]
        assert run["applied_count"] > 0
        assert run["anomalies"]
        assert run["recoveries"]
        assert not run["aborted"]

    def test_clean_run_was_bit_identical(self, report):
        assert report["runs"][0]["clean_identical"] is True

    def test_report_shape(self, report):
        assert report["profile"] == "train-mild"
        assert report["seeds"] == [0]
        run = report["runs"][0]
        for key in (
            "seed", "ok", "clean_identical", "aborted", "applied",
            "anomalies", "anomaly_kinds", "recoveries", "baseline_rates",
            "chaos_rates", "committed_checkpoints", "violations",
        ):
            assert key in run
        assert run["committed_checkpoints"] >= 1

    def test_report_round_trips_to_json(self, report, tmp_path):
        out = tmp_path / "report.json"
        out.write_text(json.dumps(report))
        assert json.loads(out.read_text()) == report


class TestRunTrainChaos:
    def test_writes_report_and_work_dir(self, michael_small, tmp_path):
        work = tmp_path / "work"
        out = tmp_path / "report.json"
        config = small_config(work_dir=str(work))
        report = TrainChaosHarness(config, dataset=michael_small).run(out_path=out)
        with open(out) as fh:
            assert json.load(fh) == report
        # The persisted run dirs (journals, checkpoints) survive for CI.
        seed_dir = work / "seed-0"
        assert (seed_dir / "chaos" / "sentinel-journal.json").exists()
        assert list((seed_dir / "chaos").glob("ckpt-*"))
