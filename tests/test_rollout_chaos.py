"""Worker-chaos harness: real process deaths, invariant verdicts, CLI.

One small Florence eval world is built per module; the harness runs real
parallel campaigns against it with the ``worker-kill`` profile and the
tests assert the four invariants the CI gate relies on.  The CLI routing
tests monkeypatch the campaign runner so they exercise exit codes and
report plumbing without rebuilding the world.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.faults import WorkerFaultInjector, get_worker_profile
from repro.rollouts.chaos import (
    RolloutChaosConfig,
    RolloutChaosHarness,
    _expects_kills,
)

CONFIG = RolloutChaosConfig(
    profile="worker-kill",
    seeds=(0,),
    episodes=4,
    num_workers=2,
    population_size=250,
    num_teams=10,
    window_days=0.25,
)


@pytest.fixture(scope="module")
def harness():
    return RolloutChaosHarness(CONFIG)


@pytest.fixture(scope="module")
def report(harness):
    return harness.run()


class TestWorkerKillInvariants:
    def test_all_invariants_hold(self, report):
        assert report["ok"], report["violations"]

    def test_zero_episodes_lost(self, report):
        for run in report["runs"]:
            assert run["zero_lost_ok"]
            chaos = run["chaos"]
            assert (
                chaos["completed"] + len(chaos["quarantined_ids"])
                == chaos["total"]
            )

    def test_chaos_actually_killed_workers(self, harness, report):
        """A chaos run that hurt nothing proves nothing."""
        injector = WorkerFaultInjector(
            get_worker_profile("worker-kill"), seed=CONFIG.seeds[0]
        )
        episode_ids = [s.episode_id for s in harness.specs]
        assert _expects_kills(injector, episode_ids, budget=4)
        [run] = report["runs"]
        assert run["chaos_bit_ok"]
        assert run["worker_deaths"] > 0

    def test_quarantine_set_equals_poison_set(self, report):
        for run in report["runs"]:
            assert run["quarantine_ok"]
            assert run["quarantined_ids"] == run["expected_poison"]

    def test_merged_output_matches_serial_restriction(self, harness, report):
        [run] = report["runs"]
        survivors = [
            s.episode_id
            for s in harness.specs
            if s.episode_id not in run["quarantined_ids"]
        ]
        assert (
            run["chaos"]["fingerprint"]
            == harness.serial.merged.restrict(survivors).fingerprint()
        )

    def test_report_shape_and_serializability(self, report):
        encoded = json.dumps(report)
        assert report["profile"] == "worker-kill"
        assert report["serial_fingerprint"]
        assert '"zero_lost_ok"' in encoded
        [run] = report["runs"]
        assert set(run) >= {
            "seed",
            "ok",
            "zero_lost_ok",
            "equivalence_ok",
            "quarantine_ok",
            "chaos_bit_ok",
            "worker_deaths",
            "quarantined_ids",
            "expected_poison",
            "chaos",
        }


class TestChaosConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seeds": ()},
            {"episodes": 0},
            {"num_workers": 0},
            {"window_days": 0.0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            RolloutChaosConfig(**kwargs)


class TestChaosCli:
    def fake_report(self, ok=True):
        return {
            "profile": "worker-kill",
            "seeds": [0],
            "episodes": 4,
            "num_workers": 2,
            "serial_fingerprint": "cafe" * 16,
            "ok": ok,
            "violations": [] if ok else ["seed 0: 1 episodes lost"],
            "runs": [
                {
                    "seed": 0,
                    "ok": ok,
                    "worker_deaths": 3,
                    "quarantined_ids": [2],
                }
            ],
        }

    def patch_harness(self, monkeypatch, report, seen=None):
        """Replace the worker harness with one that returns ``report``."""

        class FakeHarness:
            def __init__(self, config):
                if seen is not None:
                    seen["config"] = config

            def run(self, progress=None, out_path=None):
                if out_path:
                    pathlib.Path(out_path).write_text(json.dumps(report))
                return report

        monkeypatch.setattr("repro.rollouts.chaos.RolloutChaosHarness", FakeHarness)

    def test_worker_profiles_route_to_rollout_harness(self, monkeypatch, capsys):
        seen = {}
        self.patch_harness(monkeypatch, self.fake_report(), seen)
        assert main(["chaos", "--profile", "worker-kill", "--quick",
                     "--seeds", "0"]) == 0
        assert seen["config"].profile == "worker-kill"
        assert seen["config"].seeds == (0,)
        assert seen["config"].episodes == 4
        out = capsys.readouterr().out
        assert "worker deaths 3" in out
        assert "all worker chaos invariants held" in out

    def test_violations_fail_the_gate(self, monkeypatch, capsys):
        self.patch_harness(monkeypatch, self.fake_report(ok=False))
        assert main(["chaos", "--profile", "worker-kill", "--quick"]) == 1
        assert "VIOLATION" in capsys.readouterr().err

    def test_report_artifact_is_written(self, monkeypatch, tmp_path, capsys):
        out = tmp_path / "worker-chaos.json"
        self.patch_harness(monkeypatch, self.fake_report())
        assert main(["chaos", "--profile", "worker-kill", "--quick",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ok"] is True
        assert f"wrote {out}" in capsys.readouterr().out

    def test_unknown_worker_profile_exits_2(self, capsys):
        assert main(["chaos", "--profile", "worker-typo"]) == 2
        assert "worker-kill" in capsys.readouterr().err

    def test_empty_seed_list_exits_2(self, capsys):
        assert main(["chaos", "--profile", "worker-kill", "--seeds", " "]) == 2
        capsys.readouterr()
