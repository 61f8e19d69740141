"""Tests for the command-line interface.

These run the real pipelines at a tiny population so the full command paths
execute in seconds.
"""

import pytest

from repro.cli import build_parser, main

POP = ["--population", "200", "--episodes", "1"]


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("measure", "compare", "predict", "simulate", "robustness"):
            args = parser.parse_args([cmd])
            assert callable(args.func)
            assert args.population == 800
            assert args.verbose is False

    def test_bench_options(self):
        parser = build_parser()
        args = parser.parse_args(["bench"])
        assert callable(args.func)
        assert args.quick is False and args.out == ""
        args = parser.parse_args(["bench", "--quick", "--out", "B.json"])
        assert args.quick is True and args.out == "B.json"

    def test_robustness_options(self):
        args = build_parser().parse_args(
            ["robustness", "--profiles", "none,severe",
             "--methods", "Nearest", "--budget", "0.5", "-v"]
        )
        assert args.profiles == "none,severe"
        assert args.methods == "Nearest"
        assert args.budget == 0.5
        assert args.verbose is True

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["deploy-to-prod"])


class TestCommands:
    def test_measure(self, capsys):
        assert main(["measure", *POP]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "precipitation" in out
        assert "R3" in out

    def test_compare(self, capsys):
        assert main(["compare", *POP]) == 0
        out = capsys.readouterr().out
        assert "MobiRescue" in out
        assert "Schedule" in out
        assert "Rescue" in out

    def test_predict(self, capsys):
        assert main(["predict", *POP]) == 0
        out = capsys.readouterr().out
        assert "mean accuracy" in out

    def test_figure_ascii(self, capsys):
        assert main(["figure", "fig14", *POP]) == 0
        out = capsys.readouterr().out
        assert "serving rescue teams" in out
        assert "*=MobiRescue" in out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "fig99", *POP]) == 2

    def test_robustness(self, capsys):
        assert main([
            "robustness", *POP,
            "--profiles", "none,severe", "--methods", "Nearest",
        ]) == 0
        out = capsys.readouterr().out
        assert "Degradation under fault injection" in out
        assert "severe" in out
        assert "Nearest" in out

    def test_simulate_with_save(self, capsys, tmp_path):
        archive = str(tmp_path / "trained.npz")
        assert main(["simulate", *POP, "--save", archive]) == 0
        out = capsys.readouterr().out
        assert "served" in out
        assert (tmp_path / "trained.npz").exists()

        # The archive loads back into a deployable system.
        from repro.core.persistence import load_trained
        from repro.data import build_michael_dataset

        scenario, _ = build_michael_dataset(population_size=200)
        loaded = load_trained(archive, scenario)
        assert loaded.predictor.is_fitted


class TestResumableCommands:
    """The crash-safety surface: `train` checkpoints, sweeps persist cells."""

    def test_parser_knows_new_commands(self):
        parser = build_parser()
        args = parser.parse_args(["train", "--checkpoint-dir", "ckpts"])
        assert callable(args.func)
        assert args.checkpoint_dir == "ckpts"
        assert args.resume is False
        args = parser.parse_args(
            ["experiments", "--methods", "Nearest", "--seeds", "0,1",
             "--results-dir", "out", "--resume"]
        )
        assert args.resume is True

    def test_train_refuses_dirty_directory_without_resume(self, capsys, tmp_path):
        from repro.core.config import MobiRescueConfig
        from repro.core.persistence import save_checkpoint
        from repro.core.rl_dispatcher import make_agent

        # Fails fast, before any dataset build.
        cfg = MobiRescueConfig(num_candidates=3, seed=0)
        from repro.core.persistence import TrainingCheckpoint

        save_checkpoint(
            tmp_path,
            TrainingCheckpoint(
                episodes_done=1,
                service_rates=[0.5],
                config=cfg,
                agent_state=make_agent(cfg).get_state(),
                predictor_arrays={},
            ),
        )
        assert main(["train", "--checkpoint-dir", str(tmp_path)]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_train_resume_needs_checkpoints(self, capsys, tmp_path):
        assert main(["train", "--checkpoint-dir", str(tmp_path), "--resume"]) == 2
        assert "no checkpoints" in capsys.readouterr().err

    def test_experiments_rejects_unknown_method(self, capsys):
        assert main(["experiments", "--methods", "Teleport", *POP]) == 2
        assert "unknown methods" in capsys.readouterr().err

    def test_experiments_refuses_dirty_results_dir(self, capsys, tmp_path):
        from repro.eval.experiments import SweepStore

        SweepStore(tmp_path).put("method=Nearest,seed=0", {"served": 1})
        assert main(
            ["experiments", "--results-dir", str(tmp_path), *POP]
        ) == 2
        assert "--resume" in capsys.readouterr().err

    def test_train_runs_and_resumes(self, capsys, tmp_path):
        ckpts = str(tmp_path / "ckpts")
        pop = ["--population", "200", "--episodes", "1", "--checkpoint-dir", ckpts]
        assert main(["train", *pop]) == 0
        assert "trained 1 episode(s)" in capsys.readouterr().out

        # Same target already met: resume restores and runs nothing new.
        assert main(["train", *pop, "--resume"]) == 0
        assert "service rates" in capsys.readouterr().out

    def test_train_no_sentinel_honours_seed(self, capsys, tmp_path):
        from repro.core.persistence import find_latest_valid_checkpoint

        ckpts = tmp_path / "ckpts"
        argv = ["train", "--no-sentinel", "--seed", "3", "--population", "200",
                "--episodes", "1", "--checkpoint-dir", str(ckpts)]
        assert main(argv) == 0
        assert "trained 1 episode(s)" in capsys.readouterr().out
        found = find_latest_valid_checkpoint(ckpts)
        assert found is not None
        assert found[0].config.seed == 3

    def test_experiments_with_store(self, capsys, tmp_path):
        results = str(tmp_path / "cells")
        argv = ["experiments", "--methods", "Nearest,Schedule", *POP,
                "--results-dir", results]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Method comparison" in out

        # Re-run resumes entirely from the store.
        assert main([*argv, "--resume"]) == 0
        captured = capsys.readouterr()
        assert captured.out == out
        assert "reusing stored cell" in captured.err


class TestChaosProfiles:
    @pytest.mark.parametrize(
        "profile, known",
        [
            ("sever", "severe"),
            # A deleted profile name is rejected like any typo.
            ("shard-blackout", "severe"),
            ("train-typo", "train-severe"),
            ("worker-typo", "worker-kill"),
        ],
    )
    def test_unknown_profile_exits_2(self, profile, known, capsys):
        """Each campaign config rejects the typo before any world is built."""
        assert main(["chaos", "--profile", profile, "--quick", "--seeds", "0"]) == 2
        assert known in capsys.readouterr().err
