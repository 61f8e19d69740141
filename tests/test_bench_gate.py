"""Benchmark-regression gate: ``repro bench --quick`` under pytest.

Runs the quick microbenchmark suite once, validates the emitted BENCH
payload against its schema, checks the speedups the performance layer
exists for, and fails if any hot path regresses more than 2x against the
committed baseline (``benchmarks/baseline_bench.json``).

The 2x bound plus a small absolute grace keeps the gate meaningful while
tolerating machine-to-machine and scheduler variance: a genuine
complexity regression (cache disabled, vectorization dropped) overshoots
it by an order of magnitude.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.perf.bench import (
    HOT_PATHS,
    default_output_path,
    format_bench_table,
    run_bench,
    validate_bench_payload,
    write_bench,
)

BASELINE_PATH = pathlib.Path(__file__).parent.parent / "benchmarks" / "baseline_bench.json"

#: Allowed = REGRESSION_FACTOR * baseline + ABSOLUTE_GRACE_S seconds/op.
REGRESSION_FACTOR = 2.0
ABSOLUTE_GRACE_S = 0.010


@pytest.fixture(scope="module")
def payload():
    return run_bench(quick=True)


@pytest.fixture(scope="module")
def baseline():
    with open(BASELINE_PATH) as fh:
        data = json.load(fh)
    assert data["format"] == "repro-bench-baseline"
    assert data["quick"] is True
    return data


class TestBenchPayload:
    def test_schema_valid(self, payload):
        assert validate_bench_payload(payload) == []

    def test_quick_flag_and_metadata(self, payload):
        assert payload["quick"] is True
        assert payload["peak_rss_kib"] > 0
        assert default_output_path(payload) == f"BENCH_{payload['date']}.json"

    def test_speedups_hold(self, payload):
        """The reasons the perf layer exists, measured on this machine.

        Speedups are same-machine ratios, so they are robust to absolute
        machine speed; the floors match the acceptance criteria."""
        assert payload["speedups"]["routing"] >= 5.0
        assert payload["speedups"]["prediction"] >= 3.0
        # The cached full-tick run must at minimum not regress materially.
        assert payload["speedups"]["full_tick"] >= 0.5
        # The event kernel's acceptance floor over the cached tick loop.
        assert payload["speedups"]["event_kernel"] >= 5.0
        # Inverted pair: sentinel-on over sentinel-off learn steps.  The
        # numeric-health screen must stay within 10% of free (same-machine
        # ratio, self-checked for bit-equality inside the workload).
        assert payload["speedups"]["sentinel_overhead"] <= 1.10

    def test_paper_step_recorded(self, payload):
        """The engines also run at the paper's 60 s step, next to the
        0.25 s run, with their own self-checked records and ratios."""
        for engine in ("seed", "cached", "event"):
            assert payload["benchmarks"][f"full_tick_{engine}_60s"]["iterations"] == 61
        assert payload["speedups"]["full_tick_60s"] > 0
        assert payload["speedups"]["event_kernel_60s"] > 0

    def test_table_renders(self, payload):
        table = format_bench_table(payload)
        for name in HOT_PATHS:
            assert name in table
        assert "speedup routing" in table


class TestRegressionGate:
    def test_baseline_covers_all_hot_paths(self, baseline):
        assert set(HOT_PATHS) <= set(baseline["seconds_per_op"])

    @pytest.mark.parametrize("name", HOT_PATHS)
    def test_hot_path_within_2x_of_baseline(self, payload, baseline, name):
        measured = payload["benchmarks"][name]["seconds_per_op"]
        allowed = REGRESSION_FACTOR * baseline["seconds_per_op"][name] + ABSOLUTE_GRACE_S
        assert measured <= allowed, (
            f"{name} regressed: {measured:.6f}s/op vs baseline "
            f"{baseline['seconds_per_op'][name]:.6f}s/op "
            f"(allowed {allowed:.6f}); refresh benchmarks/baseline_bench.json "
            f"only for an intentional change"
        )


class TestDurableOutput:
    def test_write_and_reload_roundtrip(self, payload, tmp_path):
        out = tmp_path / "BENCH_test.json"
        write_bench(payload, str(out))
        with open(out) as fh:
            reloaded = json.load(fh)
        assert reloaded == payload
        assert validate_bench_payload(reloaded) == []

    def test_write_rejects_invalid_payload(self, tmp_path):
        with pytest.raises(ValueError):
            write_bench({"format": "nope"}, str(tmp_path / "x.json"))

    def test_cli_bench_writes_artifact(self, payload, tmp_path, monkeypatch, capsys):
        """`repro bench --quick --out ...` end to end, reusing the already
        measured payload instead of re-running the suite."""
        import repro.perf.bench as bench_mod
        from repro.cli import main

        monkeypatch.setattr(bench_mod, "run_bench", lambda quick=False: dict(payload))
        out = tmp_path / "BENCH_cli.json"
        assert main(["bench", "--quick", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "speedup routing" in captured
        with open(out) as fh:
            assert validate_bench_payload(json.load(fh)) == []


class TestValidator:
    def test_rejects_wrong_format(self, payload):
        bad = dict(payload)
        bad["format"] = "other"
        assert any("format" in p for p in validate_bench_payload(bad))

    def test_rejects_missing_hot_path(self, payload):
        bad = dict(payload)
        bad["benchmarks"] = {
            k: v for k, v in payload["benchmarks"].items() if k != "routing_cached"
        }
        assert any("routing_cached" in p for p in validate_bench_payload(bad))

    def test_rejects_nonpositive_timing(self, payload):
        bad = json.loads(json.dumps(payload))
        bad["benchmarks"]["training_step"]["seconds_per_op"] = 0.0
        assert any("training_step" in p for p in validate_bench_payload(bad))

    def test_rejects_non_object(self):
        assert validate_bench_payload([1, 2]) == ["payload is not an object"]
