"""Toy-scale self-test of the benchmark (population 100, one training
episode, 4-hour evaluation windows).

Checks that every workload prints every metric ``BENCHMARK.json``
declares, with its unit, traced and untraced; that traced and untraced
runs compute the same outputs; that a tampered first-run record and a
tampered simulation trip the output checks; that normalized times
divide by the host's measured slowdown and leave out the reference
samples; and that the benchmark fails without printing a result where
the repository's sources are missing.  Run from the repository root::

    python3 perfbench/selftest.py

Exits 0 when every check holds.  Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
from types import SimpleNamespace

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench-selftest"
SEED = 7
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload: str, trace: int, script: pathlib.Path = HERE / "run.py"):
    """``(exit code, parsed last stdout line or None)`` of one toy run."""
    proc = subprocess.run(
        [
            sys.executable, str(script), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
            "--scale", "toy", "--out-dir", str(OUT),
        ],
        cwd=script.parent.parent, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        line = None
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, line


class Checks:
    def __init__(self) -> None:
        self.failed: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            self.failed.append(what)


def tampered_simulation():
    """A simulation result breaking every invariant the checks know."""
    config = SimpleNamespace(
        t0_s=0.0, t1_s=3_600.0, timely_window_s=1_800.0, team_capacity=1,
        dispatch_budget_s=0.5,
    )

    def pickup(rid, t):
        return SimpleNamespace(request_id=rid, team_id=0, t_s=t, timeliness_s=0.0)

    return SimpleNamespace(
        config=config,
        dispatcher_name="tampered",
        requests=[object()],
        pickups=[pickup(1, 10.0), pickup(3, 12.0), pickup(2, 20.0), pickup(2, 25.0)],
        deliveries=[
            SimpleNamespace(request_id=1, team_id=0, t_s=30.0),
            SimpleNamespace(request_id=2, team_id=1, t_s=15.0),
        ],
        num_served=4,
    )


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    shutil.rmtree(OUT, ignore_errors=True)
    c = Checks()

    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            code, line = bench(workload, trace)
            what = f"{workload} --trace {trace}"
            c.expect(code == 0 and line is not None and line["correct"],
                     f"{what}: exits 0 and passes its output checks")
            if line is None:
                continue
            c.expect(set(line) == RESULT_KEYS and line["attempted"] >= 1,
                     f"{what}: result line has exactly {sorted(RESULT_KEYS)}")
            printed = {k: v.get("unit") for k, v in line["metrics"].items()}
            c.expect(printed == units[trace],
                     f"{what}: prints every declared metric with its unit")
        records = [
            json.loads(p.read_text())
            for p in sorted((OUT / "runs").glob(f"{workload}-toy-s{SEED}-t*.json"))
        ]
        c.expect(len(records) == 2 and records[0]["outputs"] == records[1]["outputs"],
                 f"{workload}: traced and untraced outputs are equal")

    first = OUT / "first-runs" / f"baselines_day-toy-seed{SEED}.json"
    outputs = json.loads(first.read_text())
    outputs["sims"][0]["served"] += 1
    first.write_text(json.dumps(outputs))
    code, line = bench("baselines_day", 0)
    c.expect(
        code == 1 and line is not None and not line["correct"]
        and line["failed"] == line["attempted"],
        "a tampered first-run record fails the run, every cycle counted failed",
    )

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from checks import sim_invariants

    problems = " | ".join(sim_invariants(tampered_simulation()))
    for needle in ("budget", "picked up twice", "served 4 > requests 1",
                   "delivered at 15.0", "capacity"):
        c.expect(needle in problems, f"a tampered simulation trips the {needle!r} check")

    import speed

    meter = speed.Speedometer()
    # A host at half the reference speed for 10 s, then at reference speed.
    meter.samples = [(0.025 * i, speed.REFERENCE_S * (2.0 if i < 400 else 1.0))
                     for i in range(800)]
    meter._finish()
    c.expect(abs(meter.normalize(0.0, 9.0) - 4.5) < 1e-9
             and abs(meter.normalize(11.0, 19.0) - 8.0) < 1e-9
             and abs(meter.slowdowns([5.0, 15.0]) - [2.0, 1.0]).max() < 1e-12,
             "normalized times divide by the host's slowdown where it was measured")
    meter = speed.Speedometer(interval_s=0.01)
    meter.start()
    w0, t0, spent0 = speed.perf_counter(), meter.clock(), meter.spent_s
    while len(meter.samples) < 20:
        pass
    wall, elapsed, spent = (
        speed.perf_counter() - w0, meter.clock() - t0, meter.spent_s - spent0
    )
    meter.stop()
    c.expect(spent > 0 and abs((wall - elapsed) - spent) < 1e-3,
             "the benchmark's clocks leave out the time spent in reference samples")

    bare = pathlib.Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    code, line = bench("baselines_day", 0, script=bare / HERE.name / "run.py")
    c.expect(code not in (0, None) and line is None,
             "without the repository's sources it exits non-zero with no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(c.failed)} check(s) failed" if c.failed else "all checks passed")
    return 1 if c.failed else 0


if __name__ == "__main__":
    sys.exit(main())
