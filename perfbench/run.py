"""Run one benchmark workload in this process and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload mobirescue_day --seed 3 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps every
layer boundary in a span and prints the per-layer metrics instead.
End-to-end times are normalized to the host's reference speed (see
``perfbench/speed.py``); the run record keeps them as measured too.  The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A record of the run
(environment, per-phase CPU, outputs) is written under
``.bench_build/perfbench/``; traced runs also write their spans there
as JSONL.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_OUT = ROOT / ".bench_build" / "perfbench"
#: Upper bound on timed dataset builds per run (the ``--seconds`` floor
#: adds builds after the pipeline until the run has measured that long).
MAX_SETUPS = 9

PHASES = ("setup", "train", "eval")
#: Span names whose self time is reported as ``<name>_s``.
SELF_TIMED = (
    "data.scenario", "mobility.population", "mobility.generate",
    "mobility.clean_match", "core.predictor.training_set", "core.predictor.fit",
    "core.predictor.predict", "weather.factor_vectors", "geo.flood_mask",
    "core.positions.feed", "core.state.context", "core.rl_dispatcher.dispatch",
    "ml.dqn.pretrain", "ml.dqn.act", "ml.dqn.learn", "training.sentinel",
    "core.persistence.checkpoint", "dispatch.rescue", "dispatch.schedule",
    "dispatch.nearest",
)
#: Span names whose outermost call count is reported as ``<name>_calls``.
COUNTED = (
    "core.predictor.predict", "core.positions.feed", "core.state.context",
    "ml.dqn.act", "ml.dqn.learn", "dispatch.rescue", "dispatch.schedule",
    "dispatch.nearest",
)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked of the library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads", "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


def m(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


PIPELINE = ("train", "eval")


def pipeline_wall_s(phases: dict) -> float:
    return sum(phases[p]["wall_s"] for p in PIPELINE if p in phases)


def normalized_pipeline_s(probes) -> float:
    """Train + eval wall time at the host's reference speed."""
    return sum(
        probes.speed.normalize(t0, t1) for name, t0, t1 in probes.segments if name in PIPELINE
    )


def normalized_dispatch_s(probes) -> dict[str, list[float]]:
    """Each dispatch call's CPU time at the host's reference speed."""
    import numpy as np

    return {
        name: list(np.asarray(cpu) / probes.speed.slowdowns(probes.dispatch_at[name]))
        for name, cpu in probes.dispatch_s.items()
    }


def dispatch_latency_ms(samples: dict[str, list[float]]) -> tuple[str, float, float]:
    """``(slowest dispatcher, its median, pooled p99)`` in milliseconds.

    The median is taken over the calls of the dispatcher whose median is
    largest: the methods of one workload differ by one to two orders of
    magnitude, and a median pooled over them would fall between their
    clusters and jump with small shifts.  The p99 is pooled over every
    call of the run, which puts more than ten samples beyond it.
    """
    import numpy as np

    medians = {name: float(np.median(s)) * 1e3 for name, s in samples.items()}
    slowest = max(medians, key=medians.get)
    pooled = np.concatenate([np.asarray(s) for s in samples.values()])
    return slowest, medians[slowest], float(np.percentile(pooled, 99)) * 1e3


def end_to_end(probes, setup_s: list[float], summaries: list[dict], peak_rss_mb: float) -> dict:
    """The end-to-end metrics; ``setup_s`` are the normalized builds."""
    pipeline = normalized_pipeline_s(probes)
    _, p50, p99 = dispatch_latency_ms(normalized_dispatch_s(probes))
    requests = sum(s["requests"] for s in summaries)
    return {
        "setup_s": m(statistics.median(setup_s), "s"),
        "pipeline_s": m(pipeline, "s"),
        "dispatch_p50_ms": m(p50, "ms"),
        "dispatch_p99_ms": m(p99, "ms"),
        "peak_rss_mb": m(peak_rss_mb, "MB"),
        "served_pct": m(100.0 * sum(s["served"] for s in summaries) / requests, "%"),
        "timely_pct": m(100.0 * sum(s["timely"] for s in summaries) / requests, "%"),
    }


def per_layer(probes, breakdown: dict, summaries: list[dict], span_cost_s: float) -> dict:
    layers = breakdown["layers"]

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    out = {f"{n}_s": m(layer(n, "self_s"), "s") for n in SELF_TIMED}
    out.update({f"{n}_calls": m(layer(n, "calls"), "count") for n in COUNTED})
    out["sim.run_s"] = m(layer("sim.run", "total_s"), "s")
    out["sim.self_s"] = m(layer("sim.run", "self_s"), "s")
    out["sim.runs"] = m(layer("sim.run", "calls"), "count")
    for key in ("grid_ticks", "ticks_processed", "events_processed"):
        out[f"sim.{key}"] = m(sum(s[key] for s in summaries), "count")
    grid = out["sim.grid_ticks"]["value"]
    skipped = grid - out["sim.ticks_processed"]["value"]
    out["sim.skipped_share"] = m(100.0 * skipped / grid if grid else 0.0, "%")
    out["dispatch.samples"] = m(sum(map(len, probes.dispatch_s.values())), "count")
    for key, value in probes.counts.items():
        out[key] = m(value, "bytes" if key.endswith("bytes") else "count")
    cycles = sum(s["cycles"] for s in summaries)
    for key in ("fallbacks", "dropped_commands", "breakdowns", "reroutes"):
        out[f"faults.{key}"] = m(sum(s[key] for s in summaries), "count")
    degraded = sum(s["fallbacks"] + s["prediction_failures"] for s in summaries)
    out["faults.failed_share"] = m(100.0 * degraded / cycles, "%")
    out["python.gc_s"] = m(sum(p["gc_s"] for p in probes.phases.values()), "s")
    out["python.gc_collections"] = m(
        sum(p["gc_collections"] for p in probes.phases.values()), "count"
    )
    total_wall = 0.0
    for name in PHASES:
        split = breakdown["phases"].get(name, {"wall_s": 0.0, "other_s": 0.0})
        clock = probes.phases.get(name)
        cpu = clock["user_s"] + clock["sys_s"] if clock else 0.0
        total_wall += split["wall_s"]
        out[f"phase.{name}.wall_s"] = m(split["wall_s"], "s")
        out[f"phase.{name}.other_s"] = m(split["other_s"], "s")
        out[f"phase.{name}.cpu_s"] = m(cpu, "s")
        out[f"phase.{name}.cpu_per_wall"] = m(
            cpu / clock["wall_s"] if clock and clock["wall_s"] else 0.0, "ratio"
        )
    spans = len(probes.spans)
    out["host.slowdown"] = m(probes.speed.summary()["slowdown_min_median_max"][1], "ratio")
    out["trace.spans"] = m(spans, "count")
    out["trace.overhead_pct"] = m(100.0 * spans * span_cost_s / total_wall, "%")
    return out


def overhead_vs_untraced(runs: pathlib.Path, prefix: str, phases: dict) -> float | None:
    """Traced pipeline wall time over the median of this seed's untraced
    runs recorded so far, in percent (``None`` before any)."""
    untraced = [
        pipeline_wall_s(json.loads(p.read_text())["phases"])
        for p in runs.glob(f"{prefix}*.json")
    ]
    if not untraced:
        return None
    return 100.0 * (pipeline_wall_s(phases) / statistics.median(untraced) - 1.0)


def run(args) -> tuple[dict, dict]:
    """Run the workload; return ``(result line, record)``."""
    import probes as probes_mod
    import workloads as wl
    from checks import check_against_first_run, sim_invariants, sim_summary
    from speed import Speedometer

    scale = wl.SCALES[args.scale]
    out_dir = pathlib.Path(args.out_dir)
    tmp_root = out_dir / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    run_id = f"{args.workload}-{scale.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    record: dict = {
        "run_id": run_id, "workload": args.workload, "scale": scale.name,
        "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "loadavg_before": os.getloadavg(), "environment": environment(),
    }
    t_import = time.perf_counter()
    probes_mod.span_targets()  # import every layer before anything is timed
    record["import_s"] = time.perf_counter() - t_import

    storms = wl.STORMS[args.workload]
    speed = Speedometer()
    probes = probes_mod.Probes(
        traced=bool(args.trace),
        on_sim=lambda sim, result: (sim_summary(sim, result), sim_invariants(result)),
        speed=speed,
    )
    probes.install()
    #: Program-clock ``(start, end)`` of every timed dataset build.
    builds: list[tuple[float, float]] = []
    fingerprints: list[dict] = []

    def setup_sample(keep: bool) -> dict:
        with probes.phase("setup"):
            t0 = speed.clock()
            built = wl.build_datasets(storms, scale, keep)
            builds.append((t0, speed.clock()))
        fingerprints.append(wl.dataset_fingerprint(built))
        return built

    def measured_s() -> float:
        return sum(p["wall_s"] for p in probes.phases.values())

    speed.start()
    try:
        span_cost = probes.span_cost_s() if args.trace else 0.0
        data = setup_sample(keep=True)
        outputs: dict = {}
        with wl.eval_hours(scale.eval_hours):
            stages = wl.WORKLOADS[args.workload](probes, scale, args.seed, data, tmp_root)
            for value in stages:
                outputs = value or outputs
                setup_sample(keep=False)
        while len(builds) < scale.min_setups:
            setup_sample(keep=False)
        # Read before the optional builds below, whose number varies.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while measured_s() < args.seconds and len(builds) < MAX_SETUPS:
            setup_sample(keep=False)
    finally:
        speed.stop()
        probes.uninstall()
    setup_s = [speed.normalize(t0, t1) for t0, t1 in builds]

    summaries = [summary for summary, _ in probes.sims]
    problems = [p for _, violations in probes.sims for p in violations]
    if any(f != fingerprints[0] for f in fingerprints):
        problems.append("dataset builds of one seed differ")
    if len(set(outputs.get("pass_digests", ()))) > 1:
        problems.append("the passes of this run computed different outputs")
    outputs = {
        **outputs,
        "datasets": fingerprints[0],
        "sims": summaries,
        "mobility.fixes": probes.counts["mobility.fixes"] // len(builds),
    }
    golden = out_dir / "first-runs" / f"{args.workload}-{scale.name}-seed{args.seed}.json"
    problems += check_against_first_run(golden, outputs)

    attempted = sum(s["cycles"] for s in summaries)
    failed = sum(
        s["fallbacks"] - s["injected_fallbacks"] + s["prediction_failures"]
        for s in summaries
    )
    if args.trace:
        breakdown = probes_mod.layer_breakdown(probes.spans)
        metrics = per_layer(probes, breakdown, summaries, span_cost)
        record["breakdown"] = breakdown
        record["span_cost_s"] = span_cost
        record["overhead_vs_untraced_pct"] = overhead_vs_untraced(
            out_dir / "runs", f"{args.workload}-{scale.name}-s{args.seed}-t0-", probes.phases
        )
    else:
        metrics = end_to_end(probes, setup_s, summaries, peak_rss_mb)
    record.update({
        "loadavg_after": os.getloadavg(),
        "phases": probes.phases,
        "speed": speed.summary(),
        "setup_samples_s": setup_s,
        "setup_samples_raw_s": [t1 - t0 for t0, t1 in builds],
        "pipeline_raw_s": pipeline_wall_s(probes.phases),
        "dispatch_samples": {k: len(v) for k, v in probes.dispatch_s.items()},
        "dispatch_cpu_ms": dict(zip(
            ("p50_of", "p50", "p99"), dispatch_latency_ms(probes.dispatch_s)
        )),
        "dispatch_wall_ms": dict(zip(
            ("p50_of", "p50", "p99"), dispatch_latency_ms(probes.dispatch_wall_s)
        )),
        "outputs": outputs,
        "problems": problems,
        "metrics": metrics,
    })
    runs = out_dir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{run_id}.json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        traces = out_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        with open(traces / f"{run_id}.jsonl", "w") as fh:
            for i, (name, t0, t1, parent) in enumerate(probes.spans):
                fh.write(json.dumps({
                    "run": run_id, "id": i, "name": name,
                    "start": t0, "end": t1, "parent": parent,
                }) + "\n")
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else failed,
        "metrics": metrics,
    }
    return line, record


def report(line: dict, record: dict) -> None:
    """Human-readable summary (stdout, before the JSON line)."""
    print(f"perfbench {record['run_id']}: setup samples "
          f"{', '.join(f'{s:.3f}' for s in record['setup_samples_s'])} s; "
          f"dispatch samples {record['dispatch_samples']}; "
          f"blas threads {record['environment']['blas_threads']}")
    low, mid, high = record["speed"]["slowdown_min_median_max"]
    print(f"  host slowdown {mid:.3f} (range {low:.3f}-{high:.3f}) over "
          f"{record['speed']['samples']} reference samples; raw setup samples "
          f"{', '.join(f'{s:.3f}' for s in record['setup_samples_raw_s'])} s")
    for name, p in record["phases"].items():
        cpu = p["user_s"] + p["sys_s"]
        print(f"  phase {name:5s} wall {p['wall_s']:8.3f} s  cpu {cpu:8.3f} s  "
              f"minflt {int(p['minflt'])}  gc {p['gc_s']:.3f} s")
    if "breakdown" in record:
        for phase, split in record["breakdown"]["phases"].items():
            parts = sorted(
                ((k, v) for k, v in split.items() if k != "wall_s"), key=lambda kv: -kv[1]
            )
            print(f"  {phase} {split['wall_s']:.3f} s = " + " + ".join(
                f"{k} {v:.3f}" for k, v in parts if v >= 0.0005
            ))
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="measure at least this long: timed dataset builds are added "
             "after the pipeline until the phases total this many seconds",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--out-dir", default=str(DEFAULT_OUT))
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    line, record = run(args)
    report(line, record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
