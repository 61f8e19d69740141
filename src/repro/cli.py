"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``measure``
    The paper's Section-III measurement study on the Florence dataset
    (Figs. 2-6, Table I).

``compare``
    The Section-V dispatching comparison over the Sep 16 evaluation day
    (Figs. 9-14 summary table).

``predict``
    Train the SVM request predictor on Michael, score it on Florence
    (Figs. 15-16 summary).

``simulate``
    Train and deploy the full MobiRescue system, optionally saving the
    trained models with ``--save``.

``train``
    Crash-safe, checkpointed MobiRescue training under the supervisor:
    ``--checkpoint-dir`` commits resumable state every episode, and
    ``--resume`` continues a killed run bit-identically from the latest
    valid checkpoint (damaged checkpoints are quarantined).

``experiments``
    The method-comparison sweep with per-cell result persistence:
    completed cells land in ``--results-dir`` as they finish, and
    ``--resume`` re-runs only the uncompleted ones.

``robustness``
    Sweep fault-injection profiles × dispatchers and print the
    degradation table (served/delay/timeliness vs. fault severity plus
    fallback-activation, dropped-command, breakdown and reroute counts).
    Also resumable with ``--results-dir``/``--resume``.

``chaos``
    The resilience chaos harness (``docs/SERVICE.md``): per seed, run the
    plain engine, a clean guarded service run (asserted bit-identical),
    and a fault-composed chaos run, then check the invariants — no tick
    skipped, no exception escaped, served count within the degradation
    factor.  Nonzero exit on any violation; ``--out`` writes the JSON
    report durably.  A ``shard-*`` profile (``shard-kill``,
    ``shard-stall``, ``shard-skew``, ``shard-blackout``) runs the same
    harness on four ingest shards and kills, stalls or skews them in the
    chaos run, which must also keep failover within budget and the
    per-shard record accounting exact.  A ``worker-*`` profile (``worker-kill``,
    ``worker-stall``, ``worker-blackout``) runs the parallel-rollout
    harness: real worker process deaths mid-episode, zero lost episodes,
    poison episodes quarantined with incident records, and the merged
    output bit-identical to the serial path.

``rollouts``
    Fault-tolerant parallel episode rollouts (``docs/ROLLOUTS.md``):
    ``--mode eval`` fans dispatch-simulation episodes across supervised
    worker processes, ``--mode train`` collects DQN experience for the
    shared replay buffer.  ``--results-dir``/``--resume`` checkpoint per
    episode through the artifact layer; ``--verify-serial`` additionally
    runs the serial path and fails unless the merged outputs are
    bit-identical.

``loadgen``
    The deterministic million-user load harness: replays synthetic GPS
    records against the sharded ingest layer on the manual clock and
    emits per-shard throughput and p50/p95/p99 latency percentiles as a
    durable ``LOADGEN_<date>.json``.  ``--quick`` runs the CI-sized
    campaign.

``service-report``
    Render the unified service-health report (breaker snapshots,
    per-shard quarantine reason counts, incident rings, supervisor
    failovers) from a chaos or loadgen artifact, as text or atomic JSON.

``lint``
    Run reprolint, the repo-invariant static analyzer (determinism,
    durability, exception hygiene, ordering hazards), over the package
    tree or explicit paths.  ``--format json`` emits machine-readable
    findings; see ``docs/STATIC_ANALYSIS.md`` for the rule catalogue.

``bench``
    The hot-path microbenchmark suite (routing cache vs per-call
    Dijkstra, batched vs per-person SVM prediction, full simulation
    ticks, DQN training steps).  Emits a durable ``BENCH_<date>.json``
    (override with ``--out``); ``--quick`` runs the CI-sized workload.
    See ``docs/PERFORMANCE.md``.

All commands accept ``--population`` (default 800), ``--seed`` and
``--verbose`` (stream ``repro.*`` logs — incident and degradation events
included — to stderr).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--population", type=int, default=800,
        help="synthetic population size (paper: 8590)",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument(
        "--episodes", type=int, default=4, help="MobiRescue training episodes"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="stream repro.* logs (incident/degradation events) to stderr",
    )


def _datasets(args):
    from repro.data import build_florence_dataset, build_michael_dataset

    florence = build_florence_dataset(population_size=args.population)
    michael = build_michael_dataset(population_size=args.population)
    return florence, michael


def cmd_measure(args) -> int:
    from repro.eval.experiments import MeasurementSuite
    from repro.eval.tables import format_series, format_table
    from repro.weather.storms import day_label

    florence, _ = _datasets(args)
    suite = MeasurementSuite(*florence)

    print("--- Fig 2: R1/R2 hourly flow, before vs after ---")
    for name, series in suite.fig2_flow_before_after().items():
        print(format_series(name, series))

    print("\n--- Table I: factor/flow correlations ---")
    corr = suite.table1_correlations()
    print(format_table(
        ["factor", "measured", "paper"],
        [
            ["precipitation", corr["precipitation"], -0.897],
            ["wind speed", corr["wind"], -0.781],
            ["altitude", corr["altitude"], 0.739],
        ],
    ))

    print("\n--- Fig 4: rescued per region ---")
    counts = suite.fig4_rescued_by_region()
    print(format_table(["region", "rescued"],
                       [[f"R{r}", n] for r, n in sorted(counts.items())]))

    print("\n--- Fig 6: hospital deliveries per day ---")
    data = suite.fig6_deliveries_per_day()
    timeline = suite.scenario.timeline
    for d in range(timeline.total_days):
        print(f"{day_label(timeline, d):>7}: total {int(data['total'][d]):3d} "
              f"rescued {int(data['rescued'][d]):3d}")
    return 0


def cmd_compare(args) -> int:
    from repro.eval.harness import ExperimentHarness, HarnessConfig
    from repro.eval.tables import format_table

    florence, michael = _datasets(args)
    harness = ExperimentHarness(
        florence, michael,
        HarnessConfig(mobirescue_episodes=args.episodes, seed=args.seed),
    )
    print(f"eval day {harness.config.eval_day_label}: "
          f"{len(harness.eval_requests())} requests, {harness.num_teams()} teams")

    rows = []
    for name in ("MobiRescue", "Rescue", "Schedule"):
        print(f"running {name}...", file=sys.stderr)
        run = harness.run_method(name)
        m = run.metrics
        delays = m.driving_delays()
        tl = m.timeliness_values()
        serving = [n for _, n in run.result.serving_samples]
        rows.append([
            name,
            run.result.num_served,
            m.total_timely_served,
            f"{np.median(delays) / 60:.1f}" if len(delays) else "-",
            f"{np.mean(tl) / 60:.1f}" if len(tl) else "-",
            f"{np.mean(serving):.0f}",
        ])
    print(format_table(
        ["method", "served", "timely", "med delay (min)",
         "mean timeliness (min)", "avg serving"],
        rows,
    ))
    return 0


def cmd_predict(args) -> int:
    from repro.eval.experiments import DispatchExperiments
    from repro.eval.harness import ExperimentHarness, HarnessConfig
    from repro.eval.tables import format_table

    florence, michael = _datasets(args)
    harness = ExperimentHarness(
        florence, michael,
        HarnessConfig(mobirescue_episodes=args.episodes, seed=args.seed),
    )
    quality = DispatchExperiments(harness).prediction_quality()
    rows = [
        [
            name,
            f"{q.mean_accuracy:.3f}",
            f"{q.mean_precision:.3f}",
            f"{(q.precisions > 0).mean():.2f}",
        ]
        for name, q in quality.items()
    ]
    print(format_table(
        ["method", "mean accuracy", "mean precision", "segments hit"],
        rows,
        title="Per-segment rescue-request prediction (Figs 15-16)",
    ))
    return 0


def cmd_simulate(args) -> int:
    from repro.core import MobiRescueSystem, save_trained
    from repro.sim import SimulationConfig
    from repro.sim.kernel import EventKernelSimulator
    from repro.sim.metrics import SimulationMetrics
    from repro.sim.requests import remap_to_operable, requests_from_rescues
    from repro.weather.storms import SECONDS_PER_DAY, day_index

    florence, michael = _datasets(args)
    print("training MobiRescue...", file=sys.stderr)
    system = MobiRescueSystem.train(*michael, episodes=args.episodes)
    if args.save:
        save_trained(system.trained, args.save)
        print(f"saved trained models to {args.save}")

    eval_scen, eval_bundle = florence
    day = day_index(eval_scen.timeline, "Sep 16")
    t0, t1 = day * SECONDS_PER_DAY, (day + 1) * SECONDS_PER_DAY
    requests = remap_to_operable(
        requests_from_rescues(eval_bundle.rescues, t0, t1),
        eval_scen.network, eval_scen.flood,
    )
    dispatcher = system.deploy(eval_scen, eval_bundle)
    sim = EventKernelSimulator(
        eval_scen, requests, dispatcher,
        SimulationConfig(
            t0_s=t0, t1_s=t1, num_teams=max(10, len(requests)), seed=args.seed
        ),
    )
    result = sim.run()
    metrics = SimulationMetrics(result)
    print(f"requests {len(requests)}  served {result.num_served}  "
          f"timely {metrics.total_timely_served}  "
          f"delivered {metrics.delivered_count()}")
    return 0


def cmd_train(args) -> int:
    from repro.core import save_trained
    from repro.core.config import MobiRescueConfig
    from repro.core.persistence import list_checkpoints
    from repro.core.runner import RetryPolicy, Supervisor
    from repro.data import build_michael_dataset
    from repro.training import supervised_sentinel_training

    existing = list_checkpoints(args.checkpoint_dir)
    if existing and not args.resume:
        print(
            f"{args.checkpoint_dir} already holds {len(existing)} checkpoint(s); "
            "pass --resume to continue the run or choose a fresh directory",
            file=sys.stderr,
        )
        return 2
    if args.resume and not existing:
        print(f"no checkpoints under {args.checkpoint_dir} to resume", file=sys.stderr)
        return 2

    print("building the Michael (training) dataset...", file=sys.stderr)
    scenario, bundle = build_michael_dataset(population_size=args.population)
    policy = RetryPolicy(
        max_attempts=args.max_attempts,
        attempt_timeout_s=args.attempt_timeout if args.attempt_timeout > 0 else None,
    )
    supervisor = Supervisor(policy=policy, name="train", seed=args.seed)
    result = supervised_sentinel_training(
        scenario,
        bundle,
        MobiRescueConfig(seed=args.seed),
        checkpoint_dir=args.checkpoint_dir,
        episodes=args.episodes,
        supervisor=supervisor,
        progress=lambda msg: print(msg, file=sys.stderr),
        use_sentinel=not args.no_sentinel,
    )
    for anomaly in result.anomalies:
        print(
            f"anomaly: {anomaly['kind']} at episode {anomaly['episode']} "
            f"attempt {anomaly['attempt']} step {anomaly['step']}",
            file=sys.stderr,
        )
    for recovery in result.recoveries:
        print(
            f"recovery: level {recovery['level']} {recovery['actions']} "
            f"at episode {recovery['episode']}",
            file=sys.stderr,
        )
    if result.aborted:
        print(
            f"training ABORTED; forensics bundle: {result.forensics_path}",
            file=sys.stderr,
        )
        return 1
    trained = result.trained
    assert trained is not None
    rates = " ".join(f"{r:.2f}" for r in trained.episode_service_rates)
    print(f"trained {trained.episodes_run} episode(s); service rates: {rates}")
    if supervisor.incidents:
        print(f"incidents: {len(supervisor.incidents)}", file=sys.stderr)
        for incident in supervisor.incidents:
            print(f"  [{incident.kind}] {incident.message}", file=sys.stderr)
    if args.save:
        save_trained(trained, args.save)
        print(f"saved trained models to {args.save}")
    return 0


def _open_store(results_dir: str, resume: bool):
    """(store, error) for the CLI sweeps, enforcing the --resume contract."""
    from repro.eval.experiments import SweepStore

    if not results_dir:
        return None, None
    store = SweepStore(results_dir)
    if len(store) and not resume:
        return None, (
            f"{results_dir} already holds {len(store)} result cell(s); "
            "pass --resume to reuse them or choose a fresh directory"
        )
    return store, None


def cmd_experiments(args) -> int:
    from repro.eval.experiments import (
        ComparisonSweep,
        ComparisonSweepConfig,
        format_comparison_cells,
    )
    from repro.eval.harness import ExperimentHarness, HarnessConfig

    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
    unknown = [m for m in methods if m not in ExperimentHarness.METHODS]
    if unknown or not methods or not seeds:
        print(
            f"unknown methods {unknown}; choose from "
            f"{', '.join(ExperimentHarness.METHODS)}",
            file=sys.stderr,
        )
        return 2
    store, error = _open_store(args.results_dir, args.resume)
    if error:
        print(error, file=sys.stderr)
        return 2
    florence, michael = _datasets(args)
    sweep = ComparisonSweep(
        florence,
        michael,
        ComparisonSweepConfig(
            methods=methods,
            seeds=seeds,
            harness=HarnessConfig(
                mobirescue_episodes=args.episodes, seed=seeds[0]
            ),
        ),
        store=store,
    )
    cells = sweep.run(progress=lambda msg: print(msg, file=sys.stderr))
    print(format_comparison_cells(cells))
    return 0


def cmd_robustness(args) -> int:
    from repro.eval.harness import ExperimentHarness, HarnessConfig
    from repro.eval.robustness import (
        RobustnessConfig,
        RobustnessSweep,
        format_degradation_table,
    )
    from repro.faults import get_profile

    profiles = tuple(p.strip() for p in args.profiles.split(",") if p.strip())
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    # Fail fast on bad names — before the expensive dataset build.
    if not profiles or not methods:
        print("need at least one profile and one method", file=sys.stderr)
        return 2
    try:
        for name in profiles:
            get_profile(name)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    unknown = [m for m in methods if m not in ExperimentHarness.METHODS]
    if unknown:
        print(f"unknown methods {unknown}; choose from "
              f"{', '.join(ExperimentHarness.METHODS)}", file=sys.stderr)
        return 2
    store, error = _open_store(args.results_dir, args.resume)
    if error:
        print(error, file=sys.stderr)
        return 2
    florence, michael = _datasets(args)
    sweep = RobustnessSweep(
        florence,
        michael,
        RobustnessConfig(
            profiles=profiles,
            methods=methods,
            harness=HarnessConfig(
                mobirescue_episodes=args.episodes,
                seed=args.seed,
                dispatch_budget_s=args.budget if args.budget > 0 else None,
            ),
        ),
    )
    cells = sweep.run(
        progress=lambda msg: print(msg, file=sys.stderr), store=store
    )
    print(format_degradation_table(cells))
    return 0


def _service_campaign(args, seeds: tuple[int, ...]):
    from repro.service.chaos import ChaosConfig, ChaosHarness

    return ChaosHarness, ChaosConfig(
        profile=args.profile,
        seeds=seeds,
        population_size=250 if args.quick else args.population,
        num_teams=10 if args.quick else 15,
        window_days=0.25 if args.quick else 0.5,
        degradation_factor=args.factor,
    )


def _rollout_campaign(args, seeds: tuple[int, ...]):
    from repro.rollouts.chaos import RolloutChaosConfig, RolloutChaosHarness

    return RolloutChaosHarness, RolloutChaosConfig(
        profile=args.profile,
        seeds=seeds,
        episodes=4 if args.quick else 8,
        population_size=250 if args.quick else args.population,
        num_teams=10 if args.quick else 15,
        window_days=0.25 if args.quick else 0.5,
    )


def _train_campaign(args, seeds: tuple[int, ...]):
    from repro.training import TrainChaosConfig, TrainChaosHarness

    return TrainChaosHarness, TrainChaosConfig(
        profile=args.profile,
        seeds=seeds,
        episodes=2 if args.quick else 4,
        population_size=300 if args.quick else args.population,
        num_teams=8 if args.quick else 15,
        work_dir=args.work_dir or None,
    )


def _served_line(run: dict) -> str:
    return (
        f"requests {run['requests']}, clean served {run['clean_served']}, "
        f"chaos served {run['chaos_served']}"
    )


#: ``repro chaos`` campaigns by profile prefix (first match wins):
#: (prefix, harness-and-config builder, per-seed line, surface named in
#: the verdict).
_CHAOS_CAMPAIGNS = (
    (
        "worker-",
        _rollout_campaign,
        lambda run: (
            f"worker deaths {run['worker_deaths']}, "
            f"quarantined {run['quarantined_ids']}"
        ),
        "worker chaos",
    ),
    (
        "train-",
        _train_campaign,
        lambda run: (
            f"{run['applied_count']} faults applied, "
            f"{len(run['anomalies'])} anomalies, "
            f"{len(run['recoveries'])} recoveries"
            f"{', ABORTED' if run['aborted'] else ''}"
        ),
        "training chaos",
    ),
    ("shard-", _service_campaign, _served_line, "shard chaos"),
    ("", _service_campaign, _served_line, "chaos"),
)


def cmd_chaos(args) -> int:
    seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
    _, build, describe, surface = next(
        entry for entry in _CHAOS_CAMPAIGNS if args.profile.startswith(entry[0])
    )
    try:
        harness, config = build(args, seeds)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    report = harness(config).run(
        progress=lambda msg: print(msg, file=sys.stderr),
        out_path=args.out or None,
    )
    for run_json in report["runs"]:
        print(
            f"seed {run_json['seed']}: {describe(run_json)}, "
            f"{'OK' if run_json['ok'] else 'VIOLATED'}"
        )
    if args.out:
        print(f"wrote {args.out}")
    if not report["ok"]:
        for violation in report["violations"]:
            print(f"VIOLATION: {violation}", file=sys.stderr)
        return 1
    print(f"all {surface} invariants held")
    return 0


def cmd_rollouts(args) -> int:
    from repro.data import DatasetSpec, build_dataset
    from repro.rollouts import (
        EpisodeSpec,
        EvalRolloutTask,
        RolloutConfig,
        RolloutExecutor,
        RolloutStore,
        build_training_collect_task,
        run_rollouts_serial,
    )
    from repro.sim.requests import remap_to_operable, requests_from_rescues
    from repro.weather.storms import SECONDS_PER_DAY, day_index

    population = 250 if args.quick else args.population
    episodes = 4 if args.quick else args.episodes
    if args.mode == "eval":
        scenario, bundle = build_dataset(
            DatasetSpec(storm="florence", population_size=population)
        )
        day = day_index(scenario.timeline, "Sep 16")
        t0_s = day * SECONDS_PER_DAY
        t1_s = (day + (0.25 if args.quick else 0.5)) * SECONDS_PER_DAY
        requests = remap_to_operable(
            requests_from_rescues(bundle.rescues, t0_s, t1_s),
            scenario.network,
            scenario.flood,
        )
        task = EvalRolloutTask(
            scenario=scenario,
            requests=tuple(requests),
            t0_s=t0_s,
            t1_s=t1_s,
            num_teams=10 if args.quick else 15,
        )
    else:
        from repro.core.config import MobiRescueConfig

        scenario, bundle = build_dataset(
            DatasetSpec(storm="michael", population_size=population)
        )
        task = build_training_collect_task(
            scenario,
            bundle,
            MobiRescueConfig(seed=args.seed),
            num_teams=12 if args.quick else 40,
        )
    specs = [EpisodeSpec(i, task.kind, seed=args.seed) for i in range(episodes)]

    store = None
    if args.results_dir:
        store = RolloutStore(args.results_dir)
        existing = len(list(store.root.glob("episode=*.json")))
        if existing and not args.resume:
            print(
                f"{args.results_dir} already holds {existing} episode cell(s); "
                "pass --resume to reuse them or choose a fresh directory",
                file=sys.stderr,
            )
            return 2

    config = RolloutConfig(
        num_workers=args.workers,
        heartbeat_timeout_s=30.0,
        beat_interval_s=0.05,
    )
    executor = RolloutExecutor(task, config, seed=args.seed, store=store)
    report = executor.run(specs)
    print(
        f"{report.completed}/{report.total} episodes merged "
        f"({report.from_store} from store), {report.worker_deaths} worker "
        f"deaths, fingerprint {report.merged.fingerprint()[:16]}"
    )
    if args.mode == "eval":
        table = report.merged.eval_table()
        for key, value in sorted(table["totals"].items()):
            print(f"  total {key}: {value:g}")
    else:
        print(f"  transitions collected: {len(report.merged.transitions())}")
    if not report.zero_lost:
        print("LOST EPISODES", file=sys.stderr)
        return 1
    if args.verify_serial:
        serial = run_rollouts_serial(task, specs)
        if serial.merged.fingerprint() != report.merged.fingerprint():
            print(
                "PARALLEL/SERIAL MISMATCH: "
                f"{serial.merged.fingerprint()} != {report.merged.fingerprint()}",
                file=sys.stderr,
            )
            return 1
        print("parallel run bit-identical to serial")
    return 0


def cmd_loadgen(args) -> int:
    from repro.service.sharding.loadgen import (
        LoadgenConfig,
        default_output_path,
        format_loadgen_report,
        quick_config,
        run_loadgen,
    )

    if args.quick:
        config = quick_config(seed=args.seed)
    else:
        config = LoadgenConfig(
            num_users=args.users,
            records_per_user_hour=args.rate,
            sim_hours=args.hours,
            num_shards=args.shards,
            seed=args.seed,
        )
    payload = run_loadgen(
        config, progress=lambda msg: print(msg, file=sys.stderr)
    )
    path = args.out or default_output_path(payload)
    from repro.core.artifacts import atomic_write_json

    atomic_write_json(path, payload)
    print(format_loadgen_report(payload))
    print(f"\nwrote {path}")
    if not payload["reconciliation_ok"]:
        print("RECONCILIATION BROKEN", file=sys.stderr)
        return 1
    return 0


def cmd_service_report(args) -> int:
    import json

    from repro.service.report import (
        extract_service_report,
        format_service_report,
        write_service_report,
    )

    try:
        with open(args.input, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read {args.input!r}: {exc}", file=sys.stderr)
        return 2
    try:
        report = extract_service_report(payload)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.out:
        write_service_report(report, args.out)
        print(f"wrote {args.out}")
    if args.text or not args.out:
        print(format_service_report(report))
    return 0


def cmd_lint(args) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


def cmd_bench(args) -> int:
    from repro.perf.bench import (
        default_output_path,
        format_bench_table,
        run_bench,
        write_bench,
    )

    payload = run_bench(quick=args.quick)
    path = args.out or default_output_path(payload)
    write_bench(payload, path)
    print(format_bench_table(payload))
    print(f"\nwrote {path}")
    return 0


FIGURES = {
    "fig9": ("fig9_served_per_hour", "timely served requests per hour"),
    "fig11": ("fig11_delay_per_hour", "average driving delay per hour (s)"),
    "fig14": ("fig14_serving_teams_per_hour", "serving rescue teams per hour"),
}
CDF_FIGURES = {
    "fig12": ("fig12_delay_values", "driving delay CDF (s)"),
    "fig13": ("fig13_timeliness_values", "timeliness CDF (s)"),
}


def cmd_figure(args) -> int:
    from repro.eval.ascii import ascii_cdf, ascii_chart
    from repro.eval.experiments import DispatchExperiments
    from repro.eval.harness import ExperimentHarness, HarnessConfig

    fig = args.figure
    if fig not in FIGURES and fig not in CDF_FIGURES:
        known = ", ".join(sorted([*FIGURES, *CDF_FIGURES]))
        print(f"unknown figure {fig!r}; choose from: {known}", file=sys.stderr)
        return 2

    florence, michael = _datasets(args)
    harness = ExperimentHarness(
        florence, michael,
        HarnessConfig(mobirescue_episodes=args.episodes, seed=args.seed),
    )
    experiments = DispatchExperiments(harness)
    if fig in FIGURES:
        method_name, title = FIGURES[fig]
        data = getattr(experiments, method_name)()
        print(ascii_chart(data, title=f"{fig}: {title}", x_label="hour of day"))
    else:
        method_name, title = CDF_FIGURES[fig]
        data = getattr(experiments, method_name)()
        print(ascii_cdf(data, title=f"{fig}: {title}"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MobiRescue (ICDCS 2020) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="Section III measurement study")
    _add_common(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("compare", help="Section V dispatching comparison")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("predict", help="Figs 15-16 prediction quality")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="train + deploy the full system")
    _add_common(p)
    p.add_argument("--save", type=str, default="", help="save trained models (.npz)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("figure", help="render one dispatching figure as ASCII")
    p.add_argument("figure", help="fig9, fig11, fig12, fig13 or fig14")
    _add_common(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser(
        "train", help="crash-safe checkpointed training (resumable)"
    )
    _add_common(p)
    p.add_argument(
        "--checkpoint-dir", type=str, required=True,
        help="directory for resumable training checkpoints",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="continue from the latest valid checkpoint",
    )
    p.add_argument(
        "--max-attempts", type=int, default=3,
        help="supervisor retry budget for transient failures",
    )
    p.add_argument(
        "--attempt-timeout", type=float, default=0.0,
        help="per-attempt wall-clock deadline, seconds (0 = off)",
    )
    p.add_argument(
        "--no-sentinel", action="store_true",
        help="disable the numeric-health sentinel and its recovery "
             "ladder (docs/TRAINING_HEALTH.md); identical final weights "
             "either way on a healthy run",
    )
    p.add_argument("--save", type=str, default="", help="save trained models (.npz)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "chaos", help="resilience chaos harness: invariant-checked fault runs"
    )
    _add_common(p)
    p.add_argument(
        "--profile", type=str, default="severe",
        help="fault profile composed over env + components "
             "(none, mild, severe, blackout), a shard profile "
             "(shard-kill, shard-stall, shard-skew, shard-blackout) to "
             "run the service harness on four shards, a worker profile "
             "(worker-kill, worker-stall, worker-blackout) to run the "
             "parallel-rollout harness, or a training profile "
             "(train-none, train-mild, train-severe, train-blackout) to "
             "run the self-healing-training harness",
    )
    p.add_argument(
        "--seeds", type=str, default="0,1", help="comma-separated chaos seeds"
    )
    p.add_argument(
        "--factor", type=float, default=3.0,
        help="max served-count degradation factor vs the clean run",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="CI-sized world (250 people, quarter-day window, 10 teams)",
    )
    p.add_argument(
        "--out", type=str, default="",
        help="write the JSON chaos report here (atomic)",
    )
    p.add_argument(
        "--work-dir", type=str, default="",
        help="train-* profiles: persist per-seed run directories "
             "(checkpoints, journals, forensics bundles) here instead "
             "of a throwaway tempdir",
    )
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "lint", help="repo-invariant static analysis (reprolint)"
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(p)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "bench", help="hot-path microbenchmarks; writes BENCH_<date>.json"
    )
    p.add_argument(
        "--quick", action="store_true",
        help="CI-sized workload (seconds instead of minutes)",
    )
    p.add_argument(
        "--out", type=str, default="",
        help="output path (default: BENCH_<date>.json in the working directory)",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "rollouts",
        help="fault-tolerant parallel episode rollouts (eval or training "
             "collection)",
    )
    _add_common(p)
    p.add_argument(
        "--mode", type=str, default="eval", choices=("eval", "train"),
        help="eval: dispatch-simulation episodes; train: DQN experience "
             "collection",
    )
    p.add_argument(
        "--workers", type=int, default=2, help="worker process count"
    )
    p.add_argument(
        "--quick", action="store_true",
        help="CI-sized campaign (250 people, 4 episodes, quarter-day window)",
    )
    p.add_argument(
        "--results-dir", type=str, default="",
        help="persist per-episode results here (enables resumption)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="reuse completed episode cells from --results-dir",
    )
    p.add_argument(
        "--verify-serial", action="store_true",
        help="also run the serial path and fail unless bit-identical",
    )
    p.set_defaults(func=cmd_rollouts)

    p = sub.add_parser(
        "loadgen",
        help="million-user sharded-ingest load harness; "
             "writes LOADGEN_<date>.json",
    )
    p.add_argument(
        "--users", type=int, default=300_000, help="synthetic user count"
    )
    p.add_argument(
        "--rate", type=float, default=4.0, help="GPS records per user-hour"
    )
    p.add_argument(
        "--hours", type=float, default=1.0, help="simulated hours to replay"
    )
    p.add_argument("--shards", type=int, default=8, help="ingest shard count")
    p.add_argument("--seed", type=int, default=0, help="campaign seed")
    p.add_argument(
        "--quick", action="store_true",
        help="CI-sized campaign (thousands of users, a few ticks)",
    )
    p.add_argument(
        "--out", type=str, default="",
        help="output path (default: LOADGEN_<date>.json)",
    )
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "service-report",
        help="unified service-health report from a chaos, loadgen, or "
             "training artifact",
    )
    p.add_argument(
        "input", type=str,
        help="path to a chaos campaign report (service, worker, shard, or "
             "train-*), a loadgen artifact, or a training forensics "
             "bundle's incidents.json",
    )
    p.add_argument(
        "--out", type=str, default="",
        help="write the extracted report here (atomic JSON)",
    )
    p.add_argument(
        "--text", action="store_true",
        help="print the text rendering (default when --out is not given)",
    )
    p.set_defaults(func=cmd_service_report)

    p = sub.add_parser(
        "experiments", help="method-comparison sweep with per-cell persistence"
    )
    _add_common(p)
    p.add_argument(
        "--methods", type=str, default="MobiRescue,Rescue,Schedule",
        help="comma-separated dispatchers to sweep",
    )
    p.add_argument(
        "--seeds", type=str, default="0", help="comma-separated evaluation seeds"
    )
    p.add_argument(
        "--results-dir", type=str, default="",
        help="persist per-cell results here (enables resumption)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="reuse completed cells from --results-dir, run only the rest",
    )
    p.set_defaults(func=cmd_experiments)

    p = sub.add_parser(
        "robustness", help="fault-injection sweep: degradation table"
    )
    _add_common(p)
    p.add_argument(
        "--profiles", type=str, default="none,mild,severe",
        help="comma-separated fault profiles (none, mild, severe, blackout)",
    )
    p.add_argument(
        "--methods", type=str, default="MobiRescue,Rescue,Schedule,Nearest",
        help="comma-separated dispatchers to sweep",
    )
    p.add_argument(
        "--budget", type=float, default=0.0,
        help="wall-clock compute budget per dispatch call, seconds (0 = off)",
    )
    p.add_argument(
        "--results-dir", type=str, default="",
        help="persist per-cell results here (enables resumption)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="reuse completed cells from --results-dir, run only the rest",
    )
    p.set_defaults(func=cmd_robustness)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "verbose", False):
        from repro.core.log import configure

        configure(verbose=True)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
