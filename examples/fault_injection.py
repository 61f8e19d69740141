"""Extension example — dispatching under disaster-grade fault injection.

A real dispatch center degrades with the disaster it is responding to:
GPS fixes go stale, radio commands are delayed or lost, teams break down
mid-leg, roads close beyond the flood map, and the dispatcher itself can
crash or blow its compute budget.  ``repro.faults`` injects all five
deterministically; this example runs the same Schedule baseline on
Florence's Sep 16 under the ``none``, ``mild`` and ``severe`` profiles
and prints how service degrades and which degradation events fired.

Run:  python examples/fault_injection.py
"""

from __future__ import annotations

from repro.data import build_florence_dataset
from repro.dispatch import ScheduleDispatcher
from repro.faults import get_profile, make_injector
from repro.sim import SimulationConfig
from repro.sim.kernel import EventKernelSimulator
from repro.sim.metrics import SimulationMetrics
from repro.sim.requests import remap_to_operable, requests_from_rescues
from repro.weather.storms import SECONDS_PER_DAY, day_index

POPULATION = 600
SEED = 0


def run_profile(profile_name: str, scenario, bundle, requests, t0: float, t1: float):
    injector = make_injector(profile_name, t0, t1, seed=SEED)
    dispatcher = ScheduleDispatcher()
    sim = EventKernelSimulator(
        scenario,
        requests,
        dispatcher,
        SimulationConfig(
            t0_s=t0, t1_s=t1, num_teams=max(10, len(requests)), seed=SEED,
            dispatch_budget_s=None,
        ),
        faults=injector,
    )
    result = sim.run()
    return result, SimulationMetrics(result)


def main() -> None:
    print(f"Building the Florence dataset (population {POPULATION})...")
    scenario, bundle = build_florence_dataset(population_size=POPULATION)
    day = day_index(scenario.timeline, "Sep 16")
    t0, t1 = day * SECONDS_PER_DAY, (day + 1) * SECONDS_PER_DAY
    requests = remap_to_operable(
        requests_from_rescues(bundle.rescues, t0, t1),
        scenario.network,
        scenario.flood,
    )
    print(f"Sep 16: {len(requests)} rescue requests\n")

    header = (f"{'profile':>8}  {'served':>6}  {'timely':>6}  "
              f"{'fallbacks':>9}  {'dropped':>7}  {'breakdowns':>10}  {'reroutes':>8}")
    print(header)
    print("-" * len(header))
    for name in ("none", "mild", "severe"):
        result, metrics = run_profile(name, scenario, bundle, requests, t0, t1)
        print(f"{name:>8}  {result.num_served:>6}  {metrics.total_timely_served:>6}  "
              f"{metrics.fallback_activations:>9}  {metrics.dropped_commands:>7}  "
              f"{metrics.breakdowns:>10}  {metrics.reroutes:>8}")

    # The profile objects themselves are plain data — inspect or tweak them:
    severe = get_profile("severe")
    print(f"\nsevere profile: {severe.gps.p_affected:.0%} of devices lose GPS, "
          f"{severe.comm.p_affected:.0%} of teams lose comms "
          f"(+{severe.comm.extra_latency_s:.0f}s command latency), "
          f"{severe.breakdown.p_affected:.0%} of teams break down, "
          f"{severe.closure.p_affected:.0%} of segments close, "
          f"{severe.dispatcher.p_fail_per_cycle:.0%} dispatcher crash rate/cycle.")


if __name__ == "__main__":
    main()
