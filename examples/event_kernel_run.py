"""Extension example — the event-driven simulation kernel.

The seed engine steps the clock on a fixed grid and pays the full tick
body every step; ``repro.sim.kernel.EventKernelSimulator`` schedules
work on an event heap (next arrival, next dispatch cycle, next request
activation, next breakdown/repair) over vectorized team state and skips
every tick it can prove is a no-op — while staying *bit-identical* to
the seed loop.

This example runs the same storm-onset workload through both engines at
a fine step, verifies the runs are identical event for event, and prints
the tick/event accounting and the wall-clock ratio.

Run:  python examples/event_kernel_run.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.data.charlotte import build_charlotte_scenario
from repro.dispatch.nearest import NearestDispatcher
from repro.perf.routing_cache import RoutingCache
from repro.sim import RescueSimulator, SimulationConfig
from repro.sim.kernel import EventKernelSimulator
from repro.sim.requests import RescueRequest
from repro.weather.storms import FLORENCE

NUM_TEAMS = 100
STEP_S = 0.25
HOURS = 2.0
NUM_REQUESTS = 60
SEED = 0


def make_workload(scenario):
    network = scenario.network
    rng = np.random.default_rng(SEED + 2)
    t0 = scenario.timeline.storm_start_s
    t1 = t0 + HOURS * 3_600.0
    requests = []
    for i, seg in enumerate(rng.choice(np.array(network.segment_ids()), size=NUM_REQUESTS)):
        segment = network.segment(int(seg))
        requests.append(
            RescueRequest(
                request_id=i,
                person_id=i,
                time_s=float(t0 + rng.uniform(0.0, (t1 - t0) * 0.8)),
                segment_id=int(seg),
                node_id=segment.u,
            )
        )
    return requests, t0, t1


def main() -> None:
    scenario = build_charlotte_scenario(FLORENCE)
    requests, t0, t1 = make_workload(scenario)
    config = SimulationConfig(
        t0_s=t0, t1_s=t1, num_teams=NUM_TEAMS, seed=SEED, step_s=STEP_S
    )

    start = time.perf_counter()
    seed_result = RescueSimulator(
        scenario, list(requests), NearestDispatcher(), config,
        router=RoutingCache(scenario.network),
    ).run()
    seed_s = time.perf_counter() - start

    kernel_sim = EventKernelSimulator(
        scenario, list(requests), NearestDispatcher(), config
    )
    start = time.perf_counter()
    kernel_result = kernel_sim.run()
    kernel_s = time.perf_counter() - start

    assert kernel_result.pickups == seed_result.pickups
    assert kernel_result.deliveries == seed_result.deliveries
    assert kernel_result.serving_samples == seed_result.serving_samples
    assert list(kernel_result.incidents) == list(seed_result.incidents)
    print("bit-identical: yes "
          f"({seed_result.num_served} pickups, "
          f"{len(seed_result.deliveries)} deliveries)")
    print(f"grid ticks          {kernel_sim.num_grid_ticks:6d}")
    print(f"ticks processed     {kernel_sim.ticks_processed:6d}")
    print(f"events processed    {kernel_sim.events_processed:6d}")
    print(f"fixed-step loop     {seed_s:6.2f} s")
    print(f"event kernel        {kernel_s:6.2f} s  ({seed_s / kernel_s:.1f}x)")


if __name__ == "__main__":
    main()
