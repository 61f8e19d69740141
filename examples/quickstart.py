"""Quickstart: train MobiRescue on one hurricane, deploy it on another.

Builds scaled-down synthetic datasets for Hurricanes Michael (training) and
Florence (evaluation), trains the SVM request predictor and the RL
dispatcher, and simulates the paper's evaluation day (Sep 16) end to end.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import MobiRescueSystem
from repro.data import build_florence_dataset, build_michael_dataset
from repro.sim import SimulationConfig
from repro.sim.kernel import EventKernelSimulator
from repro.sim.metrics import SimulationMetrics
from repro.sim.requests import remap_to_operable, requests_from_rescues
from repro.weather.storms import SECONDS_PER_DAY, day_index

POPULATION = 800  # paper: 8,590 people; scaled down for a quick run


def main() -> None:
    print("Building the Hurricane Michael training dataset...")
    train_scenario, train_bundle = build_michael_dataset(population_size=POPULATION)
    print(f"  {len(train_bundle.trace):,} GPS fixes, "
          f"{len(train_bundle.rescues)} ground-truth rescues")

    print("Building the Hurricane Florence evaluation dataset...")
    eval_scenario, eval_bundle = build_florence_dataset(population_size=POPULATION)
    print(f"  {len(eval_bundle.trace):,} GPS fixes, "
          f"{len(eval_bundle.rescues)} ground-truth rescues")

    print("Training MobiRescue (SVM predictor + DQN dispatcher)...")
    system = MobiRescueSystem.train(train_scenario, train_bundle, episodes=4)
    rates = system.trained.episode_service_rates
    print(f"  {system.trained.episodes_run} episodes, "
          f"service rates {['%.2f' % r for r in rates]}")

    print("Deploying on Florence, simulating Sep 16 (24 h)...")
    dispatcher = system.deploy(eval_scenario, eval_bundle)
    day = day_index(eval_scenario.timeline, "Sep 16")
    t0, t1 = day * SECONDS_PER_DAY, (day + 1) * SECONDS_PER_DAY
    requests = remap_to_operable(
        requests_from_rescues(eval_bundle.rescues, t0, t1),
        eval_scenario.network,
        eval_scenario.flood,
    )
    num_teams = max(10, len(requests))
    sim = EventKernelSimulator(
        eval_scenario,
        requests,
        dispatcher,
        SimulationConfig(t0_s=t0, t1_s=t1, num_teams=num_teams, seed=0),
    )
    result = sim.run()
    metrics = SimulationMetrics(result)

    delays = metrics.driving_delays()
    timeliness = metrics.timeliness_values()
    serving = [n for _, n in result.serving_samples]
    print()
    print(f"requests:          {len(requests)}")
    print(f"served:            {result.num_served} "
          f"({100.0 * metrics.service_rate:.0f}%)")
    print(f"timely (<=30min):  {metrics.total_timely_served}")
    if len(delays):
        print(f"driving delay:     median {np.median(delays) / 60:.1f} min")
        print(f"timeliness:        median {np.median(timeliness) / 60:.1f} min")
    print(f"serving teams:     avg {np.mean(serving):.1f} of {num_teams}")
    print(f"delivered:         {metrics.delivered_count()}")


if __name__ == "__main__":
    main()
