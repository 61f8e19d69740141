"""Extension example — MobiRescue on a custom disaster (Section IV-C5).

The paper notes that the disaster-related factors and the storm itself are
pluggable: "our designed method can be extended to other disasters".  This
example builds a *custom* storm — a slow-moving two-peak rain event over a
custom 5-region city — runs the full pipeline on it, and trains/evaluates
MobiRescue entirely within it (train on the first flooded days, evaluate on
the last).

Run:  python examples/custom_disaster.py
"""

from __future__ import annotations

import numpy as np

from repro.core import MobiRescueSystem
from repro.data.charlotte import CharlotteScenario
from repro.geo.coords import CHARLOTTE_BBOX, LocalProjection
from repro.geo.flood import FloodModel
from repro.geo.regions import RegionPartition, RegionProfile
from repro.geo.terrain import TerrainField
from repro.hospitals.hospitals import place_hospitals
from repro.mobility.generator import MobilityTraceGenerator, TraceConfig
from repro.mobility.population import PopulationConfig, generate_population
from repro.roadnet.generator import RoadNetworkConfig, generate_road_network
from repro.sim import SimulationConfig
from repro.sim.kernel import EventKernelSimulator
from repro.sim.metrics import SimulationMetrics
from repro.sim.requests import remap_to_operable, requests_from_rescues
from repro.weather.fields import RegionWeatherField
from repro.weather.service import WeatherService
from repro.weather.storms import SECONDS_PER_DAY, StormTimeline

POPULATION = 600

#: A custom 5-region city: a riverside industrial core (most exposed),
#: two residential shelves, a hillside suburb and a plateau.
CUSTOM_PROFILES = (
    RegionProfile(1, "hillside", 90.0, 40.0, 245.0, (0.2, 0.8)),
    RegionProfile(2, "north shelf", 120.0, 55.0, 210.0, (0.65, 0.75)),
    RegionProfile(3, "riverside core", 150.0, 70.0, 178.0, (0.45, 0.4)),
    RegionProfile(4, "south shelf", 130.0, 60.0, 200.0, (0.75, 0.2)),
    RegionProfile(5, "plateau", 100.0, 45.0, 232.0, (0.15, 0.25)),
)

#: A slow 4-day rain event cresting late — think stalled frontal system.
CUSTOM_STORM = StormTimeline(
    name="StalledFront",
    day0_label="Oct 1",
    total_days=16,
    storm_start_day=4.0,
    storm_end_day=8.0,
    rise_tau_days=4.5,
    recede_tau_days=6.0,
    crest_lag_days=2.0,
    crest_gain=1.8,
)


def build_custom_scenario() -> CharlotteScenario:
    projection = LocalProjection(CHARLOTTE_BBOX)
    partition = RegionPartition(
        CUSTOM_PROFILES, projection.width_m, projection.height_m
    )
    terrain = TerrainField(partition)
    network = generate_road_network(
        partition, RoadNetworkConfig(grid_cols=16, grid_rows=16, seed=99)
    )
    hospitals = place_hospitals(network, partition)
    field = RegionWeatherField(partition, CUSTOM_STORM)
    flood = FloodModel(terrain, field.severity_fn())
    weather = WeatherService(field, terrain, flood)
    return CharlotteScenario(
        bbox=CHARLOTTE_BBOX,
        projection=projection,
        partition=partition,
        terrain=terrain,
        network=network,
        hospitals=hospitals,
        timeline=CUSTOM_STORM,
        weather_field=field,
        flood=flood,
        weather=weather,
    )


def main() -> None:
    print("Building a custom 5-region city under a stalled frontal system...")
    scenario = build_custom_scenario()
    persons = generate_population(
        scenario.network,
        scenario.partition,
        PopulationConfig(size=POPULATION, region_weights={3: 2.0}),
        excluded_nodes=frozenset(h.node_id for h in scenario.hospitals),
    )
    generator = MobilityTraceGenerator(
        scenario.network,
        scenario.partition,
        scenario.terrain,
        scenario.weather_field,
        scenario.flood,
        scenario.hospitals,
        TraceConfig(seed=5),
    )
    bundle = generator.generate(persons)
    per_day = {}
    for r in bundle.rescues:
        per_day.setdefault(int(r.request_time_s // SECONDS_PER_DAY), 0)
        per_day[int(r.request_time_s // SECONDS_PER_DAY)] += 1
    print(f"  {len(bundle.trace):,} fixes, {len(bundle.rescues)} rescues; "
          f"requests/day {dict(sorted(per_day.items()))}")

    print("Training MobiRescue on the custom disaster...")
    system = MobiRescueSystem.train(scenario, bundle, episodes=3, num_teams=20)

    # Evaluate on the crest day (the busiest).
    eval_day = max(per_day, key=per_day.get)
    t0, t1 = eval_day * SECONDS_PER_DAY, (eval_day + 1) * SECONDS_PER_DAY
    requests = remap_to_operable(
        requests_from_rescues(bundle.rescues, t0, t1),
        scenario.network,
        scenario.flood,
    )
    dispatcher = system.deploy(scenario, bundle)
    sim = EventKernelSimulator(
        scenario,
        requests,
        dispatcher,
        SimulationConfig(
            t0_s=t0, t1_s=t1, num_teams=max(10, len(requests)), seed=1
        ),
    )
    result = sim.run()
    metrics = SimulationMetrics(result)
    tl = metrics.timeliness_values()
    print(f"\nEvaluation day {eval_day}: {len(requests)} requests")
    print(f"served {result.num_served}, timely {metrics.total_timely_served}, "
          f"median timeliness "
          f"{np.median(tl) / 60:.1f} min" if len(tl) else "no pickups")
    print("\nThe same library components handled a different storm shape,")
    print("region layout and factor profile without modification.")


if __name__ == "__main__":
    main()
