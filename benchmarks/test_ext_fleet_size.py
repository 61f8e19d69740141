"""Extended evaluation — fleet-size sensitivity (beyond the paper).

The paper fixes the fleet by its max-daily-requests rule.  This bench sweeps
the fleet to half and 1.5x that size and reports how MobiRescue's service
degrades/saturates — the capacity-planning curve a dispatch center would
actually consult.
"""

from conftest import emit

from repro.eval.tables import format_table
from repro.sim.engine import SimulationConfig
from repro.sim.kernel import EventKernelSimulator
from repro.sim.metrics import SimulationMetrics


def _run_with_fleet(harness, num_teams: int):
    dispatcher = harness.system().deploy(
        harness.florence_scenario, harness.florence_bundle
    )
    t0, t1 = harness.eval_window
    sim = EventKernelSimulator(
        harness.florence_scenario,
        harness.eval_requests(),
        dispatcher,
        SimulationConfig(t0_s=t0, t1_s=t1, num_teams=num_teams, seed=0),
    )
    result = sim.run()
    m = SimulationMetrics(result)
    serving = [n for _, n in result.serving_samples]
    return {
        "served": result.num_served,
        "timely": m.total_timely_served,
        "serving_avg": sum(serving) / len(serving),
    }


def test_ext_fleet_size(benchmark, harness):
    base = harness.num_teams()
    fleets = {f"{frac:.0%} ({int(base * frac)})": int(base * frac)
              for frac in (0.5, 1.0, 1.5)}
    results = {name: _run_with_fleet(harness, n) for name, n in fleets.items()}
    benchmark(lambda: None)

    total = len(harness.eval_requests())
    rows = [
        [name, r["served"], r["timely"], f"{r['serving_avg']:.1f}"]
        for name, r in results.items()
    ]
    emit(
        "ext_fleet_size",
        format_table(
            ["fleet", "served", "timely", "avg serving"],
            rows,
            title=f"Fleet-size sensitivity ({total} requests; "
                  f"paper rule = {base} teams)",
        ),
    )

    served = [r["served"] for r in results.values()]
    # Service is monotone-ish in fleet size and saturates near the rule.
    assert served[0] <= served[1] + 3
    assert served[1] >= 0.75 * total
