"""Extended evaluation — dispatching across the whole flood (beyond the
paper).

The paper evaluates one day (Sep 16).  This bench runs MobiRescue and
Schedule continuously over Sep 15-17 — rising flood, crest, and early
recession — checking that MobiRescue's advantage is not an artifact of the
single evaluation day.
"""

import numpy as np
from conftest import emit

from repro.eval.tables import format_table
from repro.sim.engine import SimulationConfig
from repro.sim.kernel import EventKernelSimulator
from repro.sim.metrics import SimulationMetrics
from repro.sim.requests import remap_to_operable, requests_from_rescues
from repro.weather.storms import SECONDS_PER_DAY, day_index


def _run(harness, name: str, t0: float, t1: float, requests):
    dispatcher = harness.make_dispatcher(name)
    sim = EventKernelSimulator(
        harness.florence_scenario,
        requests,
        dispatcher,
        SimulationConfig(t0_s=t0, t1_s=t1, num_teams=harness.num_teams(), seed=0),
    )
    result = sim.run()
    return result, SimulationMetrics(result)


def test_ext_multiday(benchmark, harness):
    scen = harness.florence_scenario
    d0 = day_index(scen.timeline, "Sep 15")
    t0, t1 = d0 * SECONDS_PER_DAY, (d0 + 3) * SECONDS_PER_DAY
    requests = remap_to_operable(
        requests_from_rescues(harness.florence_bundle.rescues, t0, t1),
        scen.network,
        scen.flood,
    )
    results = {
        name: _run(harness, name, t0, t1, requests)
        for name in ("MobiRescue", "Schedule")
    }
    benchmark(lambda: None)

    rows = []
    for name, (result, m) in results.items():
        tl = m.timeliness_values()
        rows.append([
            name,
            result.num_served,
            m.total_timely_served,
            f"{np.median(tl):.0f}" if len(tl) else "-",
        ])
    emit(
        "ext_multiday",
        format_table(
            ["method", "served", "timely", "median timeliness (s)"],
            rows,
            title=f"Sep 15-17 continuous run ({len(requests)} requests)",
        ),
    )

    mr, sc = results["MobiRescue"], results["Schedule"]
    assert mr[0].num_served >= sc[0].num_served
    assert mr[1].total_timely_served > sc[1].total_timely_served
