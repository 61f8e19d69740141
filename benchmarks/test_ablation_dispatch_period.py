"""Ablation — dispatching period.

The paper runs MobiRescue every 5 minutes; this bench compares 5 min
against a slower 15-minute cycle using the same trained models.
"""

import numpy as np
from conftest import emit

from repro.eval.tables import format_table
from repro.sim.engine import SimulationConfig
from repro.sim.kernel import EventKernelSimulator
from repro.sim.metrics import SimulationMetrics


def _run_with_period(harness, period_s: float):
    dispatcher = harness.system().deploy(
        harness.florence_scenario, harness.florence_bundle
    )
    t0, t1 = harness.eval_window
    sim = EventKernelSimulator(
        harness.florence_scenario,
        harness.eval_requests(),
        dispatcher,
        SimulationConfig(
            t0_s=t0,
            t1_s=t1,
            num_teams=harness.num_teams(),
            dispatch_period_s=period_s,
            seed=0,
        ),
    )
    result = sim.run()
    m = SimulationMetrics(result)
    tl = m.timeliness_values()
    return {
        "served": result.num_served,
        "timely": m.total_timely_served,
        "median_timeliness_s": float(np.median(tl)) if len(tl) else float("nan"),
    }


def test_ablation_dispatch_period(benchmark, harness):
    results = {
        "5 min (paper)": _run_with_period(harness, 300.0),
        "15 min": _run_with_period(harness, 900.0),
    }
    benchmark(lambda: None)

    rows = [
        [name, r["served"], r["timely"], f"{r['median_timeliness_s']:.0f}"]
        for name, r in results.items()
    ]
    emit(
        "ablation_dispatch_period",
        format_table(
            ["period", "served", "timely", "median timeliness (s)"],
            rows,
            title="Dispatch-period ablation",
        ),
    )

    # A slower cycle must not *improve* timely service.
    assert results["5 min (paper)"]["timely"] >= results["15 min"]["timely"] - 2
