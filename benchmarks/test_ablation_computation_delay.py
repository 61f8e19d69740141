"""Ablation — how much of MobiRescue's timeliness win is inference speed.

Fig. 13 credits MobiRescue's < 0.5 s inference against the baselines'
~300 s integer programs.  This bench handicaps the same trained MobiRescue
policy with a 300 s computation delay to isolate that factor.
"""

import numpy as np
from conftest import emit

from repro.eval.tables import format_table
from repro.sim.engine import SimulationConfig
from repro.sim.kernel import EventKernelSimulator
from repro.sim.metrics import SimulationMetrics


def _run_with_delay(harness, delay_s: float):
    dispatcher = harness.system().deploy(
        harness.florence_scenario, harness.florence_bundle
    )
    dispatcher.computation_delay_s = delay_s
    t0, t1 = harness.eval_window
    sim = EventKernelSimulator(
        harness.florence_scenario,
        harness.eval_requests(),
        dispatcher,
        SimulationConfig(t0_s=t0, t1_s=t1, num_teams=harness.num_teams(), seed=0),
    )
    result = sim.run()
    m = SimulationMetrics(result)
    tl = m.timeliness_values()
    return {
        "served": result.num_served,
        "timely": m.total_timely_served,
        "mean_timeliness_s": float(tl.mean()) if len(tl) else float("nan"),
    }


def test_ablation_computation_delay(benchmark, harness):
    results = {
        "0.4 s (RL inference)": _run_with_delay(harness, 0.4),
        "300 s (IP solve time)": _run_with_delay(harness, 300.0),
    }
    benchmark(lambda: None)

    rows = [
        [name, r["served"], r["timely"], f"{r['mean_timeliness_s']:.0f}"]
        for name, r in results.items()
    ]
    emit(
        "ablation_computation_delay",
        format_table(
            ["computation delay", "served", "timely", "mean timeliness (s)"],
            rows,
            title="Computation-delay ablation (same trained policy)",
        ),
    )

    fast = results["0.4 s (RL inference)"]
    slow = results["300 s (IP solve time)"]
    # The handicap costs timeliness but does not erase the policy's edge.
    assert fast["mean_timeliness_s"] <= slow["mean_timeliness_s"] + 60.0
    assert slow["served"] > 0
