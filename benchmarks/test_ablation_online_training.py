"""Ablation — online continual RL training (paper Section IV-C4).

The paper keeps training the RL model during deployment because the
historical disaster "may have different levels of impact".  This bench
deploys the same offline-trained model with and without online updates.
"""

from conftest import emit

from repro.eval.tables import format_table
from repro.sim.engine import SimulationConfig
from repro.sim.kernel import EventKernelSimulator
from repro.sim.metrics import SimulationMetrics


def _run(harness, online: bool):
    dispatcher = harness.system().deploy(
        harness.florence_scenario, harness.florence_bundle, online_training=online
    )
    t0, t1 = harness.eval_window
    sim = EventKernelSimulator(
        harness.florence_scenario,
        harness.eval_requests(),
        dispatcher,
        SimulationConfig(t0_s=t0, t1_s=t1, num_teams=harness.num_teams(), seed=0),
    )
    result = sim.run()
    return result, SimulationMetrics(result)


def test_ablation_online_training(benchmark, harness):
    results = {
        "online (paper)": _run(harness, True),
        "frozen": _run(harness, False),
    }
    benchmark(lambda: None)

    rows = [
        [name, r.num_served, m.total_timely_served]
        for name, (r, m) in results.items()
    ]
    emit(
        "ablation_online_training",
        format_table(
            ["variant", "served", "timely"],
            rows,
            title="Online continual training ablation",
        ),
    )

    online_served = results["online (paper)"][0].num_served
    frozen_served = results["frozen"][0].num_served
    # Online training must not collapse performance relative to frozen.
    assert online_served >= 0.8 * frozen_served
