"""Ablation — reward weights of Eq. 5.

The gamma term is what makes MobiRescue minimize the number of serving
teams; with gamma = 0 the policy keeps more teams in the field.  The paper
sets the weights manually; this bench quantifies the trade-off.
"""

from conftest import emit

from dataclasses import replace

from repro.core.config import MobiRescueConfig
from repro.core.system import MobiRescueSystem
from repro.eval.tables import format_table
from repro.sim.engine import SimulationConfig
from repro.sim.kernel import EventKernelSimulator
from repro.sim.metrics import SimulationMetrics


def _run_variant(harness, config: MobiRescueConfig):
    system = MobiRescueSystem.train(
        harness.michael_scenario,
        harness.michael_bundle,
        config=config,
        episodes=3,
        num_teams=min(40, harness.num_teams()),
    )
    dispatcher = system.deploy(harness.florence_scenario, harness.florence_bundle)
    t0, t1 = harness.eval_window
    sim = EventKernelSimulator(
        harness.florence_scenario,
        harness.eval_requests(),
        dispatcher,
        SimulationConfig(t0_s=t0, t1_s=t1, num_teams=harness.num_teams(), seed=0),
    )
    result = sim.run()
    m = SimulationMetrics(result)
    serving = [n for _, n in result.serving_samples]
    return {
        "served": result.num_served,
        "timely": m.total_timely_served,
        "serving_avg": sum(serving) / len(serving),
    }


def test_ablation_reward_weights(benchmark, harness):
    base_cfg = harness.config.mobirescue_config
    variants = {
        "default": base_cfg,
        "gamma=0 (no fleet cost)": replace(base_cfg, gamma=0.0),
        "beta x4 (delay-averse)": replace(base_cfg, beta=base_cfg.beta * 4),
    }
    results = {name: _run_variant(harness, cfg) for name, cfg in variants.items()}
    benchmark(lambda: None)  # setup-dominated; the table below is the product

    rows = [
        [name, r["served"], r["timely"], f"{r['serving_avg']:.1f}"]
        for name, r in results.items()
    ]
    emit(
        "ablation_reward_weights",
        format_table(
            ["variant", "served", "timely", "avg serving teams"],
            rows,
            title=f"Reward-weight ablation (fleet={harness.num_teams()})",
        ),
    )

    # Removing the fleet-cost term must not shrink the fleet in use.
    assert (
        results["gamma=0 (no fleet cost)"]["serving_avg"]
        >= 0.9 * results["default"]["serving_avg"]
    )
    for r in results.values():
        assert r["served"] > 0
