"""Output checks: invariants of every simulation, and equality with the
first run of the same workload, scale and seed.

The pipelines are deterministic for a seed, so a run that computes
anything different from the first run with that seed (a stray wall-clock
budget, state leaking between runs, a perf change that is not
behaviour-preserving) fails here, traced runs included.
"""

from __future__ import annotations

import json
import os
import pathlib

#: Detail the simulator records for a planned (injected) dispatch-center
#: failure, as opposed to a dispatcher that raised.
INJECTED_FAILURE = "injected dispatch-center failure"


def sim_summary(sim, result) -> dict:
    """The deterministic outputs of one simulation run."""
    from repro.sim.metrics import SimulationMetrics

    m = SimulationMetrics(result)
    injected = sum(
        1
        for i in result.incidents
        if i.kind == "dispatcher_fallback" and i.detail == INJECTED_FAILURE
    )
    return {
        "dispatcher": result.dispatcher_name,
        "t0_s": result.config.t0_s,
        "t1_s": result.config.t1_s,
        "teams": result.config.num_teams,
        "requests": len(result.requests),
        "served": result.num_served,
        "timely": int(m.total_timely_served),
        "delivered": len(result.deliveries),
        "cycles": len(result.serving_samples),
        "fallbacks": int(m.fallback_activations),
        "injected_fallbacks": injected,
        "prediction_failures": int(getattr(sim.dispatcher, "prediction_failures", 0)),
        "dropped_commands": int(m.dropped_commands),
        "breakdowns": int(m.breakdowns),
        "reroutes": int(m.reroutes),
        "incidents_dropped": int(m.incidents_dropped),
        "grid_ticks": int(getattr(sim, "num_grid_ticks", 0)),
        "ticks_processed": int(getattr(sim, "ticks_processed", 0)),
        "events_processed": int(getattr(sim, "events_processed", 0)),
    }


def sim_invariants(result) -> list[str]:
    """Violations of the simulator's physical invariants, as messages."""
    from repro.sim.metrics import SimulationMetrics

    cfg = result.config
    where = f"{result.dispatcher_name}@{cfg.t0_s:.0f}"
    problems = []
    if cfg.dispatch_budget_s is not None:
        problems.append(f"{where}: wall-clock dispatch budget {cfg.dispatch_budget_s} set")
    served = result.num_served
    pickups: dict[int, object] = {}
    for p in result.pickups:
        if p.request_id in pickups:
            problems.append(f"{where}: request {p.request_id} picked up twice")
        pickups[p.request_id] = p
    if served > len(result.requests):
        problems.append(f"{where}: served {served} > requests {len(result.requests)}")
    if SimulationMetrics(result).total_timely_served > served:
        problems.append(f"{where}: timely > served")
    delivered_at: dict[int, float] = {}
    for d in result.deliveries:
        p = pickups.get(d.request_id)
        if p is None:
            problems.append(f"{where}: request {d.request_id} delivered, never picked up")
        elif d.t_s < p.t_s or d.team_id != p.team_id:
            problems.append(
                f"{where}: request {d.request_id} delivered at {d.t_s} by team "
                f"{d.team_id}, picked up at {p.t_s} by team {p.team_id}"
            )
        delivered_at[d.request_id] = d.t_s
    # Load of each team at each pickup: requests it picked up so far and
    # has not yet delivered.
    by_team: dict[int, list[tuple[float, float]]] = {}
    for rid, p in pickups.items():
        by_team.setdefault(p.team_id, []).append(
            (p.t_s, delivered_at.get(rid, float("inf")))
        )
    for team, spans in by_team.items():
        for t, _ in spans:
            load = sum(1 for a, b in spans if a <= t < b)
            if load > cfg.team_capacity:
                problems.append(
                    f"{where}: team {team} carries {load} > capacity {cfg.team_capacity} at t={t}"
                )
                break
    return problems


def canonical(outputs: dict) -> dict[str, str]:
    """Outputs as ``{key: canonical JSON}`` (NaN-safe equality)."""
    return {k: json.dumps(v, sort_keys=True) for k, v in outputs.items()}


def compare_outputs(outputs: dict, golden: dict) -> list[str]:
    """Keys whose value differs from the first run's, as messages."""
    mine, theirs = canonical(outputs), canonical(golden)
    return [
        f"output {key!r} differs from the first run with this seed"
        for key in sorted(set(mine) | set(theirs))
        if mine.get(key) != theirs.get(key)
    ]


def check_against_first_run(path: pathlib.Path, outputs: dict) -> list[str]:
    """Compare with the first run recorded at ``path``; record this run's
    outputs there when it is the first."""
    if path.exists():
        return compare_outputs(outputs, json.loads(path.read_text()))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}")
    tmp.write_text(json.dumps(outputs, sort_keys=True, indent=1))
    os.replace(tmp, path)
    return []
