"""The benchmark's workloads: the paper pipelines, driven through the
repository's public APIs at the paper's 60 s step and 300 s cycle.

Each workload is a generator over its measured stages.  It receives the
run's :class:`~probes.Probes`, the scale and the datasets already built,
and runs every stage inside ``probes.phase(...)``.  It yields ``None``
after each stage but the last, so the runner can interleave a timed
dataset build, and finally yields the outputs the checks compare.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import shutil
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Scale:
    """Workload size.  ``FULL`` is what the benchmark measures; ``TOY``
    is the self-test's few-second version of the same code path."""

    name: str
    population: int
    #: Training episodes of ``mobirescue_day`` (``repro train`` default).
    train_episodes: int
    #: Training episodes of ``storm_faults``: the fewest that still give
    #: a policy ahead of the baselines.
    storm_episodes: int
    #: Florence days the baselines are evaluated on.
    baseline_days: tuple[str, ...]
    #: Length of every evaluation window, hours (24 = the paper's day).
    eval_hours: float
    #: Dataset builds timed per run; ``setup_s`` is their median.
    min_setups: int


FULL = Scale("full", 300, 4, 1, ("Sep 14", "Sep 15", "Sep 16"), 24.0, 3)
TOY = Scale("toy", 100, 1, 1, ("Sep 16",), 4.0, 2)
SCALES = {s.name: s for s in (FULL, TOY)}

#: Passes over the evaluation of ``baselines_day`` and ``storm_faults``.
#: A latency tail comes from a few busy simulated hours; a second pass
#: puts them through the host's drift twice.
PASSES = 2

#: Storms each workload needs (Michael trains, Florence evaluates).
STORMS = {
    "mobirescue_day": ("florence", "michael"),
    "baselines_day": ("florence",),
    "storm_faults": ("florence", "michael"),
}


def build_datasets(storms, scale: Scale, keep: bool) -> dict:
    """Build the workload's datasets through ``repro.data``.

    The dataset module memoizes builds per process, so every timed build
    starts from empty caches.  With ``keep`` False the caches are put
    back afterwards and the pipeline keeps using the first build.
    """
    from repro.data import datasets

    caches = (datasets._SCENARIO_CACHE, datasets._DATASET_CACHE)
    saved = [dict(c) for c in caches]
    for c in caches:
        c.clear()
    try:
        return {
            storm: datasets.build_dataset(
                datasets.DatasetSpec(storm=storm, population_size=scale.population)
            )
            for storm in storms
        }
    finally:
        if not keep:
            for c, s in zip(caches, saved):
                c.clear()
                c.update(s)


def digest(value) -> str:
    """Short digest of a JSON-serialisable value."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def dataset_fingerprint(built: dict) -> dict[str, str]:
    """Digest of every generated trace and rescue list."""
    out = {}
    for storm, (_scenario, bundle) in sorted(built.items()):
        h = hashlib.sha256()
        tr = bundle.trace
        for arr in (tr.person_id, tr.t, tr.x, tr.y):
            h.update(np.ascontiguousarray(arr).tobytes())
        for r in bundle.rescues:
            h.update(repr((r.person_id, r.request_time_s)).encode())
        out[storm] = f"{len(tr.t)}:{len(bundle.rescues)}:{h.hexdigest()[:16]}"
    return out


@contextlib.contextmanager
def eval_hours(hours: float):
    """Shorten every harness evaluation window to ``hours`` (toy scale
    only; the full scale evaluates the paper's whole day)."""
    if hours >= 24.0:
        yield
        return
    from repro.eval.harness import ExperimentHarness

    original = ExperimentHarness.eval_window

    def window(self):
        t0, _ = original.fget(self)
        return t0, t0 + hours * 3_600.0

    ExperimentHarness.eval_window = property(window)
    try:
        yield
    finally:
        ExperimentHarness.eval_window = original


def _harness_config(seed: int, **kwargs):
    """The experiment a workload seed selects.

    The seed is MobiRescue's training seed: SVM negative sampling, DQN
    initialisation and exploration, and team placement in the training
    episodes.  The evaluation keeps the harness defaults (seed 0): the
    same team placement and fault schedule for every workload seed, so
    the evaluation does the same amount of work on every seed.
    """
    from repro.core.config import MobiRescueConfig
    from repro.eval.harness import HarnessConfig

    return HarnessConfig(
        mobirescue_config=MobiRescueConfig(seed=seed),
        dispatch_budget_s=None,
        **kwargs,
    )


def mobirescue_day(
    probes, scale: Scale, seed: int, data: dict, tmp_root: pathlib.Path
) -> Iterator[dict | None]:
    """``repro train`` (sentinel-supervised, checkpointed) on Michael, then
    deploy and evaluate Sep 16 on Florence."""
    from repro.core.system import MobiRescueSystem
    from repro.eval.harness import ExperimentHarness
    from repro.training import supervised_sentinel_training

    harness = ExperimentHarness(
        data["florence"], data["michael"],
        _harness_config(seed, mobirescue_episodes=scale.train_episodes),
    )
    ckpt = pathlib.Path(tempfile.mkdtemp(prefix="ckpt-", dir=tmp_root))
    try:
        with probes.phase("train"):
            result = supervised_sentinel_training(
                *data["michael"],
                harness.config.mobirescue_config,
                checkpoint_dir=ckpt,
                episodes=scale.train_episodes,
                num_teams=min(40, harness.num_teams()),
            )
    finally:
        shutil.rmtree(ckpt, ignore_errors=True)
    if not result.ok:
        raise RuntimeError(f"training aborted: {result.anomalies}")
    yield None
    with probes.phase("eval"):
        harness.adopt_system(MobiRescueSystem(result.trained))
        harness.run_method("MobiRescue")
    yield {
        "episode_service_rates": list(result.trained.episode_service_rates),
        "anomalies": len(result.anomalies),
        "recoveries": len(result.recoveries),
    }


def baselines_day(
    probes, scale: Scale, seed: int, data: dict, tmp_root: pathlib.Path
) -> Iterator[dict | None]:
    """Rescue, Schedule and Nearest over several flooded Florence days,
    in identical passes."""
    from repro.eval.harness import ExperimentHarness

    passes = []
    with probes.phase("eval"):
        for _ in range(PASSES):
            first = len(probes.sims)
            for day in scale.baseline_days:
                # No training storm: the baselines train nothing.
                harness = ExperimentHarness(
                    data["florence"], (None, None), _harness_config(seed, eval_day_label=day)
                )
                for method in ("Rescue", "Schedule", "Nearest"):
                    harness.run_method(method)
            passes.append(digest([summary for summary, _ in probes.sims[first:]]))
    yield {"days": list(scale.baseline_days), "pass_digests": passes}


def storm_faults(
    probes, scale: Scale, seed: int, data: dict, tmp_root: pathlib.Path
) -> Iterator[dict | None]:
    """A ``RobustnessSweep`` of all four methods under the ``severe``
    fault profile, training MobiRescue first.  The profile is swept in
    passes; the sweep trains once.  MobiRescue keeps learning while
    deployed (``online_training``), so only the baselines' cells must
    repeat exactly from pass to pass."""
    from dataclasses import asdict

    from repro.core import system
    from repro.eval.robustness import RobustnessConfig, RobustnessSweep

    probes.phase_around(system, "train_mobirescue", "train")
    sweep = RobustnessSweep(
        data["florence"],
        data["michael"],
        RobustnessConfig(
            profiles=("severe",) * PASSES,
            harness=_harness_config(seed, mobirescue_episodes=scale.storm_episodes),
        ),
    )
    with probes.phase("eval"):
        cells = [asdict(c) for c in sweep.run()]
    per_pass = len(cells) // PASSES
    passes = [
        digest([c for c in cells[i:i + per_pass] if c["method"] != "MobiRescue"])
        for i in range(0, len(cells), per_pass)
    ]
    yield {"cells": cells, "pass_digests": passes}


WORKLOADS = {
    "mobirescue_day": mobirescue_day,
    "baselines_day": baselines_day,
    "storm_faults": storm_faults,
}
