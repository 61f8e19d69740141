"""Saving and loading trained MobiRescue models and training checkpoints.

A disaster-response system trains ahead of time (on previous disasters) and
deploys under pressure; the trained artifacts — the SVM request predictor
and the DQN policy — must survive process boundaries *and* process deaths.
Everything goes through :mod:`repro.core.artifacts`:

* ``save_trained`` / ``load_trained`` pack the deployable models into a
  single ``.npz`` archive, written atomically at exactly the requested
  path.  The archive format is versioned with migration hooks, so older
  archives keep loading.
* ``save_checkpoint`` / ``load_checkpoint`` persist *resumable training
  state* — agent weights, Adam accumulators, target net, replay buffer,
  RNG bit-generator state, epsilon schedule and episode counters — as a
  manifest-verified checkpoint directory.  A checkpoint is only visible
  once fully committed; torn or bit-flipped checkpoints raise typed
  errors and can be quarantined so recovery falls back to the previous
  valid one.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import pathlib
import shutil
import zipfile
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.artifacts import (
    CorruptArtifactError,
    VersionedFormat,
    atomic_savez,
    fsync_dir,
    verify_artifact_dir,
    write_manifest,
)
from repro.core.config import MobiRescueConfig
from repro.core.predictor import RequestPredictor
from repro.core.rl_dispatcher import make_agent
from repro.core.training import TrainedMobiRescue
from repro.data.charlotte import CharlotteScenario
from repro.ml.dqn import DQNAgent, restore_generator

logger = logging.getLogger("repro.core.persistence")

#: v1: single-archive trained models (Q-net weights only).
#: v2: adds the target network and the behaviour policy's RNG state, so a
#: reloaded model continues *online* training (Section IV-C4) identically.
#: v3: adds the predictor's flood gate and forecast horizon.
FORMAT_VERSION = 3
TRAINED_FORMAT = VersionedFormat("mobirescue-trained", FORMAT_VERSION)

#: v2: adds the predictor's flood gate and forecast horizon.
#: v3: stores only the replay buffer's live rows.
CHECKPOINT_VERSION = 3
CHECKPOINT_FORMAT = VersionedFormat("mobirescue-checkpoint", CHECKPOINT_VERSION)
CHECKPOINT_PREFIX = "ckpt-"
CHECKPOINT_STATE = "state.npz"
QUARANTINE_DIRNAME = "quarantine"


def _config_to_json(config: MobiRescueConfig) -> str:
    d = {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in config.__dict__.items()
    }
    return json.dumps(d)


def _config_from_json(payload: str) -> MobiRescueConfig:
    d = json.loads(payload)
    # Forward compatibility: an archive written by a newer repro may carry
    # config knobs this version does not know.  Dropping them (loudly)
    # beats refusing to load a deployable model in the field.
    known = {f.name for f in dataclasses.fields(MobiRescueConfig)}
    unknown = sorted(set(d) - known)
    if unknown:
        logger.warning(
            "dropping unknown config keys from a newer archive: %s",
            ", ".join(unknown),
        )
        d = {k: v for k, v in d.items() if k in known}
    for key in ("hidden_sizes",):
        if key in d:
            d[key] = tuple(d[key])
    return MobiRescueConfig(**d)


# -- predictor packing (shared by archives and checkpoints) -------------------


def _pack_predictor(predictor: RequestPredictor) -> dict[str, np.ndarray]:
    svm = predictor.svm
    if not svm.is_fitted:
        raise ValueError("cannot save an unfitted system")
    scaler = predictor.scaler
    return {
        "svm_alpha": svm._alpha,
        "svm_b": np.array([svm._b]),
        "svm_sv_x": svm._sv_x,
        "svm_sv_y": svm._sv_y,
        "svm_params": np.array(
            [svm.kernel_name, str(svm.gamma), str(svm.degree), str(svm.c)]
        ),
        "scaler_mean": scaler.mean_,
        "scaler_std": scaler.std_,
        "flood_gated": np.array([predictor.flood_gated]),
        "flood_forecast_horizon_s": np.array([predictor.flood_forecast_horizon_s]),
    }


def _restore_predictor(
    data: Mapping[str, np.ndarray], scenario: CharlotteScenario
) -> RequestPredictor:
    kernel, gamma, degree, c = data["svm_params"]
    predictor = RequestPredictor(
        scenario,
        kernel=str(kernel),
        c=float(c),
        gamma=float(gamma),
        flood_gated=bool(data["flood_gated"][0]),
    )
    predictor.flood_forecast_horizon_s = float(data["flood_forecast_horizon_s"][0])
    predictor.svm.gamma = float(gamma)
    predictor.svm.degree = int(degree)
    predictor.svm._alpha = np.asarray(data["svm_alpha"])
    predictor.svm._b = float(data["svm_b"][0])
    predictor.svm._sv_x = np.asarray(data["svm_sv_x"])
    predictor.svm._sv_y = np.asarray(data["svm_sv_y"])
    predictor.scaler.mean_ = np.asarray(data["scaler_mean"])
    predictor.scaler.std_ = np.asarray(data["scaler_std"])
    return predictor


def _load_npz(path: str | pathlib.Path) -> dict[str, np.ndarray]:
    """Load an ``.npz`` into a plain dict, typed-erroring on corruption."""
    try:
        with np.load(path, allow_pickle=False) as data:
            return {key: data[key] for key in data.files}
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, ValueError, OSError, EOFError, KeyError) as exc:
        raise CorruptArtifactError(f"unreadable archive {path}: {exc}") from exc


# -- trained-model archives ----------------------------------------------------


@TRAINED_FORMAT.migration(1)
def _trained_v1_to_v2(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """v1 archives lack the target net and RNG: re-derive both the way the
    v1 loader did (target synced from the Q-net, RNG seeded from config)."""
    arrays = dict(arrays)
    i = 0
    while f"q_w{i}" in arrays:
        arrays[f"target_w{i}"] = arrays[f"q_w{i}"]
        arrays[f"target_b{i}"] = arrays[f"q_b{i}"]
        i += 1
    seed = json.loads(str(arrays["config_json"][0])).get("seed", 0)
    rng_state = np.random.default_rng(seed).bit_generator.state
    arrays["rng_json"] = np.array([json.dumps(rng_state)])
    return arrays


#: What loaders before the gate was stored restored every predictor with.
_UNSTORED_GATE = {
    "flood_gated": np.array([True]),
    "flood_forecast_horizon_s": np.array([12.0 * 3_600.0]),
}


@TRAINED_FORMAT.migration(2)
def _trained_v2_to_v3(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """v2 archives lack the flood gate: fill what v2 loaders assumed."""
    return {**arrays, **_UNSTORED_GATE}


def save_trained(trained: TrainedMobiRescue, path: str | pathlib.Path) -> None:
    """Serialize a trained system to a ``.npz`` archive, atomically.

    The archive lands at exactly ``path`` (numpy's silent ``.npz`` suffix
    appending is bypassed), and a crash mid-save leaves any previous
    archive at ``path`` intact.
    """
    arrays: dict[str, np.ndarray] = {
        "version": np.array([FORMAT_VERSION]),
        "config_json": np.array([_config_to_json(trained.config)]),
        "episode_service_rates": np.array(trained.episode_service_rates),
        **_pack_predictor(trained.predictor),
        # -- DQN --
        "epsilon": np.array([trained.agent.epsilon]),
        "learn_steps": np.array([trained.agent.learn_steps]),
        "rng_json": np.array(
            [json.dumps(trained.agent.rng.bit_generator.state)]
        ),
    }
    for i, (w, b) in enumerate(trained.agent.q_net.get_weights()):
        arrays[f"q_w{i}"] = w
        arrays[f"q_b{i}"] = b
    for i, (w, b) in enumerate(trained.agent.target_net.get_weights()):
        arrays[f"target_w{i}"] = w
        arrays[f"target_b{i}"] = b
    atomic_savez(path, **arrays)


def load_trained(
    path: str | pathlib.Path, scenario: CharlotteScenario
) -> TrainedMobiRescue:
    """Load a trained system, re-anchoring its predictor to ``scenario``.

    The scenario supplies node tables and the weather/flood feeds; the
    learned decision surfaces (SVM, Q-network) come from the archive.
    Raises :class:`repro.core.artifacts.CorruptArtifactError` on a torn or
    bit-flipped archive and :class:`ArtifactVersionError` on a version
    with no migration path.
    """
    data = _load_npz(path)
    if "version" not in data:
        raise CorruptArtifactError(f"{path} has no format version marker")
    version = int(data["version"][0])
    data = TRAINED_FORMAT.upgrade(data, version)
    config = _config_from_json(str(data["config_json"][0]))

    predictor = _restore_predictor(data, scenario)

    agent = make_agent(config)
    weights = []
    i = 0
    while f"q_w{i}" in data:
        weights.append((data[f"q_w{i}"], data[f"q_b{i}"]))
        i += 1
    agent.q_net.set_weights(weights)
    weights = []
    i = 0
    while f"target_w{i}" in data:
        weights.append((data[f"target_w{i}"], data[f"target_b{i}"]))
        i += 1
    agent.target_net.set_weights(weights)
    agent.rng = restore_generator(str(data["rng_json"][0]))
    agent.epsilon = float(data["epsilon"][0])
    agent.learn_steps = int(data["learn_steps"][0])

    rates = [float(r) for r in data["episode_service_rates"]]

    return TrainedMobiRescue(
        agent=agent,
        predictor=predictor,
        config=config,
        episodes_run=len(rates),
        episode_service_rates=rates,
    )


# -- training checkpoints ------------------------------------------------------


@dataclass
class TrainingCheckpoint:
    """One committed snapshot of resumable training state."""

    episodes_done: int
    service_rates: list[float]
    config: MobiRescueConfig
    #: Replay arrays hold the live rows (:func:`checkpoint_from_training`)
    #: or are zero-padded to capacity (:func:`load_checkpoint`);
    #: ``DQNAgent.set_state`` takes either.
    agent_state: dict[str, np.ndarray]
    predictor_arrays: dict[str, np.ndarray]


def checkpoint_from_training(
    agent: DQNAgent,
    predictor: RequestPredictor,
    config: MobiRescueConfig,
    episodes_done: int,
    service_rates: list[float],
) -> TrainingCheckpoint:
    """Snapshot live training state into a checkpoint value.

    The agent state holds the replay buffer's live rows only, which is all
    :func:`save_checkpoint` writes; :meth:`DQNAgent.set_state` restores it
    as it restores a loaded checkpoint's zero-padded rows.
    """
    return TrainingCheckpoint(
        episodes_done=int(episodes_done),
        service_rates=list(service_rates),
        config=config,
        agent_state=agent.get_state(live_only=True),
        predictor_arrays=_pack_predictor(predictor),
    )


def restore_predictor(
    checkpoint: TrainingCheckpoint, scenario: CharlotteScenario
) -> RequestPredictor:
    """Rebuild the fitted SVM predictor from a checkpoint, anchored to
    ``scenario``."""
    return _restore_predictor(checkpoint.predictor_arrays, scenario)


def checkpoint_path(root: str | pathlib.Path, episodes_done: int) -> pathlib.Path:
    return pathlib.Path(root) / f"{CHECKPOINT_PREFIX}{episodes_done:06d}"


def list_checkpoints(root: str | pathlib.Path) -> list[pathlib.Path]:
    """Committed-or-not checkpoint directories under ``root``, oldest first
    (quarantined and in-flight temporaries are excluded)."""
    root = pathlib.Path(root)
    if not root.is_dir():
        return []
    return sorted(
        p
        for p in root.iterdir()
        if p.is_dir() and p.name.startswith(CHECKPOINT_PREFIX)
    )


def save_checkpoint(
    root: str | pathlib.Path, checkpoint: TrainingCheckpoint
) -> pathlib.Path:
    """Commit a checkpoint under ``root`` atomically.

    The state archive and its integrity manifest are staged in a hidden
    sibling directory which is then renamed into place, so a crash at any
    point leaves either no checkpoint or a complete, verifiable one.
    """
    root = pathlib.Path(root)
    root.mkdir(parents=True, exist_ok=True)
    final = checkpoint_path(root, checkpoint.episodes_done)
    staging = root / f".tmp-{final.name}-{os.getpid()}"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        arrays: dict[str, np.ndarray] = {
            "version": np.array([CHECKPOINT_VERSION]),
            "config_json": np.array([_config_to_json(checkpoint.config)]),
            "episodes_done": np.array([checkpoint.episodes_done], dtype=np.int64),
            "service_rates": np.array(checkpoint.service_rates, dtype=float),
            **_pack_predictor_prefixed(checkpoint.predictor_arrays),
        }
        for key, value in _live_buffer_rows(checkpoint.agent_state).items():
            arrays[f"agent.{key}"] = value
        atomic_savez(staging / CHECKPOINT_STATE, **arrays)
        write_manifest(
            staging,
            CHECKPOINT_VERSION,
            meta={
                "episodes_done": checkpoint.episodes_done,
                "service_rates": len(checkpoint.service_rates),
            },
        )
        if final.exists():
            shutil.rmtree(final)
        os.replace(staging, final)
        fsync_dir(root)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    logger.info(
        "checkpoint %s committed (episodes_done=%d)", final, checkpoint.episodes_done
    )
    return final


def _pack_predictor_prefixed(
    predictor_arrays: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    return {f"predictor.{k}": v for k, v in predictor_arrays.items()}


#: The replay-buffer arrays with one row per slot, as keys of an agent state.
_BUFFER_ROWS = tuple(
    f"buffer.{name}" for name in ("states", "actions", "rewards", "next_states", "dones")
)


def _live_buffer_rows(
    agent_state: Mapping[str, np.ndarray], prefix: str = ""
) -> dict[str, np.ndarray]:
    """``agent_state`` with each replay array cut to the buffer's live rows.

    Until the ring is full its write head equals its size, so the live
    rows are ``[:size]`` in ring order; once full, every row is live.  The
    rows past ``size`` were never written, so :func:`_pad_buffer_rows`
    restores them as zeros.  ``prefix`` is the keys' prefix in ``agent_state``.
    """
    size = int(agent_state[f"{prefix}buffer.meta"][2])
    live = dict(agent_state)
    for key in _BUFFER_ROWS:
        live[prefix + key] = live[prefix + key][:size]
    return live


def _pad_buffer_rows(agent_state: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Inverse of :func:`_live_buffer_rows`: zero rows back to capacity."""
    capacity, _, size, _ = (int(v) for v in agent_state["buffer.meta"])
    for key in _BUFFER_ROWS:
        rows = agent_state[key]
        if rows.shape[0] != size or size > capacity:
            raise CorruptArtifactError(
                f"checkpoint {key} has {rows.shape[0]} rows for a buffer of size {size}"
            )
        full = np.zeros((capacity,) + rows.shape[1:], dtype=rows.dtype)
        full[:size] = rows
        agent_state[key] = full
    return agent_state


@CHECKPOINT_FORMAT.migration(1)
def _checkpoint_v1_to_v2(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """v1 checkpoints lack the flood gate: fill what v1 loaders assumed."""
    return {**arrays, **_pack_predictor_prefixed(_UNSTORED_GATE)}


@CHECKPOINT_FORMAT.migration(2)
def _checkpoint_v2_to_v3(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """v2 checkpoints store every replay row: keep the live ones, as v3 does."""
    return _live_buffer_rows(arrays, prefix="agent.")


def load_checkpoint(path: str | pathlib.Path) -> TrainingCheckpoint:
    """Verify and load one checkpoint directory.

    Raises :class:`MissingManifestError` for an uncommitted directory,
    :class:`CorruptArtifactError` for truncated/bit-flipped state and
    :class:`ArtifactVersionError` for an unmigratable version.
    """
    path = pathlib.Path(path)
    verify_artifact_dir(path)
    arrays = _load_npz(path / CHECKPOINT_STATE)
    if "version" not in arrays:
        raise CorruptArtifactError(f"{path} has no format version marker")
    arrays = CHECKPOINT_FORMAT.upgrade(arrays, int(arrays["version"][0]))
    prefix = "predictor."
    predictor_arrays = {
        k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)
    }
    agent_state = _pad_buffer_rows(
        {k[len("agent."):]: v for k, v in arrays.items() if k.startswith("agent.")}
    )
    return TrainingCheckpoint(
        episodes_done=int(arrays["episodes_done"][0]),
        service_rates=[float(r) for r in arrays["service_rates"]],
        config=_config_from_json(str(arrays["config_json"][0])),
        agent_state=agent_state,
        predictor_arrays=predictor_arrays,
    )


def quarantine_checkpoint(path: str | pathlib.Path, reason: str) -> pathlib.Path:
    """Move a damaged checkpoint aside so recovery never retries it.

    Quarantined checkpoints are kept (not deleted) for post-incident
    forensics; the quarantine directory is ignored by discovery.
    """
    path = pathlib.Path(path)
    qdir = path.parent / QUARANTINE_DIRNAME
    qdir.mkdir(exist_ok=True)
    dest = qdir / path.name
    n = 1
    while dest.exists():
        dest = qdir / f"{path.name}.{n}"
        n += 1
    shutil.move(str(path), str(dest))
    logger.warning("quarantined checkpoint %s -> %s (%s)", path, dest, reason)
    return dest


def find_latest_valid_checkpoint(
    root: str | pathlib.Path,
    quarantine: bool = True,
    on_incident: Callable[[str, str], None] | None = None,
) -> tuple[TrainingCheckpoint, pathlib.Path] | None:
    """Newest checkpoint that passes integrity verification, or ``None``.

    Damaged checkpoints encountered on the way are quarantined (unless
    ``quarantine=False``) and reported through ``on_incident(kind, message)``
    — recovery then falls back to the next-older candidate.
    """
    from repro.core.artifacts import ArtifactError

    for path in reversed(list_checkpoints(root)):
        try:
            return load_checkpoint(path), path
        except ArtifactError as exc:
            message = f"checkpoint {path.name} rejected: {exc}"
            logger.warning("%s", message)
            if on_incident is not None:
                on_incident("corrupt-checkpoint", message)
            if quarantine:
                quarantine_checkpoint(path, str(exc))
    return None


def prune_checkpoints(root: str | pathlib.Path, keep: int = 3) -> list[pathlib.Path]:
    """Delete all but the newest ``keep`` checkpoints; returns the removed
    paths.  At least two are always kept so recovery can fall back past a
    checkpoint that later turns out to be damaged."""
    if keep < 2:
        raise ValueError("keep at least two checkpoints (fallback depth)")
    checkpoints = list_checkpoints(root)
    removed = checkpoints[:-keep] if len(checkpoints) > keep else []
    for path in removed:
        shutil.rmtree(path)
    return removed
