"""Self-healing training: numeric-health sentinel + divergence recovery.

The learning loop is treated like the long-running service it is (see
ROADMAP.md's week-long sweep arcs): a :class:`TrainingSentinel` screens
every optimization step and episode boundary for numeric disasters —
NaN/Inf losses, exploding gradients and Q-magnitudes, TD-error
divergence, reward collapse, corrupted replay rows — and on a confirmed
anomaly :func:`sentinel_training` climbs an escalation ladder: rollback
to the last healthy checkpoint and replay; rollback plus deterministic
exploration re-perturbation; learning-rate back-off; finally abort with
a forensics bundle.  A fault-free sentinel run is bit-identical to plain
``train_mobirescue`` (the sentinel only ever *reads* training state),
which the ``repro chaos --profile train-*`` harness asserts along with
detection, recovery-floor and checkpoint-hygiene invariants.
:func:`sentinel_training` is also the only loop that writes training
checkpoints; ``use_sentinel=False`` runs it without the sentinel.

See docs/TRAINING_HEALTH.md and docs/CHECKPOINTING.md.
"""

from repro.training.chaos import (
    TrainChaosConfig,
    TrainChaosHarness,
    TrainSeedVerdict,
)
from repro.training.health import (
    ANOMALY_KINDS,
    Anomaly,
    IncidentRing,
    RingStats,
    SentinelConfig,
    TrainingAnomalyError,
    TrainingSentinel,
    replay_checksum,
)
from repro.training.loop import (
    FORENSICS_FORMAT,
    JOURNAL_FILENAME,
    LadderConfig,
    SentinelTrainingResult,
    sentinel_training,
    supervised_sentinel_training,
)

__all__ = [
    "ANOMALY_KINDS",
    "Anomaly",
    "FORENSICS_FORMAT",
    "IncidentRing",
    "JOURNAL_FILENAME",
    "LadderConfig",
    "RingStats",
    "SentinelConfig",
    "SentinelTrainingResult",
    "TrainChaosConfig",
    "TrainChaosHarness",
    "TrainSeedVerdict",
    "TrainingAnomalyError",
    "TrainingSentinel",
    "replay_checksum",
    "sentinel_training",
    "supervised_sentinel_training",
]
