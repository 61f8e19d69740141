"""MobiRescue — the paper's primary contribution.

The three-stage pipeline of Fig. 7:

1. human-mobility information derivation (in :mod:`repro.mobility`);
2. SVM prediction of the distribution of potential rescue requests
   (:mod:`repro.core.predictor`, Eqs. 1-2);
3. RL-based rescue-team dispatching (:mod:`repro.core.rl_dispatcher`,
   Eqs. 3-5), trained offline on a previous disaster and continually
   online (:mod:`repro.core.training`).

:class:`repro.core.system.MobiRescueSystem` bundles the stages behind one
facade.
"""

from repro.core.artifacts import (
    ArtifactError,
    ArtifactVersionError,
    CorruptArtifactError,
    MissingManifestError,
)
from repro.core.config import MobiRescueConfig
from repro.core.log import configure as configure_logging
from repro.core.log import get_logger
from repro.core.predictor import RequestPredictor, TrainingSet, build_training_set
from repro.core.positions import (
    DegradedPositionFeed,
    HistoricalFallbackFeed,
    PopulationFeed,
)
from repro.core.rl_dispatcher import MobiRescueDispatcher
from repro.core.training import train_mobirescue
from repro.core.runner import RetryPolicy, Supervisor
from repro.core.system import MobiRescueSystem
from repro.core.persistence import load_trained, save_trained

__all__ = [
    "ArtifactError",
    "ArtifactVersionError",
    "CorruptArtifactError",
    "DegradedPositionFeed",
    "HistoricalFallbackFeed",
    "MissingManifestError",
    "MobiRescueConfig",
    "MobiRescueDispatcher",
    "MobiRescueSystem",
    "PopulationFeed",
    "RequestPredictor",
    "RetryPolicy",
    "Supervisor",
    "TrainingSet",
    "build_training_set",
    "configure_logging",
    "get_logger",
    "load_trained",
    "save_trained",
    "train_mobirescue",
]
