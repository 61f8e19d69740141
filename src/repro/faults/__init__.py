"""Disaster-grade fault injection for the dispatch pipeline.

MobiRescue operates *inside* a disaster, where the infrastructure the
dispatch center depends on is itself degraded: cellphone GPS feeds go
stale (paper Section IV-C5), radio links to teams drop, vehicles break
down mid-rescue, roads close beyond what the flood model predicts, and
the dispatch software itself can crash or blow its compute budget.

This package provides deterministic, seeded fault models for all five
failure families plus named severity profiles (``none``, ``mild``,
``severe``, ``blackout``) so robustness experiments are reproducible:
the same seed and profile always produce bit-identical fault schedules,
independent of query order.

Typical use::

    from repro.faults import make_injector
    from repro.sim.kernel import EventKernelSimulator

    injector = make_injector("severe", t0_s, t1_s, seed=0)
    sim = EventKernelSimulator(scenario, requests, dispatcher, config,
                               faults=injector)
"""

from repro.faults.models import (
    CheckpointBitrotFault,
    CommLossFault,
    DispatcherFailureFault,
    CorruptReplaySampleFault,
    FaultInjector,
    FaultModel,
    GpsDropoutFault,
    InjectedDispatcherFault,
    NaNGradientFault,
    NULL_TRAINING_PLAN,
    RewardSpikeFault,
    OutageWindow,
    RoadClosureFault,
    TeamBreakdownFault,
    TrainingFaultInjector,
    TrainingFaultPlan,
    TrainingFaultProfile,
    WorkerCorruptResultFault,
    WorkerCrashFault,
    WorkerFaultInjector,
    WorkerFaultPlan,
    WorkerFaultProfile,
    WorkerStallFault,
    sample_windows,
)
from repro.faults.profiles import (
    PROFILES,
    TRAIN_PROFILES,
    WORKER_PROFILES,
    FaultProfile,
    get_profile,
    get_train_profile,
    get_worker_profile,
    make_injector,
)

__all__ = [
    "CheckpointBitrotFault",
    "CommLossFault",
    "CorruptReplaySampleFault",
    "DispatcherFailureFault",
    "FaultInjector",
    "FaultModel",
    "FaultProfile",
    "GpsDropoutFault",
    "InjectedDispatcherFault",
    "NaNGradientFault",
    "NULL_TRAINING_PLAN",
    "OutageWindow",
    "PROFILES",
    "RewardSpikeFault",
    "RoadClosureFault",
    "TeamBreakdownFault",
    "TRAIN_PROFILES",
    "TrainingFaultInjector",
    "TrainingFaultPlan",
    "TrainingFaultProfile",
    "WORKER_PROFILES",
    "WorkerCorruptResultFault",
    "WorkerCrashFault",
    "WorkerFaultInjector",
    "WorkerFaultPlan",
    "WorkerFaultProfile",
    "WorkerStallFault",
    "get_profile",
    "get_train_profile",
    "get_worker_profile",
    "make_injector",
    "sample_windows",
]
