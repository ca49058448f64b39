"""Fault injection: the Simics-module equivalent of Section V.

Single-bit register flips into live hypervisor executions, golden-run
comparison, consequence classification, and campaign orchestration — plus
the scenario layer's wider fault models: multi-bit upsets, time-correlated
register bursts, and subsystem-targeted memory flips.
"""

from repro.faults.campaign import CampaignConfig, CampaignResult, FaultInjectionCampaign
from repro.faults.injector import (
    TransitionDetector,
    run_memory_trial,
    run_spec_trial,
    run_trial,
    run_twin_batch,
)
from repro.faults.model import (
    MEMORY_SUBSYSTEMS,
    BurstFaultModel,
    CompositeFaultModel,
    FaultModel,
    FaultModelComponent,
    MemoryFaultModel,
    MultiBitFaultModel,
    sample_fault,
)
from repro.faults.outcomes import (
    AnyFaultSpec,
    BurstFaultSpec,
    DetectionTechnique,
    FailureClass,
    FaultSpec,
    MemoryFaultSpec,
    MultiBitFaultSpec,
    TrialRecord,
    UndetectedKind,
)
from repro.faults.propagation import (
    Divergence,
    GoldenRun,
    capture_golden,
    classify_divergence,
    compute_divergence,
    undetected_kind_for,
)

__all__ = [
    "AnyFaultSpec",
    "BurstFaultModel",
    "BurstFaultSpec",
    "CampaignConfig",
    "CampaignResult",
    "CompositeFaultModel",
    "DetectionTechnique",
    "Divergence",
    "FailureClass",
    "FaultInjectionCampaign",
    "FaultModel",
    "FaultModelComponent",
    "FaultSpec",
    "MEMORY_SUBSYSTEMS",
    "MemoryFaultModel",
    "MemoryFaultSpec",
    "MultiBitFaultModel",
    "MultiBitFaultSpec",
    "GoldenRun",
    "TransitionDetector",
    "TrialRecord",
    "UndetectedKind",
    "capture_golden",
    "classify_divergence",
    "compute_divergence",
    "run_memory_trial",
    "run_spec_trial",
    "run_trial",
    "run_twin_batch",
    "sample_fault",
    "undetected_kind_for",
]
