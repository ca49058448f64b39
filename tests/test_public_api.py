"""Public API surface: every documented export exists and is importable."""

import importlib

import pytest

PACKAGES = {
    "repro.machine": (
        "CPUCore", "Memory", "MemoryCheckpoint",
        "Region", "RegisterFile", "Assembler", "parse_asm",
        "HardwareException", "AssertionViolation", "Vector", "classify_exception",
        "PerformanceCounterUnit", "Tracer", "Program", "Op",
    ),
    "repro.hypervisor": (
        "XenHypervisor", "Activation", "ActivationResult",
        "REGISTRY",
        "ExitCategory", "HYPERCALL_NAMES", "EXCEPTION_NAMES", "Hardening",
        "DomainView", "VcpuView", "MemoryMap", "HypervisorLayout",
    ),
    "repro.ml": (
        "Dataset", "DecisionTreeClassifier", "RandomTreeClassifier",
        "RandomForestClassifier", "compile_tree", "CompiledRules",
        "entropy", "information_gain", "evaluate", "ConfusionMatrix",
    ),
    "repro.faults": (
        "FaultModel", "FaultSpec", "run_trial", "capture_golden",
        "CampaignConfig", "FaultInjectionCampaign", "TrialRecord",
        "FailureClass", "DetectionTechnique", "UndetectedKind",
    ),
    "repro.engine": (
        "CampaignEngine", "CampaignPlan", "ShardPlan", "BenchmarkSlice",
        "plan_campaign", "config_digest", "execute_shard",
        "TrialJournal", "JournalState", "read_state",
        "SampleJournal", "TrainingShard", "plan_training_shards", "payload_digest",
        "EngineTelemetry", "ProgressSnapshot", "stderr_progress",
        "CampaignStarted", "ShardStarted", "ShardFinished", "CampaignFinished",
    ),
    "repro.xentry": (
        "Xentry", "VMTransitionDetector", "RuntimeDetector", "FeatureVector",
        "TrainingConfig", "collect_dataset", "train_and_evaluate",
        "execute_training_shard", "training_digest",
        "RecoveryCostModel", "RecoveryManager", "estimate_recovery_overhead",
        "DetectionCostModel", "ShimInterceptor",
    ),
    "repro.workloads": (
        "BENCHMARKS", "get_profile", "WorkloadGenerator", "VirtMode",
        "GuestApplication", "RateDistribution",
    ),
    "repro.analysis": (
        "BoxStats", "Cdf", "ComparisonTable", "LatencyStudy",
        "PerfOverheadModel", "coverage_by_technique", "undetected_breakdown",
        "dataset_from_journal", "sample_journal_progress",
    ),
    "repro.service": (
        "DetectionService", "ServiceConfig", "ServiceReport",
        "FleetConfig", "FleetRow", "FleetSimulator", "FleetTick", "HostStream",
        "MicroBatchScorer", "OverflowPolicy", "ScoreTotals",
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "ServiceMetrics",
        "MetricsServer",
    ),
    "repro.system": ("VirtualPlatform", "PlatformConfig"),
}


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_package_exports(package):
    module = importlib.import_module(package)
    for name in PACKAGES[package]:
        assert hasattr(module, name), f"{package}.{name} missing"
        assert name in module.__all__, f"{package}.{name} not in __all__"


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_all_entries_resolve(package):
    """Everything advertised in __all__ actually exists."""
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name, None) is not None, f"{package}.{name}"


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_public_objects_are_documented(package):
    """Every public class/function carries a docstring."""
    module = importlib.import_module(package)
    assert module.__doc__
    for name in module.__all__:
        obj = getattr(module, name)
        if callable(obj) or isinstance(obj, type):
            assert obj.__doc__, f"{package}.{name} lacks a docstring"


def test_version_is_exposed():
    import repro

    assert repro.__version__.count(".") == 2
