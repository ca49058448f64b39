"""Training collectors that execute what production settles: the oracles
for restoring ``GoldenRun.after`` and for settling dead injections.

Production advances the injection stream by restoring the memory the golden
run left behind, and settles an injection without executing it when the
lock-step scan proves its fault dead.  The two-execution collector executes
every faulty run; the three-execution collector also advances the stream
the way training first did: it restores the pre-run checkpoint and executes
the activation a third time, fault-free.  All must yield the same samples.
"""

from __future__ import annotations

from repro import rng as rng_mod
from repro.engine.planner import plan_training_shards
from repro.errors import SimulationLimitExceeded
from repro.faults.propagation import capture_golden, compute_divergence
from repro.hypervisor import XenHypervisor
from repro.machine.exceptions import AssertionViolation, HardwareException
from repro.machine.lockstep import DEAD
from repro.ml.dataset import CORRECT, INCORRECT
from repro.workloads import WorkloadGenerator, get_profile
from tests.faults.stream_walk import walk_fates


def _sample(hv, activation, golden, fault):
    """Execute one injection from the golden checkpoint; its sample or None."""
    hv.restore(golden.checkpoint)
    hv.cpu.schedule_flips(fault.dynamic_index, fault.flips)
    try:
        faulty = hv.execute(activation)
    except (HardwareException, AssertionViolation, SimulationLimitExceeded):
        return None
    divergence = compute_divergence(hv, activation, golden, faulty)
    if divergence.path_changed:
        return (faulty.features, INCORRECT)
    if not divergence.any:
        return (faulty.features, CORRECT)
    return None


def collect_inj_part_two_executions(hv, config, generator, shard, stream, on_unit):
    """Drop-in for ``repro.xentry.training._collect_inj_part`` that executes
    every faulty run."""
    fault_rng = rng_mod.stream(config.seed, stream, "faults", shard.benchmark)
    items = []
    for activation in generator.activations(shard.n_runs, stream=f"{stream}.inj"):
        golden = capture_golden(hv, activation, record=False, log=False)
        fault = config.fault_model.sample(fault_rng, golden.result.instructions)
        sample = _sample(hv, activation, golden, fault)
        if sample is not None:
            items.append(sample)
        hv.restore(golden.after)
        on_unit()
    return items


def collect_inj_part_three_executions(hv, config, generator, shard, stream, on_unit):
    """Drop-in for ``repro.xentry.training._collect_inj_part`` that executes
    every faulty run, then the activation again to advance the stream."""
    fault_rng = rng_mod.stream(config.seed, stream, "faults", shard.benchmark)
    items = []
    for activation in generator.activations(shard.n_runs, stream=f"{stream}.inj"):
        golden = capture_golden(hv, activation)
        fault = config.fault_model.sample(fault_rng, golden.result.instructions)
        sample = _sample(hv, activation, golden, fault)
        if sample is not None:
            items.append(sample)
        hv.restore(golden.checkpoint)
        hv.execute(activation)
        on_unit()
    return items


def settled_injections(config, stream: str = "train") -> int:
    """How many of a collection's injections a walk of their golden run's
    recorded stream proves dead (:mod:`tests.faults.stream_walk`).

    Replays each injection shard's golden stream without executing any
    faulty run, so it counts apart from production's scan.  ``config``
    needs a fault model in its initial state.
    """
    settled = 0
    for shard in plan_training_shards(
        config.benchmarks, config.fault_free_runs, config.injection_runs
    ):
        if shard.part == "free":
            continue
        hv = XenHypervisor(n_domains=config.n_domains, seed=config.seed)
        generator = WorkloadGenerator(
            get_profile(shard.benchmark), config.mode,
            seed=rng_mod.derive_seed(config.seed, stream, shard.benchmark),
            n_domains=config.n_domains,
        )
        hv.reset()
        fault_rng = rng_mod.stream(config.seed, stream, "faults", shard.benchmark)
        for activation in generator.activations(shard.n_runs, stream=f"{stream}.inj"):
            golden = capture_golden(hv, activation, log=False)
            fault = config.fault_model.sample(fault_rng, golden.result.instructions)
            fates = walk_fates(hv.program, golden.trace)
            index = min(fault.dynamic_index, len(golden.trace))
            settled += all(fates[register][index][0] == DEAD for register, _ in fault.flips)
    return settled
