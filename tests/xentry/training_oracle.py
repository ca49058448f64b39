"""The three-execution training collector: the oracle for restoring
``GoldenRun.after``.

Production advances the injection stream by restoring the memory the golden
run left behind.  This collector advances it the way training used to: it
restores the pre-run checkpoint and executes the activation a third time,
fault-free.  Both must yield the same samples.
"""

from __future__ import annotations

from repro import rng as rng_mod
from repro.errors import SimulationLimitExceeded
from repro.faults.propagation import capture_golden, compute_divergence
from repro.machine.exceptions import AssertionViolation, HardwareException
from repro.ml.dataset import CORRECT, INCORRECT


def collect_inj_part_three_executions(hv, config, generator, shard, stream, on_unit):
    """Drop-in for ``repro.xentry.training._collect_inj_part``."""
    fault_rng = rng_mod.stream(config.seed, stream, "faults", shard.benchmark)
    items = []
    for activation in generator.activations(shard.n_runs, stream=f"{stream}.inj"):
        golden = capture_golden(hv, activation)
        hv.restore(golden.checkpoint)
        fault = config.fault_model.sample(fault_rng, golden.result.instructions)
        hv.cpu.schedule_register_flip(fault.dynamic_index, fault.register, fault.bit)
        try:
            faulty = hv.execute(activation)
        except (HardwareException, AssertionViolation, SimulationLimitExceeded):
            faulty = None
        if faulty is not None:
            divergence = compute_divergence(hv, activation, golden, faulty)
            if divergence.path_changed:
                items.append((faulty.features, INCORRECT))
            elif not divergence.any:
                items.append((faulty.features, CORRECT))
        hv.restore(golden.checkpoint)
        hv.execute(activation)
        on_unit()
    return items
