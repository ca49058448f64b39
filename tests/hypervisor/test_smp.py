"""Multi-core execution: per-CPU stacks, counters and detection independence."""

import pytest

from repro.errors import MachineConfigError
from repro.hypervisor import Activation, MemoryMap, REGISTRY, XenHypervisor
from repro.machine import HardwareException, Vector


@pytest.fixture(scope="module")
def smp() -> XenHypervisor:
    return XenHypervisor(seed=13, n_cores=4)


def act(name: str, *args: int, seq=0, domain=1) -> Activation:
    return Activation(vmer=REGISTRY.by_name(name).vmer, args=args,
                      domain_id=domain, seq=seq)


class TestTopology:
    def test_four_cores_created(self, smp):
        assert len(smp.cores) == 4
        assert smp.cpu is smp.cores[0]

    def test_core_stacks_are_disjoint_regions(self, smp):
        tops = {smp.memory_map.stack_top_for(i) for i in range(4)}
        assert len(tops) == 4
        for i in range(4):
            region = smp.memory.region(f"cpu_stack{i}")
            assert region.contains(smp.memory_map.stack_top_for(i) - 8)

    def test_invalid_core_counts_rejected(self):
        with pytest.raises(MachineConfigError):
            XenHypervisor(n_cores=0)
        with pytest.raises(MachineConfigError):
            XenHypervisor(n_cores=4, memory_map=MemoryMap(n_cpus=2))

    def test_stack_guard_gap_is_unmapped(self, smp):
        gap_addr = smp.memory_map.stack_top_for(0) + 8
        assert smp.memory.region_at(gap_addr) is None


class TestPerCoreExecution:
    def test_each_core_executes_independently(self, smp):
        smp.reset()
        results = [
            smp.execute(act("xen_version", 1, seq=i), core_id=i)
            for i in range(4)
        ]
        assert all(r.instructions > 0 for r in results)

    def test_counters_are_not_shared_between_cores(self, smp):
        """Section IV: 'Logical cores do not share performance counters'."""
        smp.reset()
        smp.execute(act("mmu_update", 12, 1), core_id=1)
        assert smp.cores[1].pmu.totals().instructions > 0
        assert smp.cores[2].pmu.totals().instructions == 0

    def test_shared_memory_is_visible_across_cores(self, smp):
        """Cores share the hypervisor heap: an event sent on core 0 is
        pending when core 3 inspects the domain."""
        smp.reset()
        smp.execute(act("event_channel_op", 21, 0, domain=2), core_id=0)
        assert smp.domain(2).is_port_pending(21)
        res = smp.execute(act("event_channel_op", 21, 0, domain=2, seq=1), core_id=3)
        # Second send on another core takes the already-pending early exit.
        assert res.instructions < 60

    def test_stack_overflow_on_one_core_faults_in_the_gap(self, smp):
        """A corrupted RSP below core 1's stack lands in the guard gap and
        faults instead of corrupting core 0's stack."""
        smp.reset()
        smp.prepare(act("sched_op", 0, 0), core_id=1)
        smp.cores[1].regs["rsp"] = smp.memory_map.stack_base_for(1) - 8
        entry = smp.program.address_of(REGISTRY.by_name("sched_op").handler_label)
        with pytest.raises(HardwareException) as info:
            smp.cores[1].run(smp.program, entry)
        assert info.value.vector in (Vector.STACK_FAULT, Vector.PAGE_FAULT)

    def test_injection_on_one_core_leaves_others_clean(self, smp):
        smp.reset()
        smp.cores[2].schedule_flips(3, (("rbp", 41),))
        with pytest.raises(HardwareException):
            smp.execute(act("mmu_update", 8, 1), core_id=2)
        # Core 0 still executes the same activation cleanly.
        res = smp.execute(act("mmu_update", 8, 1), core_id=0)
        assert res.instructions > 0

    def test_results_match_single_core_hypervisor(self, smp):
        """Per-core execution is observationally identical to a single-core
        platform given the same activation and state."""
        single = XenHypervisor(seed=13)
        single.reset()
        smp.reset()
        a = act("grant_table_op", 10, 2, seq=5)
        assert single.execute(a).features == smp.execute(a, core_id=3).features
