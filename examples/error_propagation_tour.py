#!/usr/bin/env python3
"""A guided tour of the paper's error-propagation scenarios.

Walks Fig. 2 (short- vs long-latency propagation), Fig. 5a (extra dynamic
instructions from a corrupted ``rep movs`` counter), Fig. 5b (a valid but
incorrect branch in the event-channel path), and the Table II fault surfaces
(time values and stack values) — each reproduced concretely on the simulated
hypervisor with before/after evidence.
"""

from __future__ import annotations

from repro.faults import FaultSpec, capture_golden, compute_divergence
from repro.hypervisor import Activation, REGISTRY, XenHypervisor
from repro.machine import AssertionViolation, HardwareException
from repro.errors import SimulationLimitExceeded


def run_faulty(hv, activation, golden, fault):
    """Replay the activation with the fault; return (result-or-exc, divergence)."""
    hv.restore(golden.checkpoint)
    hv.cpu.schedule_flips(fault.dynamic_index, fault.flips)
    try:
        result = hv.execute(activation)
    except (HardwareException, AssertionViolation, SimulationLimitExceeded) as exc:
        return exc, None
    return result, compute_divergence(hv, activation, golden, result)


def banner(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def main() -> None:
    hv = XenHypervisor(seed=9)

    banner("Fig. 2 path 1 — short-latency error: fails inside host mode")
    act = Activation(vmer=REGISTRY.by_name("mmu_update").vmer, args=(8, 1), domain_id=1)
    golden = capture_golden(hv, act)
    outcome, _ = run_faulty(hv, act, golden, FaultSpec("rbp", 41, 3))
    print(f"flip bit 41 of rbp (the per-CPU globals base) at instruction 3:")
    print(f"  -> {outcome}")
    print("The error never crosses VM entry: a fatal page fault ends the")
    print("hypervisor execution — isolated if recovery re-initializes the host.")

    banner("Fig. 2 path 2 — long-latency error: crosses VM entry silently")
    hv.reset()
    act = Activation(vmer=REGISTRY.by_name("hvm_cpuid").vmer, args=(1,), domain_id=2)
    golden = capture_golden(hv, act)
    vcpu = hv.vcpu(2)
    golden_eax = vcpu.rax
    # Find a flip in the emulated result register that survives to the guest.
    for idx in range(golden.result.instructions):
        result, div = run_faulty(hv, act, golden, FaultSpec("rax", 13, idx))
        if div is not None and div.output_diffs and not div.path_changed:
            print(f"flip bit 13 of rax at instruction {idx} of the cpuid emulation:")
            print(f"  golden guest eax: {golden_eax:#x}")
            print(f"  faulty guest eax: {vcpu.rax:#x}")
            print(f"  dynamic path changed: {div.path_changed}")
            print("The hypervisor finishes normally; the guest consumes a wrong")
            print("cpuid result much later — the Section II.A example verbatim.")
            break

    banner("Fig. 5a — extra code: corrupted rep movs counter")
    hv.reset()
    act = Activation(vmer=REGISTRY.by_name("grant_table_op").vmer, args=(12, 2), domain_id=1)
    golden = capture_golden(hv, act)
    for idx in range(golden.result.instructions):
        result, div = run_faulty(hv, act, golden, FaultSpec("rcx", 6, idx))
        if not isinstance(result, Exception) and result.instructions > golden.result.instructions:
            print(f"flip bit 6 of rcx (the copy counter) at instruction {idx}:")
            print(f"  golden: {golden.result.instructions} instructions, "
                  f"RT/BR/RM/WM = {golden.result.features[1:]}")
            print(f"  faulty: {result.instructions} instructions, "
                  f"RT/BR/RM/WM = {result.features[1:]}")
            print("Extra dynamic instructions stretch every counter — exactly the")
            print("signature the VM transition classifier keys on.")
            break

    banner("Fig. 5b — incorrect branch target: event channel path")
    hv.reset()
    act = Activation(vmer=REGISTRY.by_name("event_channel_op").vmer, args=(9, 0), domain_id=1)
    golden = capture_golden(hv, act)
    dom = hv.domain(1)
    # Flip ZF right at the test/je pair inside evtchn_set_pending.
    found = False
    for idx in range(golden.result.instructions):
        result, div = run_faulty(hv, act, golden, FaultSpec("rflags", 6, idx))
        if div is not None and div.path_changed:
            print(f"flip ZF at instruction {idx} of evtchn_set_pending:")
            print(f"  port 9 pending after faulty run: {dom.is_port_pending(9)}")
            print(f"  vcpu marked pending:             {dom.vcpu(0).pending}")
            print(f"  instructions: {golden.result.instructions} -> {result.instructions}")
            print("A valid-but-wrong branch: vcpu_mark_events_pending is skipped")
            print("(or taken spuriously) — undetectable by control-flow *validity*")
            print("checks, but visible in the dynamic execution pattern.")
            found = True
            break
    if not found:
        print("(no ZF flip changed the path for this activation)")

    banner("Table II — time values: branch-free delivery, invisible to features")
    hv.reset()
    act = Activation(vmer=REGISTRY.by_name("set_timer_op").vmer, args=(500,), domain_id=1)
    golden = capture_golden(hv, act)
    for idx in range(golden.result.instructions):
        result, div = run_faulty(hv, act, golden, FaultSpec("rax", 19, idx))
        if div is not None and div.silent_data_only:
            kinds = {k.value for _, _, k, _, _ in div.output_diffs}
            print(f"flip bit 19 of rax at instruction {idx} of time delivery:")
            print(f"  corrupted output kinds: {sorted(kinds)}")
            print(f"  features changed: {div.features_changed}  "
                  f"path changed: {div.path_changed}")
            print("The guest receives a wrong time value while every detection")
            print("feature stays identical — the dominant Table II bucket (53%).")
            break

    banner("Table II — stack values: context save/restore corruption")
    hv.reset()
    act = Activation(vmer=REGISTRY.by_name("sched_op").vmer, args=(0, 0), domain_id=1)
    golden = capture_golden(hv, act)
    vcpu = hv.vcpu(1)
    for idx in range(golden.result.instructions):
        result, div = run_faulty(hv, act, golden, FaultSpec("r10", 21, idx))
        if div is not None and div.output_diffs and not div.path_changed:
            print(f"flip bit 21 of r10 at instruction {idx} of the context switch:")
            print(f"  guest register frame diff: "
                  f"{[(hex(a), hex(w), hex(n)) for a, _, _, w, n in div.output_diffs][:2]}")
            print("The corrupted value rode the stack through save/restore and")
            print("lands back in the guest's registers after VM entry.")
            break


if __name__ == "__main__":
    main()
