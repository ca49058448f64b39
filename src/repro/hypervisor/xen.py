"""The Xen-like hypervisor: image construction and activation execution.

:class:`XenHypervisor` wires the substrate together: it takes the text image
(every handler + the subroutine library) and the initialized data structures
from :func:`boot_image`, built once per process, and executes *activations*
— single hypervisor executions between a VM exit and the following VM
entry, the unit of everything the paper measures.

The execution path mirrors Fig. 4: an optional *interceptor* (Xentry) is
called at VM exit (to arm performance counters) and again at VM entry (to run
VM-transition detection) around the original handler execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Protocol

from repro import rng as rng_mod
from repro.errors import MachineConfigError
from repro.hypervisor.domain import DomainView, VcpuView
from repro.hypervisor.handlers.archetypes import OutputRef, emit_handler
from repro.hypervisor.handlers.registry import Hardening, build_handler_table
from repro.hypervisor.image import ImageBuilder, MemoryMap
from repro.hypervisor.layout import HypervisorLayout, Slot
from repro.hypervisor.vmexit import ExitReason, ExitReasonRegistry, REGISTRY
from repro.machine.cpu import CPUCore, ExecutionResult
from repro.machine.isa import Op, Program
from repro.machine.memory import MemoryCheckpoint
from repro.machine.perfcounters import CounterSample
from repro.machine.registers import MASK64
from repro.metrics import COUNTERS

__all__ = [
    "Activation",
    "ActivationResult",
    "BootImage",
    "TransitionInterceptor",
    "XenHypervisor",
    "boot_image",
]

_ARG_REGISTERS = ("rdi", "rsi", "rdx", "r8", "r9")


@lru_cache(maxsize=4096)
def _guest_request_payload(
    seed: int, vmer: int, args: tuple[int, ...], seq: int, n_words: int
) -> bytes:
    """Deterministic guest-request block for one activation identity.

    A campaign prepares the same activation many times (golden capture, every
    faulty replay, each follow-up execution), and the payload depends only on
    these five values — so the numpy stream construction and draw are cached
    rather than recomputed per :meth:`XenHypervisor.prepare`.
    """
    fill = rng_mod.stream(seed, "guest_request", vmer, args, seq)
    words = fill.integers(0, 1 << 32, size=n_words, dtype="int64")
    return words.astype("<u8").tobytes()


@dataclass(frozen=True)
class Activation:
    """One hypervisor activation: a VM exit with its cause and arguments.

    ``seq`` sequences the activation within its run so that time (TSC) and
    guest-supplied request data are deterministic — the property that makes
    golden/faulty run pairs comparable.
    """

    vmer: int
    args: tuple[int, ...] = ()
    domain_id: int = 1
    vcpu_id: int = 0
    seq: int = 0

    def __post_init__(self) -> None:
        if len(self.args) > len(_ARG_REGISTERS):
            raise MachineConfigError(
                f"at most {len(_ARG_REGISTERS)} handler args supported"
            )


@dataclass(frozen=True)
class ActivationResult:
    """Outcome of one fault-free-or-not activation that reached VM entry."""

    activation: Activation
    reason: ExitReason
    exit_op: Op
    instructions: int
    path_hash: int
    sample: CounterSample
    tsc_end: int

    @property
    def features(self) -> tuple[int, int, int, int, int]:
        """The Table I feature vector: (VMER, RT, BR, RM, WM)."""
        return (
            self.reason.vmer,
            self.sample.instructions,
            self.sample.branches,
            self.sample.loads,
            self.sample.stores,
        )


@dataclass(frozen=True)
class BootImage:
    """A built hypervisor image: layout, text and post-boot memory.

    Shared by every :class:`XenHypervisor` of one process built from the
    same key (see :func:`boot_image`); nothing writes to it after the build.
    Each instance restores its own :class:`~repro.machine.memory.Memory`
    from ``boot``, whose page buffers are immutable.
    """

    layout: HypervisorLayout
    builder: ImageBuilder
    handler_table: dict
    program: Program
    boot: MemoryCheckpoint


@cache
def boot_image(
    memory_map: MemoryMap,
    registry: ExitReasonRegistry,
    hardening: Hardening | None,
    n_domains: int,
    vcpus_per_domain: int,
) -> BootImage:
    """Build (once per process and key) the image every hypervisor runs.

    ``MemoryMap`` and ``Hardening`` are frozen dataclasses and the registry
    hashes by identity, so equal configurations share one image, one
    :class:`Program` and hence one translation.  A process that must
    rebuild (a test patching the handler table) calls
    ``boot_image.cache_clear()``.
    """
    layout = HypervisorLayout(
        heap_base=memory_map.heap_base,
        heap_size=memory_map.heap_size,
        n_domains=n_domains,
        vcpus_per_domain=vcpus_per_domain,
    )
    memory = memory_map.create_memory()
    builder = ImageBuilder(layout, memory_map)
    builder.emit_subroutines()
    handler_table = build_handler_table(registry, hardening)
    for reason in registry:
        emit_handler(builder, reason, handler_table[reason.vmer])
    program = builder.assemble()
    layout.initialize(memory)
    memory.write_u64(layout.globals_.word_address(1), 2_130_000)  # kHz calibration
    return BootImage(
        layout=layout,
        builder=builder,
        handler_table=handler_table,
        program=program,
        boot=memory.checkpoint(),
    )


class TransitionInterceptor(Protocol):
    """Xentry's hooks around an activation (Fig. 4's shim position)."""

    def on_vm_exit(self, hypervisor: "XenHypervisor", activation: Activation) -> None:
        """Called after the VM exit, before the original handler runs."""

    def on_vm_entry(
        self,
        hypervisor: "XenHypervisor",
        activation: Activation,
        result: ActivationResult,
    ) -> None:
        """Called after the handler finished, before the guest resumes."""


class XenHypervisor:
    """A fully-wired simulated hypervisor platform."""

    def __init__(
        self,
        *,
        n_domains: int = 3,
        vcpus_per_domain: int = 1,
        memory_map: MemoryMap | None = None,
        registry: ExitReasonRegistry = REGISTRY,
        seed: int = 0,
        max_instructions: int = 10_000,
        hardening: Hardening | None = None,
        n_cores: int = 1,
        translate: bool = True,
    ) -> None:
        if n_cores < 1:
            raise MachineConfigError("need at least one core")
        self.memory_map = memory_map or MemoryMap(n_cpus=n_cores)
        if self.memory_map.n_cpus < n_cores:
            raise MachineConfigError(
                f"memory map provides {self.memory_map.n_cpus} stacks for {n_cores} cores"
            )
        self.registry = registry
        self.seed = seed
        self.max_instructions = max_instructions
        self.hardening = hardening
        # The image is shared, read-only, with every instance built from
        # the same key in this process; the memory is this instance's own.
        image = boot_image(
            self.memory_map, registry, hardening, n_domains, vcpus_per_domain
        )
        self.layout = image.layout
        self.builder = image.builder
        self.handler_table = image.handler_table
        self.program: Program = image.program
        self.memory = self.memory_map.create_memory()
        self.memory.restore(image.boot)
        self._initial_state = image.boot
        #: One logical core per physical CPU (Fig. 4: Xentry instances run
        #: per-CPU; counters are not shared between logical cores).
        self.cores: tuple[CPUCore, ...] = tuple(
            CPUCore(i, self.memory, translate=translate)
            for i in range(n_cores)
        )
        self.cpu = self.cores[0]
        self._tsc_base = 1_000_000

    # -- views ----------------------------------------------------------------

    @property
    def n_domains(self) -> int:
        return len(self.layout.domains)

    def domain(self, domain_id: int) -> DomainView:
        return DomainView(self.memory, self.layout.domains[domain_id])

    def vcpu(self, domain_id: int, vcpu_id: int = 0) -> VcpuView:
        return self.domain(domain_id).vcpu(vcpu_id)

    @property
    def ff_stats(self) -> dict[str, int]:
        """This process's trials, skipped instructions and proved hangs."""
        # A process-wide view over COUNTERS for perfbench/spans.py, which
        # differences it around run_benchmark_groups; its only reader.
        machine = COUNTERS.machine()
        return {key: machine[key] for key in ("trials", "instructions_skipped", "proved_hangs")}

    # -- state management ----------------------------------------------------------

    def reset(self) -> None:
        """Restore the post-boot machine state (memory + all cores)."""
        self.memory.restore(self._initial_state)
        for core in self.cores:
            core.regs.reset()
            core.pmu.reset()
            core.tracer.reset()
            core.clear_injection()
            core.tsc = self._tsc_base

    def checkpoint(self) -> MemoryCheckpoint:
        """Capture current memory for a golden/faulty run pair (COW)."""
        return self.memory.checkpoint()

    def restore(self, snapshot: MemoryCheckpoint) -> None:
        self.memory.restore(snapshot)

    # -- activation execution ----------------------------------------------------------

    def prepare(self, activation: Activation, *, core_id: int = 0) -> None:
        """Set up registers, guest request data and guest VCPU frame.

        Deterministic in (seed, activation): preparing the same activation
        twice from the same memory state yields identical runs.
        """
        reason = self.registry.by_vmer(activation.vmer)
        if not 0 <= activation.domain_id < self.n_domains:
            raise MachineConfigError(f"no domain {activation.domain_id}")
        core = self.cores[core_id]
        regs = core.regs
        regs.reset()
        for reg, value in zip(_ARG_REGISTERS, activation.args):
            regs[reg] = value
        regs["rbp"] = self.layout.globals_.address
        regs["r12"] = self.builder.domain_base(activation.domain_id)
        regs["r13"] = self.builder.vcpu_base(activation.domain_id, activation.vcpu_id)
        regs["rsp"] = self.memory_map.stack_top_for(core_id)
        # Deterministic TSC: advances with the activation sequence number.
        core.tsc = self._tsc_base + activation.seq * 10_000
        write_block = self.memory.write_block
        for address, data in self.prepare_writes(activation):
            write_block(address, data)
        _ = reason  # validated above

    def prepare_writes(self, activation: Activation) -> tuple[tuple[int, bytes], ...]:
        """The memory :meth:`prepare` writes for ``activation``, as
        ``(address, data)`` blocks in write order.

        The one owner of that write set: :meth:`prepare` applies it, and the
        follow-up window (:mod:`repro.faults.injector`) replays it for the
        executions it takes from the golden run.  Every execution of an
        activation rewrites these words whatever memory held before.
        """
        # Guest-supplied request payload (DMA-style block write).
        req = self.layout.guest_request
        # Guest VCPU frame: the registers the guest trapped with.
        frame = self.layout.domains[activation.domain_id].vcpus[activation.vcpu_id].regs
        guest_rax = activation.args[0] & MASK64 if activation.args else 0
        guest_rip = (0x0000_7F00_0000_1000 + activation.seq * 16) & MASK64
        return (
            (req.address, _guest_request_payload(
                self.seed, activation.vmer, activation.args, activation.seq, req.words
            )),
            (frame.word_address(0), guest_rax.to_bytes(8, "little")),
            (frame.word_address(15), guest_rip.to_bytes(8, "little")),
        )

    def execute(
        self,
        activation: Activation,
        *,
        interceptor: TransitionInterceptor | None = None,
        max_instructions: int | None = None,
        core_id: int = 0,
    ) -> ActivationResult:
        """Run one activation from VM exit to VM entry on core ``core_id``.

        Simulated architectural events (:class:`HardwareException`,
        :class:`AssertionViolation`, :class:`SimulationLimitExceeded`)
        propagate to the caller — they are what the runtime detection layer
        consumes.
        """
        reason = self.registry.by_vmer(activation.vmer)
        core = self.cores[core_id]
        self.prepare(activation, core_id=core_id)
        if interceptor is not None:
            interceptor.on_vm_exit(self, activation)
        core.tracer.reset()
        core.pmu.arm()
        entry = self.program.address_of(reason.handler_label)
        exec_result: ExecutionResult = core.run(
            self.program,
            entry,
            max_instructions=max_instructions or self.max_instructions,
        )
        sample = core.pmu.collect()
        result = ActivationResult(
            activation=activation,
            reason=reason,
            exit_op=exec_result.exit_op,
            instructions=exec_result.instructions,
            path_hash=exec_result.path_hash,
            sample=sample,
            tsc_end=exec_result.tsc_end,
        )
        if interceptor is not None:
            interceptor.on_vm_entry(self, activation, result)
        return result

    # Read by perfbench/spans.py, which wraps these three names; nothing in
    # the program calls them.
    def execute_with_ladder(self, *args, **kwargs):
        raise NotImplementedError

    def resume_execution(self, *args, **kwargs):
        raise NotImplementedError

    def restore_machine(self, *args, **kwargs):
        raise NotImplementedError

    # -- guest-visible outputs ------------------------------------------------------

    def output_addresses(self, activation: Activation) -> list[tuple[int, Slot, OutputRef]]:
        """Resolve the guest-visible output words of ``activation``'s handler.

        Returns ``(address, slot, ref)`` triples; the outcome classifier
        compares these words between golden and faulty runs to decide whether
        an error propagated across VM entry (long-latency errors, Fig. 9).
        """
        params = self.handler_table[activation.vmer]
        dom = self.layout.domains[activation.domain_id]
        vcpu = dom.vcpus[activation.vcpu_id]
        out: list[tuple[int, Slot, OutputRef]] = []

        def add(slot: Slot, ref: OutputRef, words: range) -> None:
            for w in words:
                out.append((slot.word_address(w), slot, ref))

        for ref in params.outputs:
            if ref is OutputRef.VCPU_REG0:
                add(vcpu.regs, ref, range(0, 1))
            elif ref is OutputRef.VCPU_REG1:
                add(vcpu.regs, ref, range(1, 2))
            elif ref is OutputRef.VCPU_REG2:
                add(vcpu.regs, ref, range(2, 3))
            elif ref is OutputRef.VCPU_REG3:
                add(vcpu.regs, ref, range(3, 4))
            elif ref is OutputRef.VCPU_PENDING:
                add(vcpu.pending, ref, range(vcpu.pending.words))
            elif ref is OutputRef.VCPU_TRAPNO:
                add(vcpu.trapno, ref, range(vcpu.trapno.words))
            elif ref is OutputRef.VCPU_TIME:
                add(vcpu.time, ref, range(vcpu.time.words))
            elif ref is OutputRef.WALLCLOCK:
                add(dom.wallclock, ref, range(dom.wallclock.words))
            elif ref is OutputRef.EVTCHN_PENDING:
                add(dom.evtchn_pending, ref, range(dom.evtchn_pending.words))
            elif ref is OutputRef.GRANT_FRAMES:
                add(dom.grant_frames, ref, range(dom.grant_frames.words))
        return out

    def read_outputs(self, activation: Activation) -> dict[int, int]:
        """Current values of the activation's guest-visible output words."""
        return {
            addr: self.memory.read_u64(addr)
            for addr, _, _ in self.output_addresses(activation)
        }
