"""The Xen-like hypervisor substrate.

Everything the paper's Xentry framework sits on: exit-reason taxonomy, handler
programs in the toy ISA, domain/VCPU structures, and the activation execution
path (VM exit -> handler -> VM entry) with interceptor hooks at both
transitions.
"""

from repro.hypervisor.domain import DomainView, VcpuView
from repro.hypervisor.handlers.archetypes import (
    Archetype,
    ASSERTION_IDS,
    HandlerParams,
    OutputRef,
)
from repro.hypervisor.handlers.registry import (
    Hardening,
    build_handler_table,
    handler_params_for,
)
from repro.hypervisor.image import ImageBuilder, MemoryMap, SUBROUTINES
from repro.hypervisor.events import Channel, ChannelState, EventChannelManager
from repro.hypervisor.grants import GrantEntry, GrantFlags, GrantTableManager
from repro.hypervisor.scheduler import CreditScheduler, Priority, SchedVcpu
from repro.hypervisor.layout import (
    DomainLayout,
    GLOBAL_OWNER,
    HypervisorLayout,
    Slot,
    ValueKind,
    VcpuLayout,
)
from repro.hypervisor.vmexit import (
    APIC_NAMES,
    EXCEPTION_NAMES,
    ExitCategory,
    ExitReason,
    ExitReasonRegistry,
    HVM_EXIT_NAMES,
    HYPERCALL_NAMES,
    REGISTRY,
)
from repro.hypervisor.xen import (
    Activation,
    ActivationResult,
    TransitionInterceptor,
    XenHypervisor,
)

__all__ = [
    "APIC_NAMES",
    "ASSERTION_IDS",
    "Activation",
    "ActivationResult",
    "Archetype",
    "DomainLayout",
    "DomainView",
    "EXCEPTION_NAMES",
    "ExitCategory",
    "ExitReason",
    "ExitReasonRegistry",
    "GLOBAL_OWNER",
    "HVM_EXIT_NAMES",
    "HYPERCALL_NAMES",
    "HandlerParams",
    "Hardening",
    "HypervisorLayout",
    "ImageBuilder",
    "MemoryMap",
    "OutputRef",
    "REGISTRY",
    "SUBROUTINES",
    "Slot",
    "TransitionInterceptor",
    "ValueKind",
    "VcpuLayout",
    "VcpuView",
    "XenHypervisor",
    "Channel",
    "ChannelState",
    "CreditScheduler",
    "EventChannelManager",
    "GrantEntry",
    "GrantFlags",
    "GrantTableManager",
    "Priority",
    "SchedVcpu",
    "build_handler_table",
    "handler_params_for",
]
