"""Hardware performance counters.

Models the four basic performance-monitoring events the paper selects as
features (Table I): retired instructions, retired branch instructions, and
retired memory loads/stores.  Per the paper's implementation notes
(Section IV), logical cores do not share counters, counters are armed right
before the original handler entry is called and read back at VM entry.

``rep movs`` contributes one retired instruction *per copied word* plus a
load and a store per word.  This reflects how iteration-level events dominate
real counter readings and is what makes the Fig. 5a scenario (a flipped
``rcx`` loop counter adding extra dynamic instructions) visible to the
VM-transition detector.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Event", "CounterSample", "PerformanceCounterUnit"]


class Event(enum.Enum):
    """Architectural performance-monitoring events (Table I synonyms)."""

    INST_RETIRED = "RT"
    BR_INST_RETIRED = "BR"
    MEM_LOADS = "RM"
    MEM_STORES = "WM"


@dataclass(frozen=True)
class CounterSample:
    """An atomic read of all four counters."""

    instructions: int
    branches: int
    loads: int
    stores: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.instructions, self.branches, self.loads, self.stores)


class PerformanceCounterUnit:
    """Per-logical-core counter bank with arm/disarm semantics.

    The counters run free: the CPU's dispatch loop buffers the running
    totals in locals and writes them back at every exit (and around every
    interpreted op), and bulk executors add through :meth:`count_block`.
    Arming snapshots the running totals so a collection window is the
    difference between two snapshots — the same free-running-counter
    discipline real PMUs use.
    """

    __slots__ = ("_inst", "_br", "_loads", "_stores", "_armed", "_base")

    def __init__(self) -> None:
        self._inst = 0
        self._br = 0
        self._loads = 0
        self._stores = 0
        self._armed = False
        self._base = (0, 0, 0, 0)

    # -- bulk retirement ----------------------------------------------------

    def count_block(self, instructions: int, branches: int, loads: int, stores: int) -> None:
        """Add a batch of retired events at once (``rep movs`` counts its
        copied words through here)."""
        self._inst += instructions
        self._br += branches
        self._loads += loads
        self._stores += stores

    # -- collection window --------------------------------------------------

    @property
    def armed(self) -> bool:
        return self._armed

    def arm(self) -> None:
        """Begin a collection window (called by Xentry at VM exit)."""
        self._base = (self._inst, self._br, self._loads, self._stores)
        self._armed = True

    def collect(self) -> CounterSample:
        """End the window and return event deltas (called at VM entry)."""
        sample = CounterSample(
            instructions=self._inst - self._base[0],
            branches=self._br - self._base[1],
            loads=self._loads - self._base[2],
            stores=self._stores - self._base[3],
        )
        self._armed = False
        return sample

    def totals(self) -> CounterSample:
        """Free-running totals since construction (for utilization accounting)."""
        return CounterSample(self._inst, self._br, self._loads, self._stores)

    def reset(self) -> None:
        self._inst = self._br = self._loads = self._stores = 0
        self._armed = False
        self._base = (0, 0, 0, 0)
