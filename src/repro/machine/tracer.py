"""Dynamic instruction tracing.

The tracer supplies two measurements the evaluation needs:

* **Detection latency** (Fig. 10) — "the number of instructions between error
  activation and detection".  The tracer's running dynamic-instruction index
  timestamps both events.

* **Golden-run control-flow diffing** — the trace of executed instruction
  addresses lets the campaign distinguish *incorrect control flow* (valid but
  different path, Fig. 5) from data-only corruption, which is what separates
  transition-detectable faults from the Table II undetected categories.

Tracing full address sequences for tens of thousands of injection runs would
be slow and memory-hungry, so the tracer supports a ``light`` mode recording
only the dynamic count plus an order-sensitive path hash.  Full mode appends
every retired address to :attr:`Tracer.addresses` — the golden run records
its own stream this way, on the translated path, and the lock-step batch
lowers it (:func:`repro.machine.lockstep.build_plan`).
"""

from __future__ import annotations

__all__ = ["Tracer"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


class Tracer:
    """Records the dynamic instruction stream of one execution.

    The CPU's dispatch loop keeps the count and path hash in locals while it
    runs and writes them back at every exit and around every interpreted
    op; ``rep movs`` adds its iterations through :meth:`record_bulk`.
    """

    __slots__ = ("light", "count", "path_hash", "addresses")

    def __init__(self, *, light: bool = True) -> None:
        self.light = light
        self.count = 0
        self.path_hash = _FNV_OFFSET
        #: Executed instruction addresses (full mode only).
        self.addresses: list[int] = []

    def record(self, address: int) -> None:
        """Record the retirement of the instruction at ``address``."""
        self.count += 1
        # FNV-1a over the address stream: order-sensitive, collision-resistant
        # enough to distinguish control-flow paths.
        h = self.path_hash ^ (address & _MASK64)
        self.path_hash = (h * _FNV_PRIME) & _MASK64
        if not self.light:
            self.addresses.append(address)

    def record_bulk(self, address: int, n: int) -> None:
        """Record ``n`` repetitions at ``address`` (rep-style iterations).

        Counts toward the dynamic instruction total and perturbs the path
        hash as a function of both the address and the repeat count, so two
        executions differing only in iteration count hash differently.
        """
        if n <= 0:
            return
        self.count += n
        h = self.path_hash ^ ((address ^ (n * 0x9E3779B97F4A7C15)) & _MASK64)
        self.path_hash = (h * _FNV_PRIME) & _MASK64
        if not self.light:
            self.addresses.extend([address] * n)

    def reset(self) -> None:
        self.count = 0
        self.path_hash = _FNV_OFFSET
        self.addresses.clear()

    def same_path(self, other: "Tracer") -> bool:
        """True when both traces followed the same dynamic path."""
        return self.count == other.count and self.path_hash == other.path_hash
