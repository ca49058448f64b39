"""Deterministic fleet simulator: hosts x VMs emitting feature rows.

Models a fleet of hypervisor hosts, each running several guest VMs whose
activations produce the paper's five-feature rows (VMER, RT, BR, RM, WM —
Table I).  Every host draws from its own named RNG stream
(``rng.stream(seed, "fleet", host)``), so a host's emission sequence depends
only on ``(seed, host)`` — it is bit-identical no matter how many other hosts
exist, how rows are batched downstream, or how the tick loop interleaves
hosts.  A configurable fraction of rows carry an *injected fault*: their
counters are perturbed the way an activated soft error perturbs real
executions (inflated/deflated instruction, branch and memory counts), and the
row remembers its ground truth so the service can label verdicts.

A tick is emitted as columns (:class:`FleetTick`): each host slices its rows
from a column buffer refilled by vectorized draws, and the fleet stacks the
slices in host order.  Iterating a tick yields one :class:`FleetRow` per row
for consumers that want objects.

Bursts model the failure mode backpressure exists for: every
``burst_every`` ticks a host emits ``burst_rows`` extra rows in one tick,
which overflows bounded queues deterministically (drops depend only on the
emission schedule and the queue depth, never on micro-batch size).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro import rng
from repro.errors import CampaignConfigError
from repro.hypervisor import REGISTRY

__all__ = ["FleetConfig", "FleetRow", "FleetSimulator", "FleetTick", "HostStream"]

#: Counter envelopes for a nominal activation, loosely matching the ranges
#: the simulated hypervisor's handlers produce (see Fig. 3 harnesses).
_RT_RANGE = (40, 900)
_BR_RANGE = (2, 120)
_RM_RANGE = (1, 90)
_WM_RANGE = (0, 60)

#: Columns of a host's row block: the VM, the five features, the injected flag.
_VM, _FEATURES, _INJECTED = 0, slice(1, 6), 6


@dataclass(frozen=True)
class FleetConfig:
    """Shape and seeding of the simulated fleet."""

    hosts: int = 8
    vms_per_host: int = 4
    seed: int = 5
    inject_fraction: float = 0.02
    rows_per_tick: int = 4       # mean rows per host per tick
    burst_every: int = 0         # 0 disables bursts
    burst_rows: int = 0

    def __post_init__(self) -> None:
        if self.hosts < 1 or self.vms_per_host < 1:
            raise CampaignConfigError("fleet needs at least one host and one VM")
        if not 0.0 <= self.inject_fraction <= 1.0:
            raise CampaignConfigError("inject_fraction must be in [0, 1]")
        if self.rows_per_tick < 1:
            raise CampaignConfigError("rows_per_tick must be >= 1")
        if self.burst_every < 0 or self.burst_rows < 0:
            raise CampaignConfigError("burst settings must be >= 0")


@dataclass(frozen=True)
class FleetRow:
    """One activation feature row with its provenance and ground truth."""

    host: int
    vm: int
    tick: int
    features: tuple[int, int, int, int, int]  # (VMER, RT, BR, RM, WM)
    injected: bool


@dataclass(frozen=True)
class FleetTick:
    """One tick of fleet emission as columns, rows in host order."""

    tick: int
    host: np.ndarray       # (n,) int64
    vm: np.ndarray         # (n,) int64
    features: np.ndarray   # (n, 5) int64: VMER, RT, BR, RM, WM
    injected: np.ndarray   # (n,) bool

    def __len__(self) -> int:
        return len(self.host)

    def __iter__(self) -> Iterator[FleetRow]:
        for host, vm, features, injected in zip(
            self.host.tolist(), self.vm.tolist(),
            self.features.tolist(), self.injected.tolist(),
        ):
            yield FleetRow(host, vm, self.tick, tuple(features), injected)


class HostStream:
    """One host's deterministic emission stream.

    All randomness comes from the host's named stream: each tick draws its
    row count, and rows come from column blocks drawn in a fixed order (vm,
    vmer, counters, inject draw, perturbation), so row *i* of host *h* is a
    pure function of ``(seed, h, i)``.
    """

    #: Rows drawn per vectorized refill.
    BLOCK = 256

    def __init__(self, config: FleetConfig, host: int) -> None:
        self.config = config
        self.host = host
        self._rng = rng.stream(config.seed, "fleet", host)
        self._n_vmers = len(REGISTRY)
        # Each tick emits ``low <= n < high`` rows, plus ``burst`` on every
        # ``burst_every``-th tick.
        self._low = max(1, config.rows_per_tick - 1)
        self._high = config.rows_per_tick + 2
        self._burst = config.burst_rows if config.burst_every else 0
        # Drawn rows (see _VM, _FEATURES, _INJECTED); rows before _next are
        # already emitted.  Refills replace the array, never write into it,
        # so emitted slices stay valid.
        self._rows = np.empty((0, 7), dtype=np.int64)
        self._next = 0

    def _refill(self, n: int) -> None:
        """Draw at least ``n`` more rows, vectorized.

        Draw order is fixed (each column, then the injection perturbation;
        perturbation draws are consumed for every row, applied only to the
        injected ones), so the stream stays a pure function of
        ``(seed, host, rows drawn so far)``.
        """
        g = self._rng
        config = self.config
        n = max(n, self.BLOCK)
        vm = g.integers(0, config.vms_per_host, n)
        vmer = g.integers(0, self._n_vmers, n)
        rt = g.integers(*_RT_RANGE, size=n)
        br = g.integers(*_BR_RANGE, size=n)
        rm = g.integers(*_RM_RANGE, size=n)
        wm = g.integers(*_WM_RANGE, size=n)
        injected = g.random(n) < config.inject_fraction
        # An activated flip derails the handler: control flow runs long or
        # short, and the memory mix shifts with it.
        scale = g.uniform(1.8, 6.0, n)
        scale = np.where(g.random(n) < 0.3, 1.0 / scale, scale)
        rm_hit = g.random(n) < 0.7
        wm_hit = g.random(n) < 0.7
        rt = np.where(injected, np.maximum(1, (rt * scale).astype(np.int64)), rt)
        br = np.where(injected, (br * scale).astype(np.int64), br)
        rm = np.where(injected & rm_hit, (rm * scale).astype(np.int64), rm)
        wm = np.where(injected & wm_hit, (wm * scale).astype(np.int64), wm)
        drawn = np.column_stack((vm, vmer, rt, br, rm, wm, injected))
        self._rows = np.concatenate((self._rows[self._next:], drawn))
        self._next = 0

    def rows_for_tick(self, tick: int) -> np.ndarray:
        """This tick's rows (jittered around ``rows_per_tick``) as an (n, 7)
        int64 block: the VM, the five features, the injected flag."""
        n = int(self._rng.integers(self._low, self._high))
        if self._burst:
            every = self.config.burst_every
            if tick % every == every - 1:
                n += self._burst
        start = self._next
        available = len(self._rows) - start
        if available < n:
            self._refill(n - available)
            start = 0
        self._next = start + n
        return self._rows[start:start + n]


class FleetSimulator:
    """The whole fleet: one :class:`HostStream` per host, ticked in order."""

    def __init__(self, config: FleetConfig) -> None:
        self.config = config
        self.hosts = [HostStream(config, host) for host in range(config.hosts)]
        self.tick = 0
        self.emitted = 0
        self.injected = 0

    def next_tick(self, max_rows: int | None = None) -> FleetTick:
        """Emit one tick of rows across the fleet, in host order.

        ``max_rows`` caps *cumulative* fleet emission: the tick is truncated
        mid-host once the cap is reached, at a point that depends only on
        the emission schedule (host order is fixed), never on downstream
        batching.  The fleet's tallies move only once the whole tick exists,
        so a tick interrupted part-way was never emitted.
        """
        budget = None if max_rows is None else max_rows - self.emitted
        blocks, sizes = [], []
        for host in self.hosts:
            if budget is not None and budget <= 0:
                break
            block = host.rows_for_tick(self.tick)
            if budget is not None:
                block = block[:budget]
                budget -= len(block)
            blocks.append(block)
            sizes.append(len(block))
        rows = np.concatenate(blocks) if blocks else np.empty((0, 7), np.int64)
        tick = FleetTick(
            tick=self.tick,
            host=np.repeat(np.arange(len(blocks)), sizes),
            vm=rows[:, _VM],
            features=rows[:, _FEATURES],
            injected=rows[:, _INJECTED] != 0,
        )
        emitted, injected = len(rows), int(np.count_nonzero(tick.injected))
        self.emitted += emitted
        self.injected += injected
        self.tick += 1
        return tick

    def stream(self, max_rows: int) -> Iterator[FleetTick]:
        """Yield ticks until ``max_rows`` rows have been emitted."""
        while self.emitted < max_rows:
            yield self.next_tick(max_rows)

    def feature_matrix(self, rows: list[FleetRow]) -> np.ndarray:
        """Stack rows into the (n, 5) int64 matrix ``classify_batch`` takes."""
        return np.array([row.features for row in rows], dtype=np.int64)
