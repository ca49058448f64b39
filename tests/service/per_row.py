"""The per-row serve pipeline, kept as the differential oracle.

Production emits, queues and scores each fleet tick as columns
(:mod:`repro.service.fleet`, :mod:`repro.service.scorer`).  This module is
the pipeline it replaced, one Python object per row: every host pops
pre-drawn rows off a list buffer into stamped :class:`Row` objects, every row
is pushed through a bounded :class:`HostQueue` by its own ``submit`` call,
and every scored row takes its own outcome branch and histogram
observation.  ``run_per_row`` drives it through the daemon's tick loop and
returns what the columnar service must reproduce: totals, ticks, batches and
the metrics registry.

Nothing in ``src/`` calls this; it exists to be compared against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import rng
from repro.errors import CampaignConfigError
from repro.hypervisor import REGISTRY
from repro.ml.dataset import INCORRECT
from repro.service import OverflowPolicy, ScoreTotals, ServiceConfig, ServiceMetrics

_RT_RANGE = (40, 900)
_BR_RANGE = (2, 120)
_RM_RANGE = (1, 90)
_WM_RANGE = (0, 60)


@dataclass
class Row:
    """One activation feature row, stamped when its tick was emitted."""

    host: int
    vm: int
    tick: int
    features: tuple[int, int, int, int, int]
    injected: bool
    emitted_at: float = 0.0


class PerRowHostStream:
    """One host's stream: rows popped one by one off a list buffer."""

    BLOCK = 256

    def __init__(self, config, host: int) -> None:
        self.config = config
        self.host = host
        self._rng = rng.stream(config.seed, "fleet", host)
        self._n_vmers = len(REGISTRY)
        self._buffer: list = []  # oldest row last

    def _refill(self, n: int) -> None:
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
        scale = g.uniform(1.8, 6.0, n)
        scale = np.where(g.random(n) < 0.3, 1.0 / scale, scale)
        rm_hit = g.random(n) < 0.7
        wm_hit = g.random(n) < 0.7
        rt = np.where(injected, np.maximum(1, (rt * scale).astype(np.int64)), rt)
        br = np.where(injected, (br * scale).astype(np.int64), br)
        rm = np.where(injected & rm_hit, (rm * scale).astype(np.int64), rm)
        wm = np.where(injected & wm_hit, (wm * scale).astype(np.int64), wm)
        block = list(zip(
            vm.tolist(),
            zip(vmer.tolist(), rt.tolist(), br.tolist(), rm.tolist(), wm.tolist()),
            injected.tolist(),
        ))
        block.reverse()
        self._buffer[:0] = block

    def rows_for_tick(self, tick: int) -> list[Row]:
        g = self._rng
        config = self.config
        mean = config.rows_per_tick
        n = int(g.integers(max(1, mean - 1), mean + 2))
        if (
            config.burst_every
            and config.burst_rows
            and tick % config.burst_every == config.burst_every - 1
        ):
            n += config.burst_rows
        if len(self._buffer) < n:
            self._refill(n - len(self._buffer))
        rows = []
        for _ in range(n):
            vm, features, injected = self._buffer.pop()
            rows.append(Row(self.host, vm, tick, features, injected))
        return rows


class PerRowFleet:
    """Hosts ticked in order, the tick truncated at the row cap."""

    def __init__(self, config) -> None:
        self.hosts = [PerRowHostStream(config, host) for host in range(config.hosts)]
        self.tick = 0
        self.emitted = 0
        self.injected = 0

    def next_tick(self, max_rows: int | None) -> list[Row]:
        rows: list[Row] = []
        for host in self.hosts:
            if max_rows is not None and self.emitted >= max_rows:
                break
            emitted = host.rows_for_tick(self.tick)
            if max_rows is not None:
                emitted = emitted[:max_rows - self.emitted]
            rows.extend(emitted)
            self.emitted += len(emitted)
            self.injected += sum(1 for row in emitted if row.injected)
        self.tick += 1
        return rows


class HostQueue:
    """A bounded FIFO of pending rows for one host."""

    def __init__(self, host: int, depth: int) -> None:
        if depth < 1:
            raise CampaignConfigError("queue depth must be >= 1")
        self.host = host
        self.depth = depth
        self.rows: deque[Row] = deque()

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def full(self) -> bool:
        return len(self.rows) >= self.depth

    def push(self, row: Row) -> Row | None:
        """Append a row; returns the evicted row if the queue was full."""
        evicted = self.rows.popleft() if self.full else None
        self.rows.append(row)
        return evicted

    def take_all(self) -> list[Row]:
        rows = list(self.rows)
        self.rows.clear()
        return rows


class PerRowScorer:
    """Per-host queues fed one row per ``submit``, scored row by row."""

    def __init__(self, model, metrics: ServiceMetrics, *, batch_rows: int,
                 queue_depth: int, policy: OverflowPolicy, clock) -> None:
        self.model = model
        self.metrics = metrics
        self.batch_rows = batch_rows
        self.queue_depth = queue_depth
        self.policy = policy
        self.clock = clock
        self.totals = ScoreTotals()
        self.latencies: list[float] = []
        self._queues: dict[int, HostQueue] = {}
        self._pending: deque[Row] = deque()
        self._host_children: dict[int, tuple] = {}

    def _children(self, host: int) -> tuple:
        children = self._host_children.get(host)
        if children is None:
            m = self.metrics
            children = self._host_children[host] = (
                m.rows_emitted.labels(host=host),
                m.rows_scored.labels(host=host),
                m.rows_dropped.labels(host=host),
                m.queue_depth.labels(host=host),
                m.decision_latency.labels(host=host),
            )
        return children

    def submit(self, row: Row) -> None:
        queue = self._queues.get(row.host)
        if queue is None:
            queue = self._queues[row.host] = HostQueue(row.host, self.queue_depth)
        emitted, _, dropped, depth, _ = self._children(row.host)
        emitted.inc()
        if queue.full and self.policy is OverflowPolicy.BLOCK:
            self._accept(queue)
        evicted = queue.push(row)
        if evicted is not None:
            self.totals.rows_dropped += 1
            self.totals.dropped_by_host[queue.host] = (
                self.totals.dropped_by_host.get(queue.host, 0) + 1
            )
            dropped.inc()
        depth.set(len(queue))

    def _accept(self, queue: HostQueue) -> None:
        rows = queue.take_all()
        if rows:
            self._pending.extend(rows)
            self._children(queue.host)[3].set(0)
        self.metrics.pending_rows.set(len(self._pending))

    def pump(self) -> None:
        for host in sorted(self._queues):
            self._accept(self._queues[host])
        while len(self._pending) >= self.batch_rows:
            self._score(self._take_batch(self.batch_rows))

    def drain(self) -> None:
        self.pump()
        while self._pending:
            self._score(self._take_batch(self.batch_rows))

    def _take_batch(self, n: int) -> list[Row]:
        rows = [self._pending.popleft() for _ in range(min(n, len(self._pending)))]
        self.metrics.pending_rows.set(len(self._pending))
        return rows

    def _score(self, rows: list[Row]) -> None:
        X = np.array([row.features for row in rows], dtype=np.int64)
        labels = self.model.predict_batch(X)
        now = self.clock()
        outcomes = dict.fromkeys(
            ("true_positive", "false_positive", "true_negative", "false_negative"), 0
        )
        by_host: dict[int, int] = {}
        for row, flagged in zip(rows, (np.asarray(labels) == INCORRECT).tolist()):
            if flagged:
                outcome = "true_positive" if row.injected else "false_positive"
            else:
                outcome = "false_negative" if row.injected else "true_negative"
            outcomes[outcome] += 1
            by_host[row.host] = by_host.get(row.host, 0) + 1
            latency = max(0.0, now - row.emitted_at)
            self.latencies.append(latency)
            self._children(row.host)[4].observe(latency)
        for outcome, count in outcomes.items():
            if count:
                setattr(self.totals, outcome, getattr(self.totals, outcome) + count)
                self.metrics.detections.labels(outcome=outcome).inc(count)
        if outcomes["true_positive"]:
            self.metrics.recoveries.labels(outcome="recovered").inc(
                outcomes["true_positive"]
            )
        if outcomes["false_positive"]:
            self.metrics.recoveries.labels(outcome="spurious").inc(
                outcomes["false_positive"]
            )
        for host, count in by_host.items():
            self._children(host)[1].inc(count)
        self.totals.rows_scored += len(rows)
        self.totals.batches += 1
        self.metrics.batches.inc()


@dataclass
class PerRowRun:
    totals: ScoreTotals
    rows_emitted: int
    rows_injected: int
    ticks: int
    metrics: ServiceMetrics


def run_per_row(config: ServiceConfig, model, clock) -> PerRowRun:
    """The daemon's row-capped tick loop over the per-row pipeline."""
    if config.max_rows is None:
        raise CampaignConfigError("the per-row oracle runs row-capped configs only")
    metrics = ServiceMetrics()
    fleet = PerRowFleet(config.fleet)
    scorer = PerRowScorer(
        model, metrics, batch_rows=config.batch_rows,
        queue_depth=config.queue_depth, policy=config.policy, clock=clock,
    )
    metrics.hosts_up.set(config.fleet.hosts)
    ticks = 0
    while fleet.emitted < config.max_rows:
        rows = fleet.next_tick(config.max_rows)
        stamp = clock()
        for row in rows:
            row.emitted_at = stamp
            scorer.submit(row)
        scorer.pump()
        ticks += 1
    scorer.drain()
    return PerRowRun(scorer.totals, fleet.emitted, fleet.injected, ticks, metrics)
