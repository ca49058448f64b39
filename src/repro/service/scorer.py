"""Micro-batch scoring with bounded per-host queues and explicit backpressure.

Two stages, mirroring a real ingest pipeline, both holding rows as column
chunks (host, features, injected, emission stamp) rather than row objects:

1. **Per-host bounded queues** absorb each tick's emission.  The consumer
   empties every queue once per pump, so a queue's fill only ever reflects
   the *current* producer burst — overflow (and therefore every drop) is a
   pure function of the emission schedule and ``queue_depth``, never of how
   scoring is batched downstream.
2. **A global pending buffer** collects accepted rows across hosts, in
   sorted host order per pump, and is scored in exact ``batch_rows`` slices
   through ``classify_batch`` (the exit-leaf bitmask kernel — bit-identical
   to per-row classification).  Rows wait in the buffer until a batch fills,
   which is where the batching/latency trade-off becomes visible in the
   latency histogram.

Metrics are updated per family, not per host: each host's five children
(emitted, scored, dropped, queue depth, latency) are resolved once, on its
first row, into a table of slots, and a tick or a batch then makes one
slot-addressed call per family (``inc_at``, ``set_at``,
``observe_grouped``).

Backpressure is explicit, never silent.  Rows arriving for a host are
numbered in arrival order since that host's queue was last emptied; with
``t`` of them against a depth ``d``:

* ``DROP_OLDEST`` — a full queue evicts its oldest row, so the first
  ``t - d`` rows are dropped; each drop is counted per host
  (``repro_rows_dropped_total``), where the totals read it;
* ``BLOCK`` — the producer stalls until the consumer runs; in the
  synchronous tick loop that means a full queue flushes to the buffer before
  the next row lands, so the first ``d * ((t - 1) // d)`` rows move to the
  buffer at once and no row is ever lost.

Determinism contract: which rows are scored vs dropped depends only on
(seed, schedule, queue_depth, policy); labels are batch-size-invariant by
``classify_batch``'s bit-identity; hence end-of-run detection totals are
independent of ``batch_rows``.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CampaignConfigError
from repro.ml.dataset import INCORRECT
from repro.service.fleet import FleetTick
from repro.service.metrics import OUTCOMES, ServiceMetrics

__all__ = ["MicroBatchScorer", "OverflowPolicy", "ScoreTotals"]


class OverflowPolicy(enum.Enum):
    """What a full per-host queue does with the next row."""

    DROP_OLDEST = "drop-oldest"
    BLOCK = "block"


@dataclass
class ScoreTotals:
    """Deterministic end-of-run tallies (no wall-clock terms).

    :attr:`MicroBatchScorer.totals` reads them off the counters in
    :class:`ServiceMetrics`; they are what the determinism contract is
    asserted on: fixed seed + row cap => everything here except ``batches``
    is equal across runs *and* across batch sizes.
    """

    rows_scored: int = 0
    rows_dropped: int = 0
    batches: int = 0
    true_positive: int = 0
    false_positive: int = 0
    true_negative: int = 0
    false_negative: int = 0
    dropped_by_host: dict[int, int] = field(default_factory=dict)

    @property
    def detections(self) -> int:
        return self.true_positive + self.false_positive

    def outcome_counts(self) -> dict[str, int]:
        return {
            "true_positive": self.true_positive,
            "false_positive": self.false_positive,
            "true_negative": self.true_negative,
            "false_negative": self.false_negative,
        }

    def as_dict(self) -> dict:
        """The batch-size-invariant tallies (``batches`` is deliberately
        excluded: how many drains it took is a function of ``batch_rows``,
        what was scored and decided is not)."""
        return {
            "rows_scored": self.rows_scored,
            "rows_dropped": self.rows_dropped,
            "detections": self.detections,
            "outcomes": self.outcome_counts(),
            "dropped_by_host": {
                str(host): n for host, n in sorted(self.dropped_by_host.items())
            },
        }


def _by_label(metric) -> dict[str, int]:
    """A one-label counter's values, by label value."""
    return {key: child.value for (key,), child in metric.children()}


#: The per-host families, by column of the scorer's slot table.
_PER_HOST = ("rows_emitted", "rows_scored", "rows_dropped", "queue_depth",
             "decision_latency")
_EMITTED, _SCORED, _DROPPED, _DEPTH, _LATENCY = range(len(_PER_HOST))


class _Rows:
    """A chunk of queued or pending rows as columns, in arrival order."""

    __slots__ = ("host", "features", "injected", "emitted_at")

    def __init__(self, host, features, injected, emitted_at) -> None:
        self.host = host              # (n,) int64
        self.features = features      # (n, 5) int64
        self.injected = injected      # (n,) bool
        self.emitted_at = emitted_at  # (n,) float64 clock stamps

    def __len__(self) -> int:
        return len(self.host)

    def __getitem__(self, index) -> "_Rows":
        return _Rows(self.host[index], self.features[index],
                     self.injected[index], self.emitted_at[index])

    @staticmethod
    def concat(chunks: list["_Rows"]) -> "_Rows":
        if len(chunks) == 1:
            return chunks[0]
        return _Rows(*(np.concatenate(column) for column in zip(*(
            (c.host, c.features, c.injected, c.emitted_at) for c in chunks
        ))))


class MicroBatchScorer:
    """Per-host bounded ingest, global micro-batch scoring.

    ``model`` is anything with the batch detector protocol —
    ``predict_batch(X) -> labels`` — which :class:`~repro.ml.export
    .CompiledRules` and a loaded :class:`~repro.persist.ModelArtifact` both
    satisfy.
    """

    def __init__(
        self,
        model,
        metrics: ServiceMetrics,
        *,
        batch_rows: int = 256,
        queue_depth: int = 1024,
        policy: OverflowPolicy = OverflowPolicy.DROP_OLDEST,
        clock=time.perf_counter,
    ) -> None:
        if batch_rows < 1:
            raise CampaignConfigError("batch_rows must be >= 1")
        if queue_depth < 1:
            raise CampaignConfigError("queue depth must be >= 1")
        self.model = model
        self.metrics = metrics
        self.batch_rows = batch_rows
        self.queue_depth = queue_depth
        self.policy = policy
        self.clock = clock
        #: Decision latencies in seconds, one float array per scored batch.
        self.latencies: list[np.ndarray] = []
        self._queued: _Rows | None = None  # every host queue, arrival order
        self._pending: deque[_Rows] = deque()
        self._pending_rows = 0
        # Label lookups hash the label set on every call, so each host's
        # children are resolved once, on the host's first submitted row,
        # into a row of slots (-1 until then) indexed by host; every
        # update after that addresses its family by slot.
        self._slots = np.full((0, len(_PER_HOST)), -1, dtype=np.intp)
        # Outcome children, resolved on their first non-zero count.
        self._outcomes: dict[tuple[str, str], object] = {}

    def _host_slots(self, hosts: np.ndarray) -> np.ndarray:
        """The slot rows of ``hosts`` (sorted), resolving new hosts' children."""
        table = self._slots
        if len(table) <= hosts[-1]:
            table = self._slots = np.vstack(
                [table, np.full((hosts[-1] + 1 - len(table), len(_PER_HOST)), -1)]
            )
        for host in hosts[table[hosts, 0] < 0].tolist():
            table[host] = [getattr(self.metrics, family).labels(host=host).slot
                           for family in _PER_HOST]
        return table[hosts]

    def _count(self, family, outcome: str, count: int) -> None:
        """Add a non-zero ``count`` to ``family``'s child for ``outcome``."""
        child = self._outcomes.get((family.name, outcome))
        if child is None:
            child = self._outcomes[family.name, outcome] = family.labels(
                outcome=outcome
            )
        child.inc(count)

    # -- ingestion -----------------------------------------------------------

    def submit(self, tick: FleetTick) -> None:
        """Enqueue a tick's rows, applying the overflow policy per host.

        The tick is stamped once, on arrival, and its rows' decision
        latencies count from that stamp.
        """
        n = len(tick)
        if not n:
            return
        stamp = self.clock()
        metrics = self.metrics
        tick_hosts, tick_sizes = np.unique(tick.host, return_counts=True)
        slots = self._host_slots(tick_hosts)
        metrics.rows_emitted.inc_at(slots[:, _EMITTED], tick_sizes)
        arrived = _Rows(tick.host, tick.features, tick.injected, np.full(n, stamp))
        queued = arrived if self._queued is None else _Rows.concat(
            [self._queued, arrived]
        )
        # Number each host's queued rows in arrival order; the overflow
        # rule takes the leading ones out of the queue.
        order = np.argsort(queued.host, kind="stable")
        hosts, sizes = np.unique(queued.host, return_counts=True)
        depth = self.queue_depth
        if self.policy is OverflowPolicy.BLOCK:
            leading = depth * ((sizes - 1) // depth)
        else:
            leading = np.maximum(sizes - depth, 0)
        if leading.any():
            starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
            rank = np.arange(len(queued)) - starts
            out = rank < np.repeat(leading, sizes)
            if self.policy is OverflowPolicy.BLOCK:
                # The producer blocked: each full queue reached the buffer
                # when its host's next row arrived, in arrival order.
                arrival = order[(starts + (rank // depth + 1) * depth)[out]]
                flushed = order[out][np.argsort(arrival, kind="stable")]
                self._append_pending(queued[flushed])
            else:
                dropping = leading > 0
                metrics.rows_dropped.inc_at(
                    self._slots[hosts[dropping], _DROPPED], leading[dropping]
                )
            queued = queued[np.sort(order[~out])]
        self._queued = queued
        left = (sizes - leading)[np.searchsorted(hosts, tick_hosts)]
        metrics.queue_depth.set_at(slots[:, _DEPTH], left)

    # -- draining ------------------------------------------------------------

    def _append_pending(self, rows: _Rows) -> None:
        self._pending.append(rows)
        self._pending_rows += len(rows)
        self.metrics.pending_rows.set(self._pending_rows)

    def _accept(self) -> None:
        """Move every queue's backlog into the pending buffer, hosts in
        sorted order."""
        queued, self._queued = self._queued, None
        if queued is None:
            return
        host = queued.host
        if (host[1:] < host[:-1]).any():
            queued = queued[np.argsort(host, kind="stable")]
        self.metrics.queue_depth.set_at(self._slots[np.unique(host), _DEPTH], 0)
        self._append_pending(queued)

    def pump(self) -> int:
        """One consumer cycle: accept all backlogs, score full batches."""
        self._accept()
        scored = 0
        while self._pending_rows >= self.batch_rows:
            scored += self._score(self._take_batch(self.batch_rows))
        return scored

    def drain(self) -> int:
        """Flush everything (end of stream / graceful shutdown)."""
        scored = self.pump()
        while self._pending_rows:
            scored += self._score(self._take_batch(self.batch_rows))
        return scored

    def queue_depths(self) -> dict[int, int]:
        counts = {}
        if self._queued is not None:
            hosts, sizes = np.unique(self._queued.host, return_counts=True)
            counts = dict(zip(hosts.tolist(), sizes.tolist()))
        seen = np.flatnonzero(self._slots[:, 0] >= 0).tolist()
        return {host: counts.get(host, 0) for host in seen}

    @property
    def pending(self) -> int:
        return self._pending_rows

    @property
    def totals(self) -> ScoreTotals:
        """The tallies so far, read off the metric children ``/metrics``
        exposes."""
        metrics = self.metrics
        dropped = _by_label(metrics.rows_dropped)
        outcomes = _by_label(metrics.detections)
        return ScoreTotals(
            rows_scored=sum(_by_label(metrics.rows_scored).values()),
            rows_dropped=sum(dropped.values()),
            batches=sum(child.value for _, child in metrics.batches.children()),
            dropped_by_host={int(host): n for host, n in dropped.items() if n},
            **{outcome: outcomes.get(outcome, 0) for outcome in OUTCOMES},
        )

    def _take_batch(self, n: int) -> _Rows:
        """Pop the next ``n`` pending rows (fewer at the end of the buffer)."""
        pending = self._pending
        chunks = []
        while n and pending:
            head = pending[0]
            if len(head) <= n:
                chunks.append(pending.popleft())
                n -= len(head)
            else:
                chunks.append(head[:n])
                pending[0] = head[n:]
                n = 0
        batch = _Rows.concat(chunks)
        self._pending_rows -= len(batch)
        self.metrics.pending_rows.set(self._pending_rows)
        return batch

    def _score(self, batch: _Rows) -> int:
        n = len(batch)
        flagged = np.asarray(self.model.predict_batch(batch.features)) == INCORRECT
        now = self.clock()
        injected = batch.injected
        true_positive = int(np.count_nonzero(flagged & injected))
        false_positive = int(np.count_nonzero(flagged)) - true_positive
        false_negative = int(np.count_nonzero(injected)) - true_positive
        true_negative = n - true_positive - false_positive - false_negative
        metrics = self.metrics
        counts = (true_positive, false_positive, true_negative, false_negative)
        for outcome, count in zip(OUTCOMES, counts):
            if count:
                self._count(metrics.detections, outcome, count)
        # Every positive detection dispatches the recovery path: a true
        # positive restores-and-re-executes ("recovered"), a false positive
        # pays the same cost for nothing ("spurious").
        if true_positive:
            self._count(metrics.recoveries, "recovered", true_positive)
        if false_positive:
            self._count(metrics.recoveries, "spurious", false_positive)
        latency = np.maximum(0.0, now - batch.emitted_at)
        self.latencies.append(latency)
        hosts, group = np.unique(batch.host, return_inverse=True)
        slots = self._slots[hosts]
        metrics.rows_scored.inc_at(slots[:, _SCORED], np.bincount(group))
        metrics.decision_latency.observe_grouped(slots[:, _LATENCY], group, latency)
        metrics.batches.inc()
        return n
