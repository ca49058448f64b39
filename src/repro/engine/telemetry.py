"""Structured campaign telemetry: events, throughput, ETA, run manifest.

The engine narrates a run as a stream of typed events.  Consumers attach
callbacks (``telemetry.subscribe``) — a progress line on stderr, a test
capturing the sequence, a dashboard exporter — while the telemetry object
itself aggregates everything needed for observability: per-outcome counters,
trials/sec throughput, an ETA, and a machine-readable *run manifest* that can
be written next to the journal for post-hoc tooling.

What the run's shard attempts counted arrives as one
:func:`repro.metrics.counted` difference per kept attempt, folded into the
run's own :class:`~repro.metrics.CampaignCounters`; the manifest's
``machine`` and ``golden_cache`` sections render from it.  The outcome
counters stay derived from the records, so "trials counted = records
written" compares two independent sources.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.faults.outcomes import TrialRecord
from repro.metrics import CampaignCounters, Counts

__all__ = [
    "CampaignFinished",
    "CampaignStarted",
    "EngineTelemetry",
    "ProgressSnapshot",
    "ShardFailed",
    "ShardFinished",
    "ShardQuarantined",
    "ShardRetried",
    "ShardStarted",
    "WorkerCrashed",
    "stderr_progress",
]

MANIFEST_FORMAT = "xentry-manifest-v1"


@dataclass(frozen=True)
class CampaignStarted:
    """Emitted once before any shard runs."""

    total_trials: int
    n_shards: int
    jobs: int
    #: Shards already satisfied from the journal on a resumed run.
    resumed_shards: int = 0


@dataclass(frozen=True)
class ShardStarted:
    """A shard was handed to a worker."""

    shard: int
    n_trials: int


@dataclass(frozen=True)
class ShardFinished:
    """A shard's records are durable (journalled when a journal is attached)."""

    shard: int
    n_trials: int
    elapsed: float
    #: True when the shard was satisfied from the journal instead of re-run.
    resumed: bool = False


@dataclass(frozen=True)
class ShardFailed:
    """One shard attempt failed (exception, timeout, lost worker, journal)."""

    shard: int
    #: 0-based attempt number that failed.
    attempt: int
    #: ``"exception" | "timeout" | "worker_lost" | "journal"``.
    kind: str
    error: str


@dataclass(frozen=True)
class ShardRetried:
    """A failed shard was re-enqueued after its backoff delay."""

    shard: int
    #: 0-based attempt number about to run.
    attempt: int
    #: Seeded, deterministic backoff delay (seconds) before the attempt.
    delay: float
    #: Failure kind of the attempt being retried.
    kind: str


@dataclass(frozen=True)
class WorkerCrashed:
    """The process pool lost workers; every in-flight shard was re-enqueued."""

    #: Shards whose in-flight execution was lost with the pool.
    shards: tuple[int, ...]
    #: ``"broken_pool"`` (worker died) or ``"watchdog_timeout"`` (hang).
    kind: str


@dataclass(frozen=True)
class ShardQuarantined:
    """A shard exhausted its retry budget; the campaign completes degraded."""

    shard: int
    #: Total attempts consumed (retry budget + 1).
    attempts: int
    #: Failure kind of the final attempt.
    kind: str
    error: str


@dataclass(frozen=True)
class CampaignFinished:
    """Emitted after the merge; the run's headline numbers."""

    total_trials: int
    executed_trials: int
    elapsed: float
    trials_per_sec: float
    #: Shards that exhausted their retry budget (0 on a clean run).
    quarantined: int = 0


@dataclass(frozen=True)
class ProgressSnapshot:
    """Point-in-time view of a running campaign."""

    done_trials: int
    total_trials: int
    done_shards: int
    n_shards: int
    elapsed: float
    trials_per_sec: float
    eta_seconds: float | None

    def line(self) -> str:
        """Render the one-line human progress string."""
        eta = f", eta {self.eta_seconds:4.0f}s" if self.eta_seconds is not None else ""
        return (
            f"[engine] {self.done_trials}/{self.total_trials} trials "
            f"({self.done_shards}/{self.n_shards} shards, "
            f"{self.trials_per_sec:7.1f} trials/s{eta})"
        )


Event = (
    CampaignStarted
    | ShardStarted
    | ShardFinished
    | ShardFailed
    | ShardRetried
    | WorkerCrashed
    | ShardQuarantined
    | CampaignFinished
)


class EngineTelemetry:
    """Aggregates engine events into counters, throughput and a manifest.

    ``clock`` is injectable so tests can assert on throughput and ETA
    without real sleeps.
    """

    def __init__(self, *, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._callbacks: list[Callable[[Event], None]] = []
        self._start: float | None = None
        self.total_trials = 0
        self.n_shards = 0
        self.jobs = 1
        self.done_trials = 0
        self.executed_trials = 0
        self.done_shards = 0
        self.detected_by: Counter[str] = Counter()
        self.failure_class: Counter[str] = Counter()
        #: Fault-class mix of the trial stream ("register", "multibit",
        #: "burst", "memory") — the scenario layer's coverage denominators.
        self.fault_classes: Counter[str] = Counter()
        #: Recovery-campaign counters: settling action per detected trial
        #: ("reexecute", "microreboot", "quarantine_vm", "unrecoverable")
        #: and per-policy totals; empty on detection-only runs.
        self.recovery_actions: Counter[str] = Counter()
        self.recovery_policies: Counter[str] = Counter()
        self.recovered_trials = 0
        self.recovery_downtime = 0
        self.recovery_divergent = 0
        #: Class balance of journalled training samples (sample streams only).
        self.label_counts: Counter[str] = Counter()
        self.shard_log: list[ShardFinished] = []
        self.retries = 0
        self.worker_crashes = 0
        self.failed_attempts: list[ShardFailed] = []
        self.quarantined: list[ShardQuarantined] = []
        #: What this run's kept shard attempts counted, whichever process
        #: ran them, plus the coordinator's translation adoptions.
        self.counters = CampaignCounters()

    # -- event plumbing ------------------------------------------------------

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        """Register a callback invoked for every emitted event."""
        self._callbacks.append(callback)

    def emit(self, event: Event) -> None:
        """Fold ``event`` into the aggregates, then fan out to subscribers."""
        if isinstance(event, CampaignStarted):
            self._start = self._clock()
            self.total_trials = event.total_trials
            self.n_shards = event.n_shards
            self.jobs = event.jobs
        elif isinstance(event, ShardFinished):
            self.done_shards += 1
            self.done_trials += event.n_trials
            if not event.resumed:
                self.executed_trials += event.n_trials
            self.shard_log.append(event)
        elif isinstance(event, ShardFailed):
            self.failed_attempts.append(event)
        elif isinstance(event, ShardRetried):
            self.retries += 1
        elif isinstance(event, WorkerCrashed):
            self.worker_crashes += 1
        elif isinstance(event, ShardQuarantined):
            self.quarantined.append(event)
        for callback in self._callbacks:
            callback(event)

    def record_outcomes(self, records: Iterable) -> None:
        """Fold per-item outcome counters.

        Campaign trials feed the detection-technique and consequence
        counters; training samples — ``(features, label)`` pairs from a
        sample stream — feed the class-balance counter instead.
        """
        for record in records:
            if isinstance(record, TrialRecord):
                self.detected_by[record.detected_by.value] += 1
                self.failure_class[record.failure_class.value] += 1
                self.fault_classes[record.fault_class] += 1
                if record.recovery is not None:
                    rec = record.recovery
                    self.recovery_actions[rec.action] += 1
                    self.recovery_policies[rec.policy] += 1
                    if rec.recovered:
                        self.recovered_trials += 1
                    self.recovery_downtime += rec.downtime_instructions
                    if not rec.clean:
                        self.recovery_divergent += 1
            else:
                _features, label = record
                self.label_counts["incorrect" if label else "correct"] += 1

    def record_counts(self, counts: Counts) -> None:
        """Fold what one kept shard attempt counted into the run's totals.

        Failed attempts ship nothing and resumed shards run nothing, so the
        totals are exact for this run under any ``--jobs``.
        """
        self.counters.registry.fold(counts)

    def record_artifact_stats(self, stats: dict) -> None:
        """Receive the stats dict a shard executor returns beside its items."""
        # Nothing to fold: record_counts already has the attempt's counts.
        # Kept for perfbench, whose TracingTelemetry overrides it to unpack
        # worker traces riding on that dict (perfbench/spans.py).

    @property
    def artifact_stats(self) -> dict:
        """The run's golden-cache counters."""
        # A view for perfbench/workloads.py, its only reader, which checks
        # golden_hits and golden_capture_seconds after every campaign pass.
        return self.counters.golden_cache()

    # -- derived views -------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds since :class:`CampaignStarted`."""
        if self._start is None:
            return 0.0
        return self._clock() - self._start

    def snapshot(self) -> ProgressSnapshot:
        """Current progress, throughput and ETA."""
        elapsed = self.elapsed
        # Throughput counts only trials actually executed this run, so a
        # resume that instantly satisfies 90% of the campaign from the
        # journal does not report a fantasy trials/sec.
        rate = self.executed_trials / elapsed if elapsed > 0 else 0.0
        remaining = self.total_trials - self.done_trials
        eta = remaining / rate if rate > 0 else None
        return ProgressSnapshot(
            done_trials=self.done_trials,
            total_trials=self.total_trials,
            done_shards=self.done_shards,
            n_shards=self.n_shards,
            elapsed=elapsed,
            trials_per_sec=rate,
            eta_seconds=eta,
        )

    def manifest(self) -> dict:
        """Machine-readable run summary (the observability artifact)."""
        snap = self.snapshot()
        return {
            "format": MANIFEST_FORMAT,
            "total_trials": self.total_trials,
            "done_trials": self.done_trials,
            "executed_trials": self.executed_trials,
            "n_shards": self.n_shards,
            "done_shards": self.done_shards,
            "jobs": self.jobs,
            "elapsed_seconds": snap.elapsed,
            "trials_per_sec": snap.trials_per_sec,
            "outcomes": {
                "detected_by": dict(self.detected_by),
                "failure_class": dict(self.failure_class),
                "fault_classes": dict(self.fault_classes),
                "labels": dict(self.label_counts),
            },
            "recovery": {
                "trials": sum(self.recovery_actions.values()),
                "recovered": self.recovered_trials,
                "divergent": self.recovery_divergent,
                "downtime_instructions": self.recovery_downtime,
                "actions": dict(self.recovery_actions),
                "policies": dict(self.recovery_policies),
            },
            "failures": {
                "retries": self.retries,
                "worker_crashes": self.worker_crashes,
                "failed_attempts": [
                    {"shard": e.shard, "attempt": e.attempt,
                     "kind": e.kind, "error": e.error}
                    for e in self.failed_attempts
                ],
                "quarantined": [
                    {"shard": e.shard, "attempts": e.attempts,
                     "kind": e.kind, "error": e.error}
                    for e in self.quarantined
                ],
            },
            "machine": self.counters.machine(),
            "golden_cache": self.counters.golden_cache(),
            "shards": [
                {
                    "shard": s.shard,
                    "n_trials": s.n_trials,
                    "elapsed_seconds": s.elapsed,
                    "resumed": s.resumed,
                }
                for s in self.shard_log
            ],
        }

    def write_manifest(self, path: str | Path) -> None:
        """Write :meth:`manifest` as JSON."""
        Path(path).write_text(json.dumps(self.manifest(), indent=1))


def stderr_progress(telemetry: EngineTelemetry, *, stream=None) -> Callable[[Event], None]:
    """Subscriber that keeps a single ``\\r``-rewritten progress line on stderr."""
    out = stream if stream is not None else sys.stderr

    def _callback(event: Event) -> None:
        if isinstance(event, (ShardStarted, ShardFinished)):
            out.write("\r" + telemetry.snapshot().line())
            out.flush()
        elif isinstance(event, ShardRetried):
            out.write(
                f"\n[engine] shard {event.shard} retry (attempt {event.attempt}, "
                f"{event.kind}, backoff {event.delay:.2f}s)\n"
            )
            out.flush()
        elif isinstance(event, WorkerCrashed):
            shards = ", ".join(map(str, event.shards))
            out.write(
                f"\n[engine] worker crash ({event.kind}): "
                f"re-enqueued shards {shards}\n"
            )
            out.flush()
        elif isinstance(event, ShardQuarantined):
            out.write(
                f"\n[engine] shard {event.shard} QUARANTINED after "
                f"{event.attempts} attempts: {event.error}\n"
            )
            out.flush()
        elif isinstance(event, CampaignFinished):
            note = (
                f", {event.quarantined} shards quarantined"
                if event.quarantined else ""
            )
            out.write(
                f"\r[engine] done: {event.executed_trials} trials executed "
                f"({event.total_trials} total) in {event.elapsed:.1f}s "
                f"({event.trials_per_sec:.1f} trials/s){note}\n"
            )
            out.flush()

    return _callback
