"""The detection daemon: tick loop over the fleet, scored in micro-batches.

One run is a synchronous tick loop — deterministic by construction:

1. every host emits its tick's rows (seeded per-host streams, host order
   fixed) as one columnar :class:`~repro.service.fleet.FleetTick`, which is
   submitted to the scorer's bounded queues and stamped once on arrival;
2. the scorer accepts the queues into its pending buffer and scores every
   full micro-batch through ``classify_batch``;
3. at end of stream (row cap reached, duration elapsed, or SIGINT) the
   queues are drained to empty, final gauges are published, and only then
   does the scrape endpoint shut down.

Wall-clock never influences *what* is scored — only the stop condition in
``--duration`` mode and the latency histogram — so fixed-seed, row-capped
runs produce bit-identical :class:`~repro.service.scorer.ScoreTotals`
regardless of batch size, queue policy timing, or host machine.  Every
service owns one :class:`~repro.service.metrics.ServiceMetrics` registry:
the report, ``--summary``, ``/healthz`` and ``/metrics`` all read it.
"""

from __future__ import annotations

import contextlib
import json
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis.stats import Cdf
from repro.errors import CampaignConfigError
from repro.service.fleet import FleetConfig, FleetSimulator
from repro.service.http import MetricsServer
from repro.service.metrics import ServiceMetrics
from repro.service.scorer import MicroBatchScorer, OverflowPolicy, ScoreTotals

__all__ = ["DetectionService", "ServiceConfig", "ServiceReport"]

SUMMARY_FORMAT = "xentry-serve-summary-v1"


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one ``repro-xentry serve`` run needs."""

    fleet: FleetConfig = field(default_factory=FleetConfig)
    batch_rows: int = 256
    queue_depth: int = 1024
    policy: OverflowPolicy = OverflowPolicy.DROP_OLDEST
    max_rows: int | None = 50_000
    duration: float | None = None

    def __post_init__(self) -> None:
        if self.max_rows is None and self.duration is None:
            raise CampaignConfigError("need a stop condition: max_rows or duration")
        if self.max_rows is not None and self.max_rows < 1:
            raise CampaignConfigError("max_rows must be >= 1")


@dataclass(frozen=True)
class ServiceReport:
    """End-of-run summary: deterministic totals + wall-clock performance."""

    totals: ScoreTotals
    rows_emitted: int
    rows_injected: int
    ticks: int
    elapsed_seconds: float
    latency_percentiles: dict[str, float]  # p50/p95/p99, seconds

    @property
    def rows_per_sec(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.totals.rows_scored / self.elapsed_seconds

    def deterministic_dict(self) -> dict:
        """The batch-size-invariant half (what the contract is diffed on)."""
        return {
            "format": SUMMARY_FORMAT,
            "rows_emitted": self.rows_emitted,
            "rows_injected": self.rows_injected,
            "ticks": self.ticks,
            "totals": self.totals.as_dict(),
        }

    def as_dict(self) -> dict:
        return {
            **self.deterministic_dict(),
            "elapsed_seconds": self.elapsed_seconds,
            "rows_per_sec": self.rows_per_sec,
            "latency_percentiles": self.latency_percentiles,
        }

    def summary(self) -> str:
        t = self.totals
        pct = self.latency_percentiles
        lines = [
            f"scored {t.rows_scored:,} rows in {t.batches:,} batches "
            f"({self.rows_per_sec:,.0f} rows/s, {self.ticks:,} ticks)",
            f"detections: {t.detections:,} "
            f"(TP {t.true_positive:,}  FP {t.false_positive:,}  "
            f"FN {t.false_negative:,}  TN {t.true_negative:,})",
            f"backpressure: {t.rows_dropped:,} rows dropped",
        ]
        if pct:
            lines.append(
                "decision latency: "
                f"p50 {pct['p50'] * 1e3:.2f} ms  "
                f"p95 {pct['p95'] * 1e3:.2f} ms  "
                f"p99 {pct['p99'] * 1e3:.2f} ms"
            )
        return "\n".join(lines)


class DetectionService:
    """Run a fleet's row stream through a detector, observably.

    ``model`` needs ``predict_batch(X) -> labels`` (a ``CompiledRules``, a
    loaded ``ModelArtifact``, or a forest).  ``metrics`` is the service's
    registry, which a test or an embedding process can assert on directly.
    """

    def __init__(self, config: ServiceConfig, model) -> None:
        self.config = config
        self.metrics = ServiceMetrics()
        self.fleet = FleetSimulator(config.fleet)
        self.scorer = MicroBatchScorer(
            model,
            self.metrics,
            batch_rows=config.batch_rows,
            queue_depth=config.queue_depth,
            policy=config.policy,
        )
        self._stop = False
        self._report: ServiceReport | None = None

    # -- lifecycle -----------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the run loop to finish the current tick, then drain."""
        self._stop = True

    def health(self) -> dict:
        """The ``/healthz`` document.

        ``status`` flips to ``degraded`` the moment any scored row is a
        positive detection — the fleet is still serving, but something
        tripped the detector and recoveries are being dispatched.
        """
        totals = self.scorer.totals
        return {
            "status": "degraded" if totals.detections else "ok",
            "hosts": self.config.fleet.hosts,
            "detections": totals.detections,
            "rows_emitted": self.fleet.emitted,
            "rows_scored": totals.rows_scored,
            "rows_dropped": totals.rows_dropped,
            "draining": self._stop,
            "done": self._report is not None,
        }

    def run(self, *, progress=None) -> ServiceReport:
        """Tick until the stop condition, drain, and summarize.

        Ctrl-C (``SIGINT``) is a stop request while the loop runs in the
        main thread: the current tick finishes, the queues drain, and the
        report covers every tick that ran.  A ``KeyboardInterrupt`` raised
        between ticks (from ``progress``) stops the loop the same way.
        """
        config = self.config
        self.metrics.hosts_up.set(config.fleet.hosts)
        started = time.perf_counter()
        deadline = (
            started + config.duration if config.duration is not None else None
        )
        ticks = 0
        with self._sigint_stops():
            try:
                while not self._stop:
                    if (config.max_rows is not None
                            and self.fleet.emitted >= config.max_rows):
                        break
                    if deadline is not None and time.perf_counter() >= deadline:
                        break
                    self.scorer.submit(self.fleet.next_tick(config.max_rows))
                    self.scorer.pump()
                    ticks += 1
                    if progress is not None and ticks % 256 == 0:
                        progress(self.fleet.emitted, self.scorer.totals.rows_scored)
            except KeyboardInterrupt:
                self._stop = True
            self.scorer.drain()
        elapsed = time.perf_counter() - started
        self._report = ServiceReport(
            totals=self.scorer.totals,
            rows_emitted=self.fleet.emitted,
            rows_injected=self.fleet.injected,
            ticks=ticks,
            elapsed_seconds=elapsed,
            latency_percentiles=self.latency_percentiles(),
        )
        return self._report

    @contextlib.contextmanager
    def _sigint_stops(self):
        """Route SIGINT to :meth:`request_stop` (signals reach the main
        thread only, and a handler Python did not install cannot be put
        back, so either way this leaves SIGINT alone)."""
        previous = signal.getsignal(signal.SIGINT)
        if previous is None or threading.current_thread() is not threading.main_thread():
            yield
            return
        signal.signal(signal.SIGINT, lambda *_: self.request_stop())
        try:
            yield
        finally:
            signal.signal(signal.SIGINT, previous)

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 decision latency via the analysis-layer CDF."""
        if not self.scorer.latencies:
            return {}
        cdf = Cdf.from_samples(np.concatenate(self.scorer.latencies))
        return {
            "p50": cdf.percentile(0.50),
            "p95": cdf.percentile(0.95),
            "p99": cdf.percentile(0.99),
        }

    def endpoint(self, *, port: int = 0) -> MetricsServer:
        """A scrape endpoint bound to this service's registry and health."""
        return MetricsServer(self.metrics.registry, port=port, health=self.health)

    def write_summary(self, path: str | Path) -> None:
        """Persist the deterministic half of the report (contract diffing)."""
        if self._report is None:
            raise CampaignConfigError("service has not run yet")
        Path(path).write_text(
            json.dumps(self._report.deterministic_dict(), indent=1)
        )
