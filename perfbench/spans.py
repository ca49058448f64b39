"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the program where their callers look
them up (a module global or a class attribute), so nothing in ``src/`` has to
know it exists.  Every call of a wrapped function becomes one span
``[name, start, end, parent, pass_id]`` in an in-memory list; ``parent`` is
the index of the enclosing span in the same list (-1 at a root).

Campaign-engine pool workers are forked while the wrappers are installed, so
they inherit them.  A worker keeps its own span list and, when each shard
finishes, ships that list plus its ledger deltas back to the coordinator on
the shard's own result (``TracedStats``), which the coordinator's
``TracingTelemetry`` unpacks.  Layer times are self times: a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

from repro.artifacts import runtime as artifacts_runtime
from repro.engine import EngineTelemetry, ShardStarted
from repro.machine import lockstep
from repro.machine.translator import CACHE

perf_counter = time.perf_counter

#: Spans whose self time belongs to the nearest enclosing non-transparent
#: span: they are timed only for the machine layer's execute time and call
#: counts.  Under ``capture_golden`` they are the golden run's own layers.
TRANSPARENT = {"execute", "execute_with_ladder", "resume_execution"}
UNDER_CAPTURE = {
    "execute": "faults.golden_followups_s",
    "execute_with_ladder": "faults.ladder_capture_s",
}

#: Span name -> per-layer time metric its self time is charged to.
LAYER_OF = {
    "pass": "unattributed_s",
    "capture_golden": "faults.golden_capture_s",
    "trace_plan": "faults.twin_plan_s",
    "run_twin_batch": "faults.twin_classify_s",
    "run_spec_trial": "faults.peeled_trial_s",
    "_run_followups": "faults.trial_followups_s",
    "compute_divergence": "faults.divergence_s",
    "run_benchmark_groups": "faults.group_loop_s",
    "restore": "hypervisor.restore_s",
    "restore_machine": "hypervisor.restore_s",
    "acquire": "artifacts.acquire_s",
    "offer": "artifacts.offer_s",
    "prepare": "artifacts.publish_s",
    "warm_worker": "engine.worker_init_s",
    "execute_shard": "engine.shard_setup_s",
    "append_shard": "engine.journal_s",
    "CampaignEngine.run": "engine.coordinator_s",
    "flags_incorrect": "xentry.detector_s",
    "recover": "xentry.recovery_s",
    "sample_trial": "scenarios.sample_s",
    "next_tick": "service.emit_s",
    "submit": "service.submit_s",
    "pump": "service.score_s",
    "drain": "service.score_s",
    "DetectionService.run": "service.loop_s",
    "classify_batch": "ml.classify_batch_s",
}


class TraceError(AssertionError):
    """A conservation law of the traced run does not hold."""


def ledger_snapshot() -> dict[str, int]:
    """The process-wide ledgers the program keeps, flattened."""
    cache = CACHE.stats()
    twins = lockstep.stats()
    cached = artifacts_runtime.stats()
    return {
        "machine.instructions": (
            cache["translated_instructions"] + cache["interpreted_instructions"]
        ),
        "machine.translated": cache["translated_instructions"],
        "machine.blocks_compiled": cache["blocks_compiled"],
        "twins": twins["twins"],
        "faults.dead_twins": twins["dead_twins"],
        "faults.peeled_trials": twins["peeled_twins"],
        "golden_hits": cached["golden_hits"],
        "golden_misses": cached["golden_misses"],
        "artifacts.shm_hits": cached["shm_hits"],
        "artifacts.bytes_loaded": cached["artifact_bytes_loaded"],
        "artifacts.bytes_written": cached["artifact_bytes_written"],
    }


def _ff_snapshot(hv) -> dict[str, int]:
    stats = hv.ff_stats
    return {
        "faults.trials": stats["trials"],
        "machine.instructions_skipped": stats["instructions_skipped"],
        "machine.proved_hangs": stats.get("proved_hangs", 0),
    }


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


class TracedStats(dict):
    """A shard's artifact-stats delta that also carries the worker's trace."""

    trace = None


class Tracer:
    """In-memory spans and ledger deltas for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id = -1
        self.in_worker = False
        #: pass_id -> summed ledger deltas (coordinator and shipped workers).
        self.ledgers: dict[int, Counter] = defaultdict(Counter)
        #: Shipped worker chunks: (pid, spans), spans indexed within the chunk.
        self.worker_chunks: list[tuple[int, list[list]]] = []
        #: pass_id -> perf_counter of the first shard handed to the pool.
        self.first_submit: dict[int, float] = {}
        self._patches: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._stack = []
        self.ledgers = defaultdict(Counter)
        self.worker_chunks = []
        self.in_worker = True

    # -- recording -------------------------------------------------------------

    def open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def tally(self, counts: dict) -> None:
        self.ledgers[self.pass_id].update(counts)

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``hook(args, kwargs)`` runs before the call and may return a function
        that receives (and returns) the result after the span has closed.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            after = hook(args, kwargs) if hook is not None else None
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            return after(result) if after is not None else result

        # Keeps the original's module and qualified name, so a wrapped
        # module-level function still pickles by reference into pool workers.
        functools.update_wrapper(traced, original)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- hooks -----------------------------------------------------------------

    def _count_rows(self, args, kwargs):
        self.tally({"ml.rows_classified": len(args[1])})

    def _ff_hook(self, args, kwargs):
        hv = kwargs["hv"]
        before = _ff_snapshot(hv)

        def after(result):
            self.tally(_delta(_ff_snapshot(hv), before))
            return result
        return after

    def _root_hook(self, ship: bool):
        """Ledger deltas around a worker-side root (shard or initializer)."""
        def hook(args, kwargs):
            before = ledger_snapshot()

            def after(result):
                if not self.in_worker:
                    return result  # inline: the pass-level snapshot counts it
                self.tally(_delta(ledger_snapshot(), before))
                if ship:
                    trials, stats = result
                    stats = TracedStats(stats)
                    stats.trace = (os.getpid(), self.spans, dict(self.ledgers))
                    self.spans = []
                    self.ledgers = defaultdict(Counter)
                    return trials, stats
                return result
            return after
        return hook

    def absorb(self, payload) -> None:
        """Fold one shipped worker trace into the coordinator's record."""
        pid, spans, ledgers = payload
        self.worker_chunks.append((pid, spans))
        for pass_id, counts in ledgers.items():
            self.ledgers[pass_id].update(counts)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced layer boundary (see LAYER_OF)."""
        from repro.artifacts.runtime import GoldenSource
        from repro.artifacts.shm import SegmentPublisher
        from repro.engine import journal, pool
        from repro.faults import campaign, injector
        from repro.hypervisor.xen import XenHypervisor
        from repro.ml.export import CompiledRules
        from repro.scenarios.spec import Scenario
        from repro.service.daemon import DetectionService
        from repro.service.fleet import FleetSimulator
        from repro.service.scorer import MicroBatchScorer
        from repro.xentry.recovery_policy import RecoveryExecutor
        from repro.xentry.transition import VMTransitionDetector

        for module in (campaign, injector):
            self.wrap(module, "trace_plan", "trace_plan")
            self.wrap(module, "run_spec_trial", "run_spec_trial")
        self.wrap(campaign, "capture_golden", "capture_golden")
        self.wrap(campaign, "run_twin_batch", "run_twin_batch")
        self.wrap(injector, "compute_divergence", "compute_divergence")
        self.wrap(injector, "_run_followups", "_run_followups")
        for module in (campaign, pool):
            self.wrap(module, "run_benchmark_groups", "run_benchmark_groups",
                      self._ff_hook)
        self.wrap(pool, "execute_shard", "execute_shard", self._root_hook(True))
        self.wrap(pool, "warm_worker", "warm_worker", self._root_hook(False))
        self.wrap(pool.CampaignEngine, "run", "CampaignEngine.run")
        self.wrap(journal.TrialJournal, "append_shard", "append_shard")
        self.wrap(GoldenSource, "acquire", "acquire")
        self.wrap(GoldenSource, "offer", "offer")
        self.wrap(SegmentPublisher, "prepare", "prepare")
        for method in TRANSPARENT | {"restore", "restore_machine"}:
            self.wrap(XenHypervisor, method, method)
        self.wrap(VMTransitionDetector, "flags_incorrect", "flags_incorrect")
        self.wrap(RecoveryExecutor, "recover", "recover")
        self.wrap(Scenario, "sample_trial", "sample_trial")
        self.wrap(FleetSimulator, "next_tick", "next_tick")
        for method in ("submit", "pump", "drain"):
            self.wrap(MicroBatchScorer, method, method)
        self.wrap(DetectionService, "run", "DetectionService.run")
        self.wrap(CompiledRules, "classify_batch", "classify_batch",
                  self._count_rows)


class TracingTelemetry(EngineTelemetry):
    """Engine telemetry that unpacks worker traces riding on shard results."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer
        self.subscribe(self._on_event)

    def _on_event(self, event) -> None:
        if isinstance(event, ShardStarted):
            self._tracer.first_submit.setdefault(self._tracer.pass_id, perf_counter())

    def record_artifact_stats(self, stats) -> None:
        payload = getattr(stats, "trace", None)
        if payload is not None:
            self._tracer.absorb(payload)
        super().record_artifact_stats(stats)


# -- analysis ------------------------------------------------------------------


def _self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _layer(spans: list[list], index: int) -> str:
    name = spans[index][0]
    if name not in TRANSPARENT:
        return LAYER_OF[name]
    parent = spans[index][3]
    if parent >= 0 and spans[parent][0] == "capture_golden":
        return UNDER_CAPTURE.get(name, "faults.golden_capture_s")
    while parent >= 0 and spans[parent][0] in TRANSPARENT:
        parent = spans[parent][3]
    return LAYER_OF[spans[parent][0]] if parent >= 0 else "unattributed_s"


def _fold(spans, pass_id, times: Counter, calls: Counter, *, tol: float) -> float:
    """Charge the self times of ``pass_id``'s spans to layers; return their sum."""
    own = _self_times(spans)
    total = 0.0
    for index, span in enumerate(spans):
        if span[4] != pass_id:
            continue
        if own[index] < -tol:
            raise TraceError(
                f"span {span[0]} has negative self time {own[index]:.3g}s: "
                "its children escape it"
            )
        times[_layer(spans, index)] += own[index]
        calls[span[0]] += 1
        if span[0] in TRANSPARENT:
            times["execute_total"] += span[2] - span[1]
        total += own[index]
    return total


def pass_layers(tracer: Tracer, pass_id: int, *, jobs: int, records: int,
                groups: int, cached: bool) -> dict[str, float]:
    """Per-layer metrics of one traced pass, with its conservation checks.

    Coordinator spans must add up to the pass wall time, worker spans to the
    workers' root spans; trials counted must equal records returned, and
    goldens captured plus goldens served from the store must equal the
    campaign's golden groups.
    """
    tol = 1e-6

    def slack(n: int) -> float:
        # Float rounding of n perf_counter differences; the sums are
        # algebraically equal when every span nests inside its parent.
        return tol + 1e-9 * n

    times: Counter = Counter()
    calls: Counter = Counter()
    root = next(s for s in tracer.spans if s[0] == "pass" and s[4] == pass_id)
    wall = root[2] - root[1]
    coordinator = _fold(tracer.spans, pass_id, times, calls, tol=tol)
    if abs(coordinator - wall) > slack(len(tracer.spans)):
        raise TraceError(f"coordinator self times {coordinator:.6f}s != wall {wall:.6f}s")
    shards: list[float] = []
    worker_s = 0.0
    first_root: dict[int, float] = {}
    for pid, spans in tracer.worker_chunks:
        roots = [s for s in spans if s[3] == -1 and s[4] == pass_id]
        if not roots:
            continue
        worker = _fold(spans, pass_id, times, calls, tol=tol)
        root_total = sum(s[2] - s[1] for s in roots)
        if abs(worker - root_total) > slack(len(spans)):
            raise TraceError(f"worker {pid} self times {worker:.6f}s != roots {root_total:.6f}s")
        shards += [s[2] - s[1] for s in roots if s[0] == "execute_shard"]
        worker_s += root_total
        first_root[pid] = min([first_root.get(pid, roots[0][1])] + [s[1] for s in roots])
    submitted = tracer.first_submit.get(pass_id)
    if submitted is not None:
        # Pool start: from the first shard handed to the pool until each
        # worker began its first root span (its pre-warm, when it runs, is
        # charged to the same metric as a span of its own).
        pool_start = sum(max(0.0, t - submitted) for t in first_root.values())
        times["engine.worker_init_s"] += pool_start
        worker_s += pool_start
    ledger = tracer.ledgers[pass_id]
    if ledger["faults.trials"] != records:
        raise TraceError(f"trials counted {ledger['faults.trials']} != records {records}")
    hits, misses = ledger["golden_hits"], ledger["golden_misses"]
    if calls["capture_golden"] + hits != groups:
        raise TraceError(
            f"goldens captured {calls['capture_golden']} + served {hits} != groups {groups}"
        )
    if cached and hits + misses != groups:
        raise TraceError(f"golden hits {hits} + misses {misses} != groups {groups}")
    metrics = {name: times[name] for name in {*LAYER_OF.values(), *UNDER_CAPTURE.values()}}
    metrics.update({
        "pass_s": wall,
        "worker_s": worker_s,
        "engine.shard_busy_s": sum(shards),
        "faults.trials": ledger["faults.trials"],
        "faults.dead_twins": ledger["faults.dead_twins"],
        "faults.peeled_trials": ledger["faults.peeled_trials"],
        "twins": ledger["twins"],
        "machine.instructions": ledger["machine.instructions"],
        "machine.translated": ledger["machine.translated"],
        "machine.blocks_compiled": ledger["machine.blocks_compiled"],
        "machine.instructions_skipped": ledger["machine.instructions_skipped"],
        "machine.proved_hangs": ledger["machine.proved_hangs"],
        "execute_total_s": times["execute_total"],
        "hypervisor.executions": sum(calls[n] for n in TRANSPARENT),
        "hypervisor.restores": calls["restore"] + calls["restore_machine"],
        "artifacts.bytes_written": ledger["artifacts.bytes_written"],
        "artifacts.bytes_loaded": ledger["artifacts.bytes_loaded"],
        "artifacts.shm_hits": ledger["artifacts.shm_hits"],
        "golden_hits": hits,
        "golden_consulted": hits + misses,
        "engine.busy_capacity_s": jobs * wall if shards else 0.0,
        "engine.shard_skew": max(shards) / (sum(shards) / len(shards)) if shards else 0.0,
        "xentry.detector_calls": calls["flags_incorrect"],
        "xentry.recoveries": calls["recover"],
        "recovered": 0,
        "recovery_records": 0,
        "ml.rows_classified": ledger["ml.rows_classified"],
    })
    return metrics
