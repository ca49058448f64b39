"""Shard supervision: retry, backoff, watchdog, pool recovery, quarantine.

Xentry's premise is that long-running system software must survive faults in
its substrate; this module applies the same discipline to the campaign
engine itself.  Where the original ``_run_pool`` aborted the whole campaign
on the first worker failure, the :class:`ShardSupervisor` detects, retries
and quarantines:

* **Retry with seeded backoff** — a failed shard attempt is re-enqueued
  after an exponential backoff whose jitter is drawn deterministically from
  ``(seed, shard, attempt)`` (:meth:`RetryPolicy.delay`), so a chaos test
  replays the exact same schedule.
* **Watchdog timeouts** (pool mode) — a shard exceeding its wall-clock
  budget is declared hung; the pool is killed and rebuilt, the hung shard is
  charged an attempt, and innocent in-flight shards are re-enqueued without
  one.
* **``BrokenProcessPool`` recovery** — a hard worker death (segfault, OOM
  kill, injected ``os._exit``) breaks every in-flight future; the supervisor
  rebuilds the pool and re-enqueues all of them.  Every re-enqueued shard is
  charged an attempt: the culprit is indistinguishable from the victims, and
  stepping each shard's attempt number forward is what guarantees progress
  under a deterministic chaos policy.
* **Quarantine** — a shard that exhausts its retry budget is recorded as
  failed (journal ``shard_failed`` marker, :class:`ShardQuarantined` event)
  and the campaign completes *degraded* instead of raising mid-run: the
  engine returns a :class:`DegradedCampaignResult` carrying every surviving
  record plus per-shard error reports.

**One run loop.**  Campaigns (:class:`~repro.engine.pool.CampaignEngine`)
and detector-training collections (``repro.xentry.training.
collect_dataset``) both run through :func:`run_supervised`: it opens or
resumes the journal, replays the shards it already holds, supervises the
rest, and writes the run manifest before it closes the journal.  Every
shard attempt runs through :func:`run_shard`, which arms the attempt's
chaos tripwire and calls the executor, ``execute(config, shard, detector,
on_unit=...)``; the executor calls ``on_unit`` once per unit of work (a
trial, an activation) and returns ``(items, stats)``.

**Hot forks.**  :func:`run_shard` ships what the attempt counted
(:func:`repro.metrics.counted`) and the translation entries it compiled
back with its result.  The supervisor folds
the counts into the run's telemetry and adopts the entries into this
process's translation cache; right before it forks a pool — the first one
and every rebuild — ``repro.engine.pool.warm_worker`` compiles the adopted
entries here, so the new workers inherit them compiled instead of compiling
them again each.

The journal append runs under the same retry policy with its own attempt
counter; a journal that stays unwritable is fatal (:class:`JournalError`) —
durability is the journal's whole contract, so the engine dies loudly rather
than silently losing it.

**Determinism contract.**  Supervision never alters what a shard computes:
re-running a shard reproduces its records bit for bit, so a campaign that
succeeds after any number of retries is bit-identical to an undisturbed run,
and a degraded campaign's surviving records equal the corresponding slice of
the serial run.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

from repro import rng as rng_mod
from repro.engine.chaos import ChaosPolicy, ChaosTripwire, inject_journal_fault
from repro.engine.journal import TrialJournal
from repro.engine.planner import CampaignPlan, ShardPlan
from repro.engine.telemetry import (
    CampaignFinished,
    CampaignStarted,
    EngineTelemetry,
    ShardFailed,
    ShardFinished,
    ShardQuarantined,
    ShardRetried,
    ShardStarted,
    WorkerCrashed,
)
from repro.errors import CampaignConfigError, EngineError, JournalError
from repro.faults.campaign import CampaignConfig, CampaignResult
from repro.faults.injector import TransitionDetector
from repro.faults.outcomes import TrialRecord
from repro.machine.translator import CACHE
from repro.metrics import counted

__all__ = [
    "AttemptFailure",
    "DegradedCampaignResult",
    "RetryPolicy",
    "ShardFailure",
    "ShardSupervisor",
    "run_shard",
    "run_supervised",
]


def run_shard(
    execute: Callable,
    config,
    shard,
    detector,
    *,
    chaos: ChaosPolicy | None = None,
    attempt: int = 0,
    allow_hard: bool = True,
):
    """Run one shard attempt; return ``(result, counts, compiled)``.

    ``chaos`` and ``attempt`` arm the deterministic chaos tripwire for this
    attempt (``allow_hard=False`` when this process is the engine itself):
    it steps once before the executor starts and then on every ``on_unit``
    call, and only ever counts units, never reads them.  ``result`` is the
    executor's ``(items, stats)``; ``counts`` is what the attempt counted in
    this process (:func:`repro.metrics.counted`) and ``compiled`` the
    translation entries it compiled, as text digest -> entry indices.
    Module-level so a process pool can pickle it; inline shards run through
    it too, so a run's totals are sums of kept attempts' counts in every
    mode.
    """
    on_unit = None
    if chaos is not None:
        plan = chaos.plan(shard.index, attempt, allow_hard=allow_hard)
        if not plan.quiet:
            on_unit = ChaosTripwire(plan).step
            on_unit()  # faults positioned "before the first unit"
    marks = CACHE.compile_marks()
    result, counts = counted(execute, config, shard, detector, on_unit=on_unit)
    return result, counts, CACHE.compiled_since(marks)


def run_supervised(
    plan: CampaignPlan,
    *,
    execute: Callable,
    telemetry: EngineTelemetry,
    journal_kind: type[TrialJournal] = TrialJournal,
    journal_path: str | Path | None = None,
    resume: bool = False,
    replan: Callable[[int], CampaignPlan] | None = None,
    jobs: int = 1,
    **supervision,
) -> tuple[CampaignPlan, dict[int, list], dict[int, ShardFailure]]:
    """The engine's run loop: run ``plan``'s shards to completion or
    quarantine; return the plan run, every completed shard's items and the
    quarantined shards.

    With ``journal_path`` the run journals to a ``journal_kind`` journal,
    created or (with ``resume``) continued: shards it already holds count
    as done (replayed into ``telemetry``, not re-run), and when it holds a
    different shard count, ``replan(n_shards)`` supplies the plan — resuming
    with a different ``--jobs`` must not move shard boundaries.  The run
    manifest is written next to the journal before the journal is closed,
    also when the run fails.  ``supervision`` goes to
    :class:`ShardSupervisor` (``detector``, ``retry``, ``shard_timeout``,
    ``chaos``).
    """
    if jobs < 1:
        raise EngineError("jobs must be positive")
    if resume and journal_path is None:
        raise EngineError("resume requires a journal_path")
    journal: TrialJournal | None = None
    if journal_path is not None:
        journal_path = Path(journal_path)
        journal = journal_kind.open(
            journal_path, digest=plan.digest, n_shards=plan.n_shards,
            total_trials=plan.total_trials, resume=resume,
        )
        if replan is not None and journal.state.n_shards != plan.n_shards:
            plan = replan(journal.state.n_shards)
    done = dict(journal.state.completed) if journal is not None else {}
    failures: dict[int, ShardFailure] = {}
    try:
        telemetry.emit(
            CampaignStarted(
                total_trials=plan.total_trials,
                n_shards=plan.n_shards,
                jobs=jobs,
                resumed_shards=len(done),
            )
        )
        for index, items in sorted(done.items()):
            telemetry.record_outcomes(item for _, item in items)
            telemetry.emit(
                ShardFinished(
                    shard=index, n_trials=len(items), elapsed=0.0, resumed=True
                )
            )
        supervisor = ShardSupervisor(
            plan.config, execute=execute, jobs=jobs, telemetry=telemetry,
            journal=journal, **supervision,
        )
        failures = supervisor.run(
            [s for s in plan.shards if s.index not in done], done
        )
    finally:
        # The manifest must survive any failure mode: it is written before
        # the journal closes, so a failing close cannot cost it, and
        # best-effort, so an unwritable manifest cannot mask the exception
        # unwinding through here.
        if journal_path is not None:
            try:
                telemetry.write_manifest(
                    journal_path.with_name(journal_path.name + ".manifest.json")
                )
            except OSError:
                pass
        if journal is not None:
            journal.close()
    snap = telemetry.snapshot()
    telemetry.emit(
        CampaignFinished(
            total_trials=plan.total_trials,
            executed_trials=telemetry.executed_trials,
            elapsed=snap.elapsed,
            trials_per_sec=snap.trials_per_sec,
            quarantined=len(failures),
        )
    )
    return plan, done, failures


@dataclass(frozen=True)
class RetryPolicy:
    """Per-shard retry budget and deterministic backoff schedule.

    ``max_retries`` bounds *retries*, so a shard runs at most
    ``max_retries + 1`` times.  The backoff before retry ``attempt`` is
    ``min(backoff_max, backoff_base * backoff_factor**(attempt-1))`` scaled
    by a seeded jitter into ``[(1-jitter)·d, d]`` — deterministic in
    ``(seed, shard, attempt)``, so supervised runs are replayable.
    """

    max_retries: int = 2
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise CampaignConfigError("max_retries must be non-negative")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise CampaignConfigError("backoff bounds must be non-negative")
        if self.backoff_factor < 1.0:
            raise CampaignConfigError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise CampaignConfigError("jitter must be in [0, 1]")

    @property
    def max_attempts(self) -> int:
        """Total executions a shard may consume (first run + retries)."""
        return self.max_retries + 1

    def delay(self, shard: int, attempt: int) -> float:
        """Seconds to wait before running ``attempt`` (0-based) of ``shard``."""
        if attempt <= 0:
            return 0.0
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )
        if base <= 0.0:
            return 0.0
        u = float(rng_mod.stream(self.seed, "backoff", shard, attempt).random())
        return base * (1.0 - self.jitter * u)


@dataclass(frozen=True)
class AttemptFailure:
    """One failed execution of a shard."""

    attempt: int
    #: ``"exception" | "timeout" | "worker_lost"``.
    kind: str
    error: str


@dataclass(frozen=True)
class ShardFailure:
    """Why a shard was quarantined: every failed attempt, in order."""

    shard: int
    attempts: tuple[AttemptFailure, ...]

    @property
    def last(self) -> AttemptFailure:
        """The attempt that exhausted the budget."""
        return self.attempts[-1]


@dataclass(frozen=True)
class DegradedCampaignResult(CampaignResult):
    """A campaign that completed with quarantined shards.

    ``records`` holds the surviving trials in serial order — each one
    bit-identical to the undisturbed run's record at the same position —
    while ``failures`` reports why the missing shards were given up on.
    """

    #: Trials an undisturbed run would have produced.
    planned_trials: int = 0
    n_shards: int = 0
    failures: tuple[ShardFailure, ...] = ()

    @property
    def degraded(self) -> bool:
        """Always True: records are incomplete."""
        return True

    @property
    def quarantined_shards(self) -> tuple[int, ...]:
        """Indices of the shards that exhausted their retry budget."""
        return tuple(f.shard for f in self.failures)

    @property
    def missing_trials(self) -> int:
        """Trials lost to quarantined shards."""
        return self.planned_trials - len(self.records)

    def summary(self) -> str:
        """One line an operator can act on: what is missing and why."""
        detail = "; ".join(
            f"shard {f.shard}: {f.last.kind} after {len(f.attempts)} attempts"
            for f in self.failures
        )
        return (
            f"{len(self.failures)}/{self.n_shards} shards quarantined "
            f"({self.missing_trials}/{self.planned_trials} trials missing): "
            f"{detail}"
        )


@dataclass
class _Run:
    """One scheduled execution of a shard (a specific attempt)."""

    shard: ShardPlan
    attempt: int
    #: Monotonic time before which this run must not be submitted (backoff).
    ready_at: float = 0.0
    #: Monotonic time the attempt actually started executing.
    started: float = 0.0


@dataclass
class _SupervisedState:
    """Mutable bookkeeping shared by the serial and pool loops."""

    attempt_log: dict[int, list[AttemptFailure]] = field(default_factory=dict)
    failures: dict[int, ShardFailure] = field(default_factory=dict)


class ShardSupervisor:
    """Runs pending shards to completion or quarantine.

    Parameters mirror :class:`~repro.engine.pool.CampaignEngine`; ``execute``
    is the module-level shard executor (pickled into pool workers, see
    :func:`run_shard`), injected to keep this module free of a circular
    import on :mod:`repro.engine.pool`.
    ``shard_timeout`` is enforced by the pool-mode watchdog only: in serial
    mode the "worker" is this process, which cannot preempt itself.
    """

    def __init__(
        self,
        config: CampaignConfig,
        *,
        execute: Callable[..., tuple[list, dict]],
        telemetry: EngineTelemetry,
        jobs: int = 1,
        detector: TransitionDetector | None = None,
        retry: RetryPolicy | None = None,
        shard_timeout: float | None = None,
        chaos: ChaosPolicy | None = None,
        journal: TrialJournal | None = None,
    ) -> None:
        if shard_timeout is not None and shard_timeout <= 0:
            raise CampaignConfigError("shard_timeout must be positive")
        self.config = config
        self.execute = execute
        self.jobs = jobs
        self.detector = detector
        self.retry = retry or RetryPolicy(seed=config.seed)
        self.shard_timeout = shard_timeout
        self.chaos = chaos
        self.telemetry = telemetry
        self.journal = journal
        self._state = _SupervisedState()

    def _make_pool(self, max_workers: int) -> ProcessPoolExecutor:
        """A fresh worker pool, forked hot (see the module docstring)."""
        # Looked up on the module at every fork; the import is deferred
        # because repro.engine.pool imports this module.
        from repro.engine import pool as engine_pool

        self.telemetry.counters.blocks_prefork.inc(engine_pool.warm_worker(self.config))
        return ProcessPoolExecutor(max_workers=max_workers)

    # -- public entry ---------------------------------------------------------

    def run(
        self,
        pending: list[ShardPlan],
        done: dict[int, list[tuple[int, TrialRecord]]],
    ) -> dict[int, ShardFailure]:
        """Execute ``pending``, folding results into ``done``.

        Returns the quarantined shards (empty on a clean run).  Raises only
        for faults supervision cannot absorb: an unwritable journal, or an
        interrupt from the caller's own telemetry.
        """
        if pending:
            if self.jobs == 1:
                self._run_serial(pending, done)
            else:
                self._run_pool(pending, done)
        return dict(self._state.failures)

    # -- serial loop ----------------------------------------------------------

    def _run_serial(self, pending, done) -> None:
        for shard in pending:
            self.telemetry.emit(
                ShardStarted(shard=shard.index, n_trials=shard.n_trials)
            )
            attempt = 0
            while True:
                t0 = time.monotonic()
                try:
                    trials = self._absorb(run_shard(
                        self.execute, self.config, shard, self.detector,
                        chaos=self.chaos, attempt=attempt, allow_hard=False,
                    ))
                except Exception as exc:  # noqa: BLE001 — every worker fault funnels here
                    delay = self._attempt_failed(
                        shard, attempt, "exception",
                        f"{type(exc).__name__}: {exc}",
                    )
                    if delay is None:
                        break
                    if delay > 0:
                        time.sleep(delay)
                    attempt += 1
                    continue
                self._finish(shard, trials, time.monotonic() - t0, done)
                break

    # -- pool loop ------------------------------------------------------------

    def _run_pool(self, pending, done) -> None:
        queue: list[_Run] = [_Run(shard=s, attempt=0) for s in pending]
        inflight: dict = {}
        pool = self._make_pool(min(self.jobs, len(pending)))
        ok = False
        try:
            while queue or inflight:
                pool = self._top_up(pool, queue, inflight)
                if not inflight:
                    # Everything is waiting out a backoff delay.
                    pause = min(r.ready_at for r in queue) - time.monotonic()
                    if pause > 0:
                        time.sleep(pause)
                    continue
                finished = self._wait(queue, inflight)
                pool = self._drain(pool, finished, queue, inflight, done)
                pool = self._watchdog(pool, queue, inflight)
            ok = True
        finally:
            if ok:
                pool.shutdown(wait=True)
            else:
                self._kill_workers(pool)
                pool.shutdown(wait=False, cancel_futures=True)

    def _top_up(self, pool, queue, inflight):
        """Submit ready runs up to the worker count.

        Submission is throttled to ``jobs`` outstanding futures so a queued
        shard never burns watchdog budget waiting for a worker; ready runs
        are taken lowest-shard-first for a stable, reproducible order.
        """
        now = time.monotonic()
        ready = sorted(
            (r for r in queue if r.ready_at <= now), key=lambda r: r.shard.index
        )
        for run in ready:
            if len(inflight) >= self.jobs:
                break
            queue.remove(run)
            if run.attempt == 0:
                self.telemetry.emit(
                    ShardStarted(shard=run.shard.index, n_trials=run.shard.n_trials)
                )
            run.started = time.monotonic()
            try:
                future = pool.submit(
                    run_shard, self.execute, self.config, run.shard,
                    self.detector, chaos=self.chaos, attempt=run.attempt,
                )
            except BrokenProcessPool:
                # The pool died between batches.  This run never started, so
                # it goes back unchanged; everything in flight is lost.
                queue.append(run)
                pool = self._recover_lost(pool, [], queue, inflight,
                                          kind="broken_pool")
                break
            inflight[future] = run
        return pool

    def _wait(self, queue, inflight):
        """Block until a future finishes, a deadline nears, or backoff ends."""
        deadlines = [r.ready_at for r in queue]
        if self.shard_timeout is not None:
            deadlines.extend(
                r.started + self.shard_timeout for r in inflight.values()
            )
        timeout = None
        if deadlines:
            timeout = max(0.01, min(deadlines) - time.monotonic())
        finished, _ = wait(
            set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
        )
        return finished

    def _drain(self, pool, finished, queue, inflight, done):
        """Process every finished future; journal all successes before
        letting any failure unwind (the lost-shard fix: a crash in one
        future must not discard its batch-mates' completed work)."""
        completed: list[tuple[_Run, list]] = []
        broken: list[_Run] = []
        for future in finished:
            run = inflight.pop(future)
            try:
                completed.append((run, self._absorb(future.result())))
            except BrokenProcessPool:
                broken.append(run)
            except Exception as exc:  # noqa: BLE001 — worker failure, retried
                self._requeue_failed(
                    run, "exception", f"{type(exc).__name__}: {exc}", queue
                )
        first_error: BaseException | None = None
        for run, trials in completed:
            try:
                self._finish(
                    run.shard, trials, time.monotonic() - run.started, done
                )
            except BaseException as exc:  # noqa: BLE001 — drain before unwinding
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        if broken:
            pool = self._recover_lost(
                pool, broken, queue, inflight, kind="broken_pool"
            )
        return pool

    def _watchdog(self, pool, queue, inflight):
        """Reclaim shards that blew their wall-clock budget."""
        if self.shard_timeout is None or not inflight:
            return pool
        now = time.monotonic()
        overdue = [
            future for future, run in inflight.items()
            if now - run.started >= self.shard_timeout
        ]
        if not overdue:
            return pool
        victims = [inflight.pop(f) for f in overdue]
        survivors = [inflight.pop(f) for f in list(inflight)]
        self.telemetry.emit(
            WorkerCrashed(
                shards=tuple(sorted(r.shard.index for r in victims)),
                kind="watchdog_timeout",
            )
        )
        self._kill_workers(pool)
        pool.shutdown(wait=False, cancel_futures=True)
        for run in victims:
            self._requeue_failed(
                run, "timeout",
                f"exceeded shard timeout of {self.shard_timeout:g}s", queue,
            )
        for run in survivors:
            # Innocent bystanders: their work died with the pool, but the
            # hang was not theirs — re-run the same attempt, no charge.
            queue.append(_Run(shard=run.shard, attempt=run.attempt))
        return self._make_pool(self.jobs)

    def _recover_lost(self, pool, lost, queue, inflight, *, kind):
        """Rebuild a broken pool and re-enqueue every in-flight shard.

        All of them — ``lost`` plus whatever is still mapped in ``inflight``
        — are charged an attempt: the worker that died cannot be told apart
        from its pool-mates, and advancing each shard's attempt number is
        what moves a deterministic chaos policy past the fault.
        """
        victims = list(lost) + [inflight.pop(f) for f in list(inflight)]
        if victims:
            self.telemetry.emit(
                WorkerCrashed(
                    shards=tuple(sorted(r.shard.index for r in victims)),
                    kind=kind,
                )
            )
        self._kill_workers(pool)
        pool.shutdown(wait=False, cancel_futures=True)
        for run in victims:
            self._requeue_failed(run, "worker_lost", "process pool broken", queue)
        return self._make_pool(self.jobs)

    @staticmethod
    def _kill_workers(pool) -> None:
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, ValueError):  # already reaped
                pass

    # -- shared failure/finish plumbing ---------------------------------------

    def _absorb(self, outcome):
        """Fold one :func:`run_shard` outcome into telemetry; return its items.

        The counts join the run's totals, the compiled entries are adopted
        for the next fork, and the executor's stats dict goes to
        ``record_artifact_stats``.
        """
        (items, stats), counts, compiled = outcome
        self.telemetry.record_counts(counts)
        self.telemetry.counters.blocks_adopted.inc(CACHE.adopt(compiled))
        self.telemetry.record_artifact_stats(stats)
        return items

    def _requeue_failed(self, run: _Run, kind: str, error: str, queue) -> None:
        delay = self._attempt_failed(run.shard, run.attempt, kind, error)
        if delay is not None:
            queue.append(
                _Run(
                    shard=run.shard,
                    attempt=run.attempt + 1,
                    ready_at=time.monotonic() + delay,
                )
            )

    def _attempt_failed(
        self, shard: ShardPlan, attempt: int, kind: str, error: str
    ) -> float | None:
        """Record a failed attempt.

        Returns the backoff delay before the next attempt, or ``None`` when
        the retry budget is exhausted and the shard was quarantined.
        """
        log = self._state.attempt_log.setdefault(shard.index, [])
        log.append(AttemptFailure(attempt=attempt, kind=kind, error=error))
        self.telemetry.emit(
            ShardFailed(shard=shard.index, attempt=attempt, kind=kind, error=error)
        )
        if attempt + 1 >= self.retry.max_attempts:
            self._quarantine(shard, log)
            return None
        next_attempt = attempt + 1
        delay = self.retry.delay(shard.index, next_attempt)
        self.telemetry.emit(
            ShardRetried(
                shard=shard.index, attempt=next_attempt, delay=delay, kind=kind
            )
        )
        return delay

    def _quarantine(self, shard: ShardPlan, log: list[AttemptFailure]) -> None:
        failure = ShardFailure(shard=shard.index, attempts=tuple(log))
        self._state.failures[shard.index] = failure
        last = failure.last
        self.telemetry.emit(
            ShardQuarantined(
                shard=shard.index, attempts=len(log),
                kind=last.kind, error=last.error,
            )
        )
        if self.journal is not None:
            try:
                self.journal.append_failed(
                    shard.index, attempts=len(log), kind=last.kind, error=last.error
                )
            except OSError:
                # The marker is advisory — a resume re-runs any shard without
                # a completed recording — so its loss must not mask the
                # quarantine itself.
                pass

    def _finish(self, shard: ShardPlan, trials, elapsed: float, done) -> None:
        if self.journal is not None:
            self._journal_append(shard, trials)
        done[shard.index] = trials
        self.telemetry.record_outcomes(r for _, r in trials)
        self.telemetry.emit(
            ShardFinished(shard=shard.index, n_trials=len(trials), elapsed=elapsed)
        )

    def _journal_append(self, shard: ShardPlan, trials) -> None:
        """Append under the retry policy; an unwritable journal is fatal.

        Shard computation failures degrade the campaign, but a journal that
        cannot be written breaks the durability contract resume depends on —
        better to die loudly (leaving at worst a torn tail that
        ``read_state`` reports as ``partial``) than continue un-journalled.
        """
        attempt = 0
        while True:
            try:
                fault = (
                    self.chaos.journal_fault(shard.index, attempt)
                    if self.chaos is not None else None
                )
                if fault is not None:
                    inject_journal_fault(self.journal, shard.index, trials, fault)
                self.journal.append_shard(shard.index, trials)
                return
            except OSError as exc:
                self.telemetry.emit(
                    ShardFailed(
                        shard=shard.index, attempt=attempt,
                        kind="journal", error=f"{type(exc).__name__}: {exc}",
                    )
                )
                if attempt + 1 >= self.retry.max_attempts:
                    raise JournalError(
                        f"journal append for shard {shard.index} failed "
                        f"after {attempt + 1} attempts: {exc}"
                    ) from exc
                attempt += 1
                delay = self.retry.delay(shard.index, attempt)
                self.telemetry.emit(
                    ShardRetried(
                        shard=shard.index, attempt=attempt,
                        delay=delay, kind="journal",
                    )
                )
                if delay > 0:
                    time.sleep(delay)


def merge_records(
    done: dict[int, list[tuple[int, TrialRecord]]],
) -> dict[int, TrialRecord]:
    """Fold per-shard ``(trial, record)`` lists into one index-keyed map,
    rejecting duplicates (two shards claiming one trial is always a bug)."""
    by_trial: dict[int, TrialRecord] = {}
    for trials in done.values():
        for t, record in trials:
            if t in by_trial:
                raise EngineError(f"trial {t} recorded by more than one shard")
            by_trial[t] = record
    return by_trial
