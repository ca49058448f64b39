"""The campaign engine: parallel, resumable, observable, *self-resilient*.

:class:`CampaignEngine` turns a :class:`CampaignConfig` into a plan of
deterministic shards (:mod:`repro.engine.planner`), hands them to a
:class:`~repro.engine.supervisor.ShardSupervisor` that fans them out over a
``concurrent.futures`` process pool (or runs them inline when ``jobs=1``)
with retry, watchdog and quarantine semantics, journals every finished shard
durably (:mod:`repro.engine.journal`), and narrates progress through
:mod:`repro.engine.telemetry`.  Pools fork hot: the translation blocks
earlier workers compiled are compiled once in this process first
(:func:`warm_worker`).  The merged result is bit-identical to
:meth:`FaultInjectionCampaign.run` with the same seed — including runs that
needed retries — and a campaign killed mid-flight resumes from its journal
with completed shards skipped.  A campaign whose shards exhaust their retry
budget completes *degraded* (:class:`DegradedCampaignResult`) instead of
aborting mid-run.
"""

from __future__ import annotations

from pathlib import Path

from repro.artifacts.runtime import golden_source_for
from repro.artifacts.store import GoldenStore
from repro.engine.chaos import ChaosPolicy, ChaosTripwire
from repro.engine.journal import TrialJournal, read_state
from repro.engine.planner import CampaignPlan, ShardPlan, plan_campaign
from repro.engine.supervisor import (
    DegradedCampaignResult,
    RetryPolicy,
    ShardFailure,
    ShardSupervisor,
    merge_records,
)
from repro.engine.telemetry import (
    CampaignFinished,
    CampaignStarted,
    EngineTelemetry,
    ShardFinished,
)
from repro.errors import EngineError, JournalError
from repro.faults.campaign import (
    CampaignConfig,
    CampaignResult,
    run_benchmark_groups,
)
from repro.faults.injector import TransitionDetector
from repro.faults.outcomes import TrialRecord
from repro.hypervisor.xen import XenHypervisor
from repro.machine.translator import CACHE

__all__ = ["CampaignEngine", "execute_shard", "warm_worker"]


def warm_worker(config) -> int:
    """Compile the adopted translation entries of ``config``'s image here.

    The coordinator's step right before it forks a pool (see
    :mod:`repro.engine.supervisor`): the entries earlier pool workers of this
    process compiled were adopted into :data:`~repro.machine.translator.CACHE`,
    and compiling them from this process's own image means every worker of
    the next pool inherits them compiled.  ``config`` is a campaign or a
    training config (its ``n_domains`` fixes the image).  A process that
    forks a single pool has adopted nothing yet and pays nothing; trial
    records are invariant under translation, so warmth never changes them.
    Returns the number of blocks compiled.
    """
    if not CACHE.adopted or not getattr(config, "translate", True):
        return 0
    hv = XenHypervisor(n_domains=config.n_domains, seed=config.seed)
    return CACHE.compile_adopted(hv.program)


def execute_shard(
    config: CampaignConfig,
    shard: ShardPlan,
    detector: TransitionDetector | None,
    *,
    chaos: ChaosPolicy | None = None,
    attempt: int = 0,
    allow_hard: bool = True,
) -> tuple[list[tuple[int, TrialRecord]], dict]:
    """Run every slice of ``shard``; return its records and an empty dict.

    Module-level so a process pool can pickle it; workers rebuild their own
    hypervisor from the config (bit-identical to the serial campaign's, which
    resets to post-boot state before each benchmark anyway).  ``chaos`` and
    ``attempt`` arm the deterministic chaos tripwire for this execution —
    the tripwire only observes record counts, never the records themselves.

    Cached goldens are read from the store's committed packs, exactly as a
    serial run reads them.  Goldens the attempt captures live stream into
    one pack, committed after the last slice (one ``fsync``) and dropped if
    the attempt raises.  What the attempt counts reaches the run manifest
    through :func:`~repro.engine.supervisor.run_shard`.  The empty dict
    beside the trials is kept for perfbench, whose tracer ships worker
    traces on it to ``EngineTelemetry.record_artifact_stats``
    (perfbench/spans.py).
    """
    tripwire = None
    if chaos is not None:
        plan = chaos.plan(shard.index, attempt, allow_hard=allow_hard)
        if not plan.quiet:
            tripwire = ChaosTripwire(plan)
    golden_source = golden_source_for(config)
    if tripwire is not None:
        tripwire.step()  # faults positioned "before the first trial"
    hv = XenHypervisor(
        n_domains=config.n_domains, seed=config.seed, translate=config.translate
    )
    out: list[tuple[int, TrialRecord]] = []
    try:
        for s in shard.slices:
            records = run_benchmark_groups(
                config, s.benchmark, s.group_start, s.group_stop,
                hv=hv, detector=detector,
                on_record=tripwire.step if tripwire is not None else None,
                golden_source=golden_source,
            )
            out.extend(enumerate(records, start=s.trial_start))
    except BaseException:
        if golden_source is not None:
            golden_source.discard()
        raise
    if golden_source is not None:
        golden_source.commit()
    return out, {}


class CampaignEngine:
    """Executes a fault-injection campaign as supervised, resumable shards.

    Parameters
    ----------
    config:
        The campaign to run; also defines the shard boundaries and digest.
    jobs:
        Worker processes.  ``1`` (default) runs shards inline in this
        process — same results, no pool overhead.
    n_shards:
        Shard count; defaults to ``jobs`` (one chunk per worker).  More
        shards mean finer resume granularity and better load balancing.
    detector:
        Optional VM-transition detector deployed during trials.  It is
        pickled into each worker, so per-process traversal statistics stay
        in the workers; trial records are unaffected (classification is a
        pure function of the compiled rules).
    journal_path:
        Where to journal finished shards.  Required for ``resume=True``.
        A run manifest is written next to it as ``<journal>.manifest.json``
        — even when the run fails mid-flight.
    telemetry:
        An :class:`EngineTelemetry` to narrate into; a fresh silent one is
        created when omitted.
    retry:
        Per-shard retry budget and deterministic backoff schedule; defaults
        to :class:`RetryPolicy` seeded from the campaign seed.  Exhausting
        the budget quarantines the shard and degrades the campaign instead
        of aborting it.
    shard_timeout:
        Wall-clock seconds a shard attempt may run before the pool watchdog
        reclaims it (pool mode only; ``None`` disables the watchdog).
    chaos:
        Optional :class:`ChaosPolicy` injecting deterministic engine-level
        faults — the harness that proves the recovery paths work.  Like the
        retry/timeout knobs, chaos never enters the config digest: records
        are invariant under supervision, so journals interoperate freely.
    """

    def __init__(
        self,
        config: CampaignConfig,
        *,
        jobs: int = 1,
        n_shards: int | None = None,
        detector: TransitionDetector | None = None,
        journal_path: str | Path | None = None,
        telemetry: EngineTelemetry | None = None,
        retry: RetryPolicy | None = None,
        shard_timeout: float | None = None,
        chaos: ChaosPolicy | None = None,
    ) -> None:
        if jobs < 1:
            raise EngineError("jobs must be positive")
        self.config = config
        self.jobs = jobs
        self.n_shards = n_shards if n_shards is not None else jobs
        self.detector = detector
        self.journal_path = Path(journal_path) if journal_path else None
        self.telemetry = telemetry or EngineTelemetry()
        self.retry = retry or RetryPolicy(seed=config.seed)
        self.shard_timeout = shard_timeout
        self.chaos = chaos

    # -- execution -----------------------------------------------------------

    def run(self, *, resume: bool = False) -> CampaignResult:
        """Execute (or finish) the campaign and return the merged result.

        Returns a plain :class:`CampaignResult` when every shard completed,
        or a :class:`DegradedCampaignResult` when shards were quarantined.
        """
        if resume and self.journal_path is None:
            raise EngineError("resume requires a journal_path")
        plan = plan_campaign(self.config, self.n_shards)
        journal: TrialJournal | None = None
        if self.journal_path is not None:
            journal = self._open_journal(plan, resume=resume)
            if journal.state.n_shards != plan.n_shards:
                # The journal's shard structure wins: resuming with a
                # different --jobs must not reshuffle shard boundaries.
                plan = plan_campaign(self.config, journal.state.n_shards)

        done: dict[int, list[tuple[int, TrialRecord]]] = (
            dict(journal.state.completed) if journal is not None else {}
        )
        failures: dict[int, ShardFailure] = {}
        if self.config.artifacts:
            # Shard attempts skip torn packs without counting them; the
            # run counts them here, once.
            self.telemetry.counters.artifact_corrupt.inc(
                GoldenStore(self.config.artifacts).scan()
            )
        try:
            pending = [s for s in plan.shards if s.index not in done]
            self.telemetry.emit(
                CampaignStarted(
                    total_trials=plan.total_trials,
                    n_shards=plan.n_shards,
                    jobs=self.jobs,
                    resumed_shards=len(done),
                )
            )
            for index, trials in sorted(done.items()):
                self.telemetry.record_outcomes(r for _, r in trials)
                self.telemetry.emit(
                    ShardFinished(
                        shard=index, n_trials=len(trials), elapsed=0.0, resumed=True
                    )
                )
            supervisor = ShardSupervisor(
                self.config,
                execute=execute_shard,
                jobs=self.jobs,
                detector=self.detector,
                retry=self.retry,
                shard_timeout=self.shard_timeout,
                chaos=self.chaos,
                telemetry=self.telemetry,
                journal=journal,
            )
            failures = supervisor.run(pending, done)
        finally:
            # Every worker of this run is gone: drop the temp packs of any
            # that died mid-attempt.
            if self.config.artifacts:
                GoldenStore(self.config.artifacts).sweep()
            # The manifest snapshot must survive any failure mode — it is
            # written first so a failing journal close cannot cost it, and
            # best-effort so an unwritable manifest cannot mask the real
            # exception unwinding through here.
            if self.journal_path is not None:
                try:
                    self.telemetry.write_manifest(
                        self.journal_path.with_name(
                            self.journal_path.name + ".manifest.json"
                        )
                    )
                except OSError:
                    pass
            if journal is not None:
                journal.close()
        result = self._merge(plan, done, failures)
        snap = self.telemetry.snapshot()
        self.telemetry.emit(
            CampaignFinished(
                total_trials=plan.total_trials,
                executed_trials=self.telemetry.executed_trials,
                elapsed=snap.elapsed,
                trials_per_sec=snap.trials_per_sec,
                quarantined=len(failures),
            )
        )
        return result

    def _open_journal(self, plan: CampaignPlan, *, resume: bool) -> TrialJournal:
        existing = read_state(self.journal_path)
        if existing is not None and not resume:
            raise JournalError(
                f"{self.journal_path}: journal exists; pass resume=True "
                "(--resume) to continue it or remove the file"
            )
        if resume and existing is not None:
            return TrialJournal.resume(self.journal_path, digest=plan.digest)
        return TrialJournal.create(
            self.journal_path,
            digest=plan.digest,
            n_shards=plan.n_shards,
            total_trials=plan.total_trials,
        )

    def _merge(
        self,
        plan: CampaignPlan,
        done: dict[int, list[tuple[int, TrialRecord]]],
        failures: dict[int, ShardFailure],
    ) -> CampaignResult:
        by_trial = merge_records(done)
        if failures:
            expected = plan.total_trials - sum(
                plan.shards[i].n_trials for i in failures
            )
            if len(by_trial) != expected:
                raise EngineError(
                    f"degraded merge inconsistent: {len(by_trial)} trials for "
                    f"{expected} expected outside quarantined shards"
                )
            records = tuple(record for _, record in sorted(by_trial.items()))
            return DegradedCampaignResult(
                config=self.config,
                records=records,
                planned_trials=plan.total_trials,
                n_shards=plan.n_shards,
                failures=tuple(failures[i] for i in sorted(failures)),
            )
        if len(by_trial) != plan.total_trials:
            missing = sorted(set(range(plan.total_trials)) - set(by_trial))[:5]
            raise EngineError(
                f"merge incomplete: {len(by_trial)}/{plan.total_trials} trials "
                f"(first missing: {missing})"
            )
        records = tuple(by_trial[t] for t in range(plan.total_trials))
        return CampaignResult(config=self.config, records=records)
