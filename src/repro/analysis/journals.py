"""Merge and report campaign results from engine trial journals.

The engine's journal (:mod:`repro.engine.journal`) is the durable artifact a
long campaign leaves behind — including one that is still running or was
killed.  This module reads journals from the *analysis* side: recover the
record sequence for reporting, merge the journals of a campaign split across
machines, and summarize in-flight progress without touching the engine.
"""

from __future__ import annotations

from pathlib import Path

from repro.engine.journal import JournalState, SampleJournal, read_state
from repro.engine.telemetry import EngineTelemetry
from repro.errors import JournalError
from repro.faults.outcomes import TrialRecord
from repro.ml.dataset import Dataset

__all__ = [
    "dataset_from_journal",
    "journal_progress",
    "merge_journals",
    "records_from_journal",
    "sample_journal_progress",
]


def _by_index(shards) -> list:
    """Fold shard item lists into one list ordered by global index; a later
    recording of an index replaces an earlier one (resume semantics)."""
    by_index: dict[int, object] = {}
    for items in shards:
        for index, item in items:
            by_index[index] = item
    return [item for _, item in sorted(by_index.items())]


def _shards(state: JournalState, include_partial: bool) -> list:
    shards = list(state.completed.values())
    if include_partial:
        shards.extend(state.partial.values())
    return shards


def _outcomes(state: JournalState) -> dict:
    """The manifest's ``outcomes`` section over the completed shards' items,
    folded as the engine folds them."""
    telemetry = EngineTelemetry()
    telemetry.record_outcomes(
        item for items in state.completed.values() for _, item in items
    )
    return telemetry.outcomes()


def records_from_journal(
    path: str | Path, *, include_partial: bool = True
) -> tuple[TrialRecord, ...]:
    """Recover trial records from a journal, in serial (trial-index) order.

    ``include_partial`` also yields trials journalled by shards that never
    reached their completion marker — useful for peeking at a campaign that
    is still running (or died); pass ``False`` for only durably completed
    shards.  The result of a *finished* campaign equals the serial
    campaign's record tuple.
    """
    state = read_state(path)
    if state is None:
        raise JournalError(f"{path}: no journal found")
    return tuple(_by_index(_shards(state, include_partial)))


def merge_journals(paths: list[str | Path]) -> tuple[TrialRecord, ...]:
    """Merge several journals of the *same* campaign into one record sequence.

    Supports splitting a campaign across machines: each machine journals the
    shards it ran; the union reconstructs the serial sequence.  All journals
    must carry the same config digest — merging unrelated campaigns is a
    :class:`JournalError`, and so is a trial recorded twice with diverging
    shard ownership across files (records for the same trial index are
    deduplicated, last file wins, matching resume semantics).
    """
    if not paths:
        raise JournalError("no journals to merge")
    digest: str | None = None
    shards: list = []
    for path in paths:
        state = read_state(path)
        if state is None:
            raise JournalError(f"{path}: no journal found")
        if digest is None:
            digest = state.digest
        elif state.digest != digest:
            raise JournalError(
                f"{path}: digest {state.digest} does not match {digest}; "
                "these journals belong to different campaigns"
            )
        shards.extend(_shards(state, include_partial=True))
    return tuple(_by_index(shards))


def dataset_from_journal(
    path: str | Path, *, include_partial: bool = False
) -> Dataset:
    """Rebuild a labeled dataset from a training sample journal.

    The analysis-side counterpart of engine-backed
    :func:`~repro.xentry.training.collect_dataset`: samples are ordered by
    global run index, so a journal of a *finished* collection reconstructs
    exactly the dataset the collection returned.  ``include_partial`` also
    admits samples from shards that never reached their completion marker —
    useful for peeking at an in-flight or killed collection, but such a
    dataset is truncated and its class balance untrustworthy for training.
    """
    state = SampleJournal.read(path)
    if state is None:
        raise JournalError(f"{path}: no sample journal found")
    samples = _by_index(_shards(state, include_partial))
    return Dataset.from_samples(
        [features for features, _ in samples], [label for _, label in samples]
    )


def sample_journal_progress(path: str | Path) -> dict:
    """Summarize a sample journal: progress plus class balance.

    Mirrors :func:`journal_progress` for training collections.  Note
    ``total_runs`` counts *planned activations*; the injection stream yields
    at most one sample per activation, so ``done_samples`` can legitimately
    trail it even when every shard is complete.
    """
    state = SampleJournal.read(path)
    if state is None:
        raise JournalError(f"{path}: no sample journal found")
    done_shards = sorted(state.completed_shards)
    return {
        "total_runs": state.total_trials,
        "done_samples": state.completed_trials,
        "n_shards": state.n_shards,
        "completed_shards": done_shards,
        "partial_samples": sum(len(v) for v in state.partial.values()),
        "fraction_shards_done": (
            len(done_shards) / state.n_shards if state.n_shards else 0.0
        ),
        "labels": _outcomes(state)["labels"],
    }


def journal_progress(path: str | Path) -> dict:
    """Summarize a journal's progress and outcome mix (machine-readable).

    Works on in-flight and dead journals alike; the engine does not need to
    be running.  Keys: ``total_trials``, ``done_trials``, ``n_shards``,
    ``completed_shards``, ``partial_trials``, ``fraction_done`` and, under
    ``outcomes``, the completed shards' outcome counters, as the run
    manifest's ``outcomes`` section renders them.
    """
    state = read_state(path)
    if state is None:
        raise JournalError(f"{path}: no journal found")
    done = state.completed_trials
    return {
        "total_trials": state.total_trials,
        "done_trials": done,
        "n_shards": state.n_shards,
        "completed_shards": sorted(state.completed_shards),
        "partial_trials": sum(len(v) for v in state.partial.values()),
        "fraction_done": done / state.total_trials if state.total_trials else 0.0,
        "outcomes": _outcomes(state),
    }
