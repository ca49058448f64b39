"""Crash-safe sharded journals: durable engine progress as JSON lines.

The journal is the engine's write-ahead log.  Each completed shard is
appended as one batch — its payload lines followed by a ``shard_done``
marker — and the file is fsync'd before the shard is considered durable.
A run killed mid-flight therefore leaves a journal whose completed shards
are fully recorded and whose in-flight shard is at worst a partial tail;
on resume the engine skips every shard with a marker and re-runs the rest,
so the merged result has no duplicated and no missing items.

Two payload kinds share the machinery: :class:`TrialJournal` records
fault-injection trials (``xentry-journal-v1``), and :class:`SampleJournal`
records labeled training samples from engine-backed dataset collection
(``xentry-samples-v1``).  Subclasses differ only in their header format
string and their payload codec; the line structure is identical::

    {"format": "xentry-journal-v1", "digest": ..., "n_shards": N, "total_trials": T}
    {"kind": "shard_begin", "shard": 3}                            # append started
    {"kind": "trial", "shard": 3, "trial": 1287, "rec": {...}}     # one per item
    {"kind": "shard_done", "shard": 3, "n_trials": 96}             # durability marker
    {"kind": "shard_failed", "shard": 3, "attempts": 3, ...}       # quarantined

A truncated final line (the crash case) is tolerated and ignored, and
cut off when the journal is resumed, so the next append starts on a line
of its own; a digest mismatch (journal from a different campaign) raises
:class:`JournalError`.
The ``shard_begin`` marker makes partial tails self-healing: a re-run of a
shard whose previous append was torn (crash or injected journal fault mid
write) starts with a fresh marker, so the stale trial lines are superseded
instead of corrupting the ``shard_done`` count.  ``shard_failed`` records a
quarantined shard; a later successful recording of the same shard (e.g. on
resume) wins over the failure marker.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import JournalError
from repro.faults.outcomes import TrialRecord
from repro.persist import _record_from_dict, _record_to_dict

__all__ = [
    "JOURNAL_FORMAT",
    "SAMPLE_JOURNAL_FORMAT",
    "JournalState",
    "SampleJournal",
    "TrialJournal",
    "read_state",
]

JOURNAL_FORMAT = "xentry-journal-v1"
SAMPLE_JOURNAL_FORMAT = "xentry-samples-v1"


def _sample_to_dict(sample: tuple[tuple[int, ...], int]) -> dict:
    features, label = sample
    return {"x": [int(v) for v in features], "y": int(label)}


def _sample_from_dict(data: dict) -> tuple[tuple[int, ...], int]:
    return tuple(int(v) for v in data["x"]), int(data["y"])


@dataclass
class JournalState:
    """Parsed contents of a journal file."""

    digest: str
    n_shards: int
    total_trials: int
    #: Completed shards: shard index -> [(global trial index, record), ...].
    completed: dict[int, list[tuple[int, TrialRecord]]] = field(default_factory=dict)
    #: Trials journalled for shards that never reached their marker.
    partial: dict[int, list[tuple[int, TrialRecord]]] = field(default_factory=dict)
    #: Quarantined shards: shard index -> {"attempts", "kind", "error"}.
    #: A shard here has no completed recording; resume re-runs it.
    failed: dict[int, dict] = field(default_factory=dict)

    @property
    def completed_shards(self) -> frozenset[int]:
        """Indices of shards whose ``shard_done`` marker was written."""
        return frozenset(self.completed)

    @property
    def completed_trials(self) -> int:
        """Number of durably recorded trials."""
        return sum(len(v) for v in self.completed.values())


class TrialJournal:
    """Append-per-shard journal bound to one campaign identity.

    Open with :meth:`open` (or :meth:`create` for a fresh campaign and
    :meth:`resume` to continue one); each returns a journal whose
    :meth:`append_shard` durably records a finished shard.  Use
    :func:`read_state` (or the :meth:`read` classmethod on a subclass) to
    inspect a journal without holding it open.

    Subclasses swap the header format string and the payload codec to
    journal other item kinds over the same crash-safety machinery.
    """

    #: Header format string; a journal of a different format is rejected.
    FORMAT = JOURNAL_FORMAT
    #: Payload codec: item -> JSON-able dict and back.
    _encode = staticmethod(_record_to_dict)
    _decode = staticmethod(_record_from_dict)

    def __init__(self, path: str | Path, state: JournalState, *, _fh) -> None:
        self.path = Path(path)
        self.state = state
        self._fh = _fh

    # -- opening -------------------------------------------------------------

    @classmethod
    def open(
        cls, path: str | Path, *, digest: str, n_shards: int, total_trials: int,
        resume: bool,
    ) -> "TrialJournal":
        """Create the journal at ``path``, or continue it when ``resume``.

        A missing or empty file starts a fresh journal either way; an
        existing one is never clobbered: without ``resume`` it is a
        :class:`JournalError`, with it :meth:`resume` validates ``digest``.
        """
        path = Path(path)
        if not path.exists() or path.stat().st_size == 0:
            return cls.create(
                path, digest=digest, n_shards=n_shards, total_trials=total_trials
            )
        if not resume:
            raise JournalError(
                f"{path}: journal exists; pass resume=True (--resume) to "
                "continue it or remove the file"
            )
        return cls.resume(path, digest=digest)

    @classmethod
    def create(
        cls, path: str | Path, *, digest: str, n_shards: int, total_trials: int
    ) -> "TrialJournal":
        """Start a fresh journal; refuses to clobber an existing one."""
        path = Path(path)
        if path.exists() and path.stat().st_size > 0:
            raise JournalError(
                f"{path}: journal already exists; resume it or remove the file"
            )
        fh = open(path, "a")
        header = {
            "format": cls.FORMAT,
            "digest": digest,
            "n_shards": n_shards,
            "total_trials": total_trials,
        }
        fh.write(json.dumps(header) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
        state = JournalState(digest=digest, n_shards=n_shards, total_trials=total_trials)
        return cls(path, state, _fh=fh)

    @classmethod
    def resume(cls, path: str | Path, *, digest: str) -> "TrialJournal":
        """Reopen an existing journal, validating it belongs to ``digest``.

        An unterminated final line (a crash mid-append) is cut off first:
        appended after it, the next shard's first line would be glued to the
        fragment, and :meth:`read` stops at the first line it cannot parse.
        """
        state = cls.read(path)
        if state is None:
            raise JournalError(f"{path}: no journal to resume")
        if state.digest != digest:
            raise JournalError(
                f"{path}: journal belongs to a different campaign "
                f"(digest {state.digest}, expected {digest})"
            )
        _cut_torn_tail(path)
        return cls(path, state, _fh=open(path, "a"))

    @classmethod
    def read(cls, path: str | Path) -> JournalState | None:
        """Parse a journal of this class's format without holding it open."""
        return _read_state(path, fmt=cls.FORMAT, decode=cls._decode)

    # -- writing -------------------------------------------------------------

    @classmethod
    def _trial_lines(
        cls, shard_index: int, trials: list[tuple[int, TrialRecord]]
    ) -> list[str]:
        return [
            json.dumps(
                {"kind": "trial", "shard": shard_index, "trial": t,
                 "rec": cls._encode(record)}
            )
            for t, record in trials
        ]

    def append_shard(
        self, shard_index: int, trials: list[tuple[int, TrialRecord]]
    ) -> None:
        """Durably record one finished shard (begin + records + done + fsync).

        The leading ``shard_begin`` marker supersedes any torn trial lines a
        previous attempt left for this shard, so retrying an interrupted
        append (or re-running the shard after a crash) is always safe.
        """
        if shard_index in self.state.completed:
            raise JournalError(f"shard {shard_index} already journalled")
        lines = [json.dumps({"kind": "shard_begin", "shard": shard_index})]
        lines.extend(self._trial_lines(shard_index, trials))
        lines.append(
            json.dumps(
                {"kind": "shard_done", "shard": shard_index, "n_trials": len(trials)}
            )
        )
        self._fh.write("\n".join(lines) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.state.completed[shard_index] = list(trials)
        self.state.partial.pop(shard_index, None)
        self.state.failed.pop(shard_index, None)

    def append_torn(
        self, shard_index: int, trials: list[tuple[int, TrialRecord]]
    ) -> None:
        """Write a begin marker and trial lines but *no* ``shard_done``.

        This is the on-disk shape of an append interrupted mid-write; the
        chaos harness uses it to simulate that crash deterministically.
        :func:`read_state` reports the trials under ``partial``.
        """
        lines = [json.dumps({"kind": "shard_begin", "shard": shard_index})]
        lines.extend(self._trial_lines(shard_index, trials))
        self._fh.write("\n".join(lines) + "\n")
        self._fh.flush()

    def append_failed(
        self, shard_index: int, *, attempts: int, kind: str, error: str
    ) -> None:
        """Durably record a quarantined shard; a resume will re-run it."""
        line = json.dumps(
            {"kind": "shard_failed", "shard": shard_index,
             "attempts": attempts, "error_kind": kind, "error": error}
        )
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.state.failed[shard_index] = {
            "attempts": attempts, "kind": kind, "error": error,
        }

    def close(self) -> None:
        """Flush, fsync and close the underlying file handle (idempotent).

        The fsync guarantees that everything written — including advisory
        markers that were only flushed — is durable before the handle goes
        away, so a journal closed cleanly never loses its tail.
        """
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TrialJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SampleJournal(TrialJournal):
    """Sharded journal of labeled training samples.

    The durable artifact of engine-backed :func:`~repro.xentry.training.
    collect_dataset`: each item is a ``(features, label)`` pair, journalled
    per collection shard with the same crash-safety and resume semantics as
    campaign trials.  ``total_trials`` in the header counts *planned
    activations* — the injection stream yields at most one sample per
    activation, so a shard's recorded count may be smaller than its plan.
    """

    FORMAT = SAMPLE_JOURNAL_FORMAT
    _encode = staticmethod(_sample_to_dict)
    _decode = staticmethod(_sample_from_dict)


def _cut_torn_tail(path: str | Path) -> None:
    """Cut ``path`` back to its last complete line."""
    with open(path, "rb+") as fh:
        data = fh.read()
        if data.endswith(b"\n"):
            return
        end = data.rfind(b"\n") + 1
        if end:
            fh.truncate(end)
        else:  # the header alone, which parsed: terminate it
            fh.write(b"\n")
        fh.flush()
        os.fsync(fh.fileno())


def read_state(path: str | Path) -> JournalState | None:
    """Parse a *trial* journal file; ``None`` when it is missing or empty.

    Tolerates a truncated trailing line (crash mid-append); everything before
    it parses normally.  Shards recorded more than once (a shard re-run after
    an aborted resume) keep their latest complete recording.  For sample
    journals use :meth:`SampleJournal.read`.
    """
    return _read_state(path, fmt=JOURNAL_FORMAT, decode=_record_from_dict)


def _read_state(path: str | Path, *, fmt: str, decode) -> JournalState | None:
    path = Path(path)
    if not path.exists() or path.stat().st_size == 0:
        return None
    with open(path) as fh:
        try:
            header = json.loads(fh.readline())
        except json.JSONDecodeError as exc:
            raise JournalError(f"{path}: unreadable journal header") from exc
        if header.get("format") != fmt:
            raise JournalError(f"{path}: not a {fmt} file")
        state = JournalState(
            digest=header["digest"],
            n_shards=int(header["n_shards"]),
            total_trials=int(header["total_trials"]),
        )
        pending: dict[int, list[tuple[int, TrialRecord]]] = {}
        for line in fh:
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                break  # truncated tail from a crash: ignore it and stop
            kind = entry.get("kind")
            if kind == "trial":
                pending.setdefault(entry["shard"], []).append(
                    (entry["trial"], decode(entry["rec"]))
                )
            elif kind == "shard_begin":
                # A fresh append supersedes any torn tail this shard left
                # behind (crash or injected journal fault mid-write).
                pending[entry["shard"]] = []
            elif kind == "shard_done":
                shard = entry["shard"]
                trials = pending.pop(shard, [])
                if len(trials) != entry["n_trials"]:
                    raise JournalError(
                        f"{path}: shard {shard} marker says {entry['n_trials']} "
                        f"trials, found {len(trials)}"
                    )
                state.completed[shard] = trials
                state.failed.pop(shard, None)
            elif kind == "shard_failed":
                shard = entry["shard"]
                if shard not in state.completed:
                    state.failed[shard] = {
                        "attempts": entry.get("attempts", 0),
                        "kind": entry.get("error_kind", "unknown"),
                        "error": entry.get("error", ""),
                    }
            else:
                raise JournalError(f"{path}: unknown journal line kind {kind!r}")
        state.partial = pending
    return state
