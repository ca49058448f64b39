"""Deterministic engine-level fault injection: chaos for the campaign engine.

The campaign injects bit flips into the simulated CPU; this module injects
faults into the *engine itself* — worker crashes (soft and hard), worker
hangs, and journal write failures — so every recovery path of the shard
supervisor has a reproducible test.  Mirroring the fault model's derivation
of bit flips from ``(seed, benchmark, mode, group)``, every chaos decision
is a pure function of ``(seed, kind, shard, attempt)``: the same policy
replayed against the same campaign fires the same faults at the same trials,
regardless of worker scheduling.

Fault kinds:

``crash``
    The worker raises :class:`~repro.errors.ChaosInjected` after *k* records
    (an exception crash: the future fails, the supervisor retries).
``hard_crash``
    The worker dies with ``os._exit`` — no unwinding, no result — which
    breaks the process pool exactly like a segfault or OOM kill would.
``hang``
    The worker sleeps ``hang_seconds`` mid-shard; only the supervisor's
    wall-clock watchdog can reclaim it.
``journal error / truncate``
    ``append_shard`` fails with :class:`OSError`; the ``truncate`` variant
    first writes a torn tail (begin marker + some trial lines, no
    ``shard_done``), the on-disk shape of a crash mid-append.

A policy never changes *what* a shard computes — the tripwire only counts
records — so a chaos campaign whose retries succeed is bit-identical to an
undisturbed run.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro import rng as rng_mod
from repro.errors import CampaignConfigError, ChaosInjected

__all__ = [
    "ChaosPolicy",
    "ChaosTripwire",
    "ShardChaos",
    "inject_journal_fault",
    "parse_chaos_spec",
]

#: Worker faults fire after 0..(_FAULT_WINDOW - 1) records of the shard, so
#: the crash/hang position varies (including "before the first trial").
_FAULT_WINDOW = 4


@dataclass(frozen=True)
class ShardChaos:
    """Resolved chaos decisions for one ``(shard, attempt)`` execution."""

    #: Raise (or ``os._exit`` when ``hard``) after this many records.
    crash_after: int | None = None
    hard: bool = False
    #: Sleep ``hang_seconds`` after this many records.
    hang_after: int | None = None
    hang_seconds: float = 0.0

    @property
    def quiet(self) -> bool:
        """True when this attempt runs undisturbed."""
        return self.crash_after is None and self.hang_after is None


class ChaosTripwire:
    """Arms a :class:`ShardChaos` inside a worker.

    ``step()`` is called once when the shard starts and once after every
    produced record; the planned fault fires when the record count reaches
    its position.  The tripwire never touches the records themselves.
    """

    def __init__(self, plan: ShardChaos) -> None:
        self.plan = plan
        self.records = -1

    def step(self, _record=None) -> None:
        """Advance the record counter and fire any fault scheduled here."""
        self.records += 1
        plan = self.plan
        if plan.hang_after is not None and self.records == plan.hang_after:
            time.sleep(plan.hang_seconds)
        if plan.crash_after is not None and self.records == plan.crash_after:
            if plan.hard:
                # A hard death: no exception, no cleanup, no result — the
                # pool sees exactly what a segfaulted worker looks like.
                os._exit(86)
            raise ChaosInjected(
                f"chaos: injected worker crash after {self.records} records"
            )


@dataclass(frozen=True)
class ChaosPolicy:
    """Seeded, deterministic engine-fault injection policy.

    Each rate is the per-attempt probability that the corresponding fault
    fires, drawn from an independent named stream keyed by
    ``(seed, kind, shard, attempt)`` — decisions are reproducible and
    order-independent.  ``shards`` restricts injection to specific shard
    indices; ``only_attempt`` restricts it to one attempt number (e.g. ``0``
    makes every fault transient: first attempts fail, retries succeed).
    """

    seed: int = 0
    crash_rate: float = 0.0
    hard_crash_rate: float = 0.0
    hang_rate: float = 0.0
    journal_error_rate: float = 0.0
    journal_truncate_rate: float = 0.0
    hang_seconds: float = 30.0
    shards: tuple[int, ...] | None = None
    only_attempt: int | None = None

    def __post_init__(self) -> None:
        for name in ("crash_rate", "hard_crash_rate", "hang_rate",
                     "journal_error_rate", "journal_truncate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise CampaignConfigError(f"{name} must be in [0, 1], got {rate}")
        if self.hang_seconds < 0:
            raise CampaignConfigError("hang_seconds must be non-negative")

    # -- deterministic draws --------------------------------------------------

    def _fires(self, kind: str, shard: int, attempt: int, rate: float) -> bool:
        if rate <= 0.0:
            return False
        if self.shards is not None and shard not in self.shards:
            return False
        if self.only_attempt is not None and attempt != self.only_attempt:
            return False
        if rate >= 1.0:
            return True
        draw = rng_mod.stream(self.seed, "chaos", kind, shard, attempt).random()
        return float(draw) < rate

    def _position(self, kind: str, shard: int, attempt: int) -> int:
        rng = rng_mod.stream(self.seed, "chaos", kind, shard, attempt)
        return int(rng.integers(0, _FAULT_WINDOW))

    # -- the two injection sites ----------------------------------------------

    def plan(self, shard: int, attempt: int, *, allow_hard: bool = True) -> ShardChaos:
        """Worker faults for one ``(shard, attempt)`` execution.

        ``allow_hard=False`` (serial mode, where the "worker" is the engine
        process itself) degrades a hard crash to an exception crash.
        """
        crash_after: int | None = None
        hard = False
        if self._fires("hard_crash", shard, attempt, self.hard_crash_rate):
            crash_after = self._position("hard_crash_at", shard, attempt)
            hard = allow_hard
        elif self._fires("crash", shard, attempt, self.crash_rate):
            crash_after = self._position("crash_at", shard, attempt)
        hang_after: int | None = None
        if self._fires("hang", shard, attempt, self.hang_rate):
            hang_after = self._position("hang_at", shard, attempt)
        return ShardChaos(
            crash_after=crash_after,
            hard=hard,
            hang_after=hang_after,
            hang_seconds=self.hang_seconds,
        )

    def journal_fault(self, shard: int, attempt: int) -> str | None:
        """Journal fault for one append attempt: ``"truncate"``, ``"error"``
        or ``None``.  Drawn separately from worker faults because the journal
        append has its own retry counter."""
        if self._fires("journal_truncate", shard, attempt, self.journal_truncate_rate):
            return "truncate"
        if self._fires("journal_error", shard, attempt, self.journal_error_rate):
            return "error"
        return None


def inject_journal_fault(journal, shard_index: int, trials, fault: str) -> None:
    """Apply a planned journal fault; always raises :class:`OSError`.

    ``"truncate"`` first writes a torn tail through
    :meth:`~repro.engine.journal.TrialJournal.append_torn` — begin marker and
    half the trial lines, no durability marker — so the journal afterwards
    looks exactly like a crash mid-``append_shard``.
    """
    if fault == "truncate":
        torn = max(1, len(trials) // 2)
        journal.append_torn(shard_index, trials[:torn])
        raise OSError(
            f"chaos: journal write torn after {torn} trials of shard {shard_index}"
        )
    raise OSError(f"chaos: journal write failed for shard {shard_index}")


_SPEC_FIELDS = {
    "crash": "crash_rate",
    "hard": "hard_crash_rate",
    "hang": "hang_rate",
    "journal": "journal_error_rate",
    "truncate": "journal_truncate_rate",
    "seed": "seed",
    "hang-seconds": "hang_seconds",
}


def parse_chaos_spec(spec: str) -> ChaosPolicy:
    """Parse the CLI ``--chaos`` spec into a :class:`ChaosPolicy`.

    A bare float is shorthand for an exception-crash rate; otherwise the
    spec is comma-separated ``key=value`` pairs::

        --chaos 0.2
        --chaos crash=0.2,hard=0.05,hang=0.1,journal=0.05,truncate=0.05,seed=1
    """
    spec = spec.strip()
    try:
        bare_rate = float(spec)
    except ValueError:
        pass
    else:
        return ChaosPolicy(crash_rate=bare_rate)
    kwargs: dict[str, float | int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        field_name = _SPEC_FIELDS.get(key.strip())
        if field_name is None or not sep:
            raise CampaignConfigError(
                f"bad --chaos field {part!r} (known: {sorted(_SPEC_FIELDS)})"
            )
        try:
            kwargs[field_name] = (
                int(value) if field_name == "seed" else float(value)
            )
        except ValueError as exc:
            raise CampaignConfigError(f"bad --chaos value {part!r}") from exc
    return ChaosPolicy(**kwargs)
