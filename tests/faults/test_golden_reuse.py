"""Golden reuse ≡ executing everything.

A trial executes only what reads corrupted state: a follow-up whose golden
twin read no word in which the trial's memory differs from the golden's,
with no flip pending, takes its golden result, and a memory fault's
activation is not executed when the golden activation never reads the
flipped word (:mod:`repro.faults.injector`).  These tests hold both to the
execute-everything oracle (:mod:`tests.faults.execute_all`): records are
bit-identical, and live memory equals the oracle's before the first
follow-up that really executes and at the end of every trial (with the
golden writes of a window that executed nothing applied).
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro.faults import capture_golden, injector, run_spec_trial, run_twin_batch
from repro.faults.outcomes import FailureClass, FaultSpec, MemoryFaultSpec
from repro.faults.propagation import materialize_followups, prepared_words
from repro.hypervisor import XenHypervisor
from repro.machine.memory import AccessLog, ExecutionLog, Memory, Region
from repro.metrics import CampaignCounters, counted
from tests.faults.execute_all import executing_everything, run_followups_executing_all
from tests.faults.test_lazy_followups import (
    MODELS,
    FlagAll,
    OddRuntime,
    sample_faults,
    stream,
)

ZERO = bytes(4096)


def memory_image(hv) -> dict[int, bytes]:
    """Live memory, with all-zero pages left out (they read as absent)."""
    return {
        base: bytes(page) for base, page in hv.memory._pages.items() if page != ZERO
    }


def window_of(golden, followups):
    return tuple(zip(followups, golden.followups, golden.followup_logs))


class Recorder:
    """Wraps a follow-up window: records live memory before each follow-up
    it executes, and when it ends.  A window that executed nothing has its
    follow-ups' golden writes applied first, so its end state is the one
    the next real execution would see."""

    def __init__(self, window):
        self.window = window
        self.windows: list[dict] = []

    def __call__(self, hv, activation, fault, followups, golden, *args, **kwargs):
        if golden.followups is None:
            materialize_followups(hv, golden, followups)
        executed: dict[int, dict] = {}

        def execute(follow, **kw):
            executed[followups.index(follow)] = memory_image(hv)
            return type(hv).execute(hv, follow, **kw)

        hv.execute = execute
        try:
            out = self.window(hv, activation, fault, followups, golden, *args, **kwargs)
        finally:
            del hv.execute
        if not executed:
            injector._replay_golden(hv, window_of(golden, followups))
        self.windows.append({"executed": executed, "end": memory_image(hv)})
        return out


@dataclasses.dataclass
class Trials:
    records: list
    images: list  # live memory after each trial
    windows: list
    counts: CampaignCounters


def run_trials(hv, start, activation, followups, faults, golden, *, oracle,
               twin_batch=False, detector=None) -> Trials:
    """Run ``faults`` from ``start`` the production way or the oracle's."""
    hv.restore(start)
    hv.cpu.clear_injection()
    images = []
    recorder = Recorder(run_followups_executing_all if oracle else injector._run_followups)

    def run():
        if twin_batch:
            return run_twin_batch(
                hv, activation, faults, golden=golden, followups=followups,
                detector=detector, on_record=lambda _: images.append(memory_image(hv)),
            )
        records = []
        for fault in faults:
            records.append(run_spec_trial(
                hv, activation, fault, golden=golden, followups=followups,
                detector=detector,
            ))
            images.append(memory_image(hv))
        return records

    if oracle:
        with executing_everything(run_followups=recorder):
            records, counts = counted(run)
    else:
        with mock.patch.object(injector, "_run_followups", recorder):
            records, counts = counted(run)
    return Trials(records, images, recorder.windows, CampaignCounters.folded(counts))


def assert_same_as_oracle(got: Trials, want: Trials) -> None:
    assert got.records == want.records
    assert got.images == want.images
    assert len(got.windows) == len(want.windows)
    for mine, theirs in zip(got.windows, want.windows):
        if mine["executed"]:
            first = min(mine["executed"])
            assert mine["executed"][first] == theirs["executed"][first]
        assert mine["end"] == theirs["end"]


@pytest.mark.parametrize("twin_batch", [True, False], ids=["twins", "per-trial"])
@pytest.mark.parametrize("kind", sorted(MODELS))
def test_records_and_memory_equal_oracle(kind, twin_batch):
    hv = XenHypervisor(seed=4)
    rng = np.random.default_rng(29)
    taken = executed = activations = 0
    for benchmark in ("postmark", "mcf"):
        hv.reset()
        for g, (activation, followups) in enumerate(stream(benchmark, 8)):
            hv.cpu.clear_injection()
            start = hv.checkpoint()
            golden = capture_golden(hv, activation)
            faults = sample_faults(MODELS[kind], rng, hv, golden.result.instructions, 6)
            detector = OddRuntime() if g % 3 == 0 else None
            got = run_trials(hv, start, activation, followups, faults, golden,
                             oracle=False, twin_batch=twin_batch, detector=detector)
            want = run_trials(hv, start, activation, followups, faults, golden,
                              oracle=True, twin_batch=twin_batch, detector=detector)
            assert_same_as_oracle(got, want)
            taken += got.counts.followups_from_golden.value
            executed += got.counts.followups_executed.value
            activations += got.counts.trials_from_golden.value
            hv.restore(golden.after)
    assert taken > 0 and executed > 0
    assert (activations > 0) == (kind == "memory")


@pytest.fixture(scope="module")
def group():
    """One golden group with its follow-ups materialized."""
    hv = XenHypervisor(seed=6)
    hv.reset()
    (activation, followups), = stream("postmark", 1)
    start = hv.checkpoint()
    golden = capture_golden(hv, activation)
    materialize_followups(hv, golden, followups)
    return hv, start, activation, followups, golden


def run_window(hv, activation, followups, golden, setup, *, oracle, detector=None):
    """Put the trial state in place with ``setup(hv)``, then run the window."""
    setup(hv)
    recorder = Recorder(run_followups_executing_all if oracle else injector._run_followups)
    fault = FaultSpec("rax", 0, 0)
    out, counts = counted(
        recorder, hv, activation, fault, followups, golden, FailureClass.LATENT, True,
        base_latency=17, detector=detector, benchmark="postmark",
    )
    return out, recorder.windows[0], CampaignCounters.folded(counts)


def assert_window_matches(hv, activation, followups, golden, setup, detector=None):
    got, got_mem, counts = run_window(
        hv, activation, followups, golden, setup, oracle=False, detector=detector)
    want, want_mem, _ = run_window(
        hv, activation, followups, golden, setup, oracle=True, detector=detector)
    assert got == want
    if got_mem["executed"]:
        first = min(got_mem["executed"])
        assert got_mem["executed"][first] == want_mem["executed"][first]
    assert got_mem["end"] == want_mem["end"]
    return got, counts


def _corrupt_scratch(hv, golden):
    hv.restore(golden.after)
    hv.memory.write_u64(hv.layout.scratch.word_address(1), 0x5EED)


def test_pending_flip_executes_the_window(group):
    """A flip scheduled past the activation strikes in a follow-up, so no
    follow-up may be taken from the golden while it is pending."""
    hv, _, activation, followups, golden = group

    def setup(hv):
        _corrupt_scratch(hv, golden)
        hv.cpu.schedule_flips(5, (("rsp", 40),))

    got, counts = assert_window_matches(hv, activation, followups, golden, setup)
    assert got[0] is not None  # the flip struck and was caught
    assert counts.followups_from_golden.value == 0
    hv.cpu.clear_injection()


def test_live_activation_watch_does_not_block_reuse(group):
    """A watch still armed after the activation only observes: the window
    takes golden results past it, and records and memory still match."""
    hv, start, activation, followups, golden = group

    def setup(hv):
        hv.restore(golden.checkpoint)
        hv.cpu.schedule_flips(golden.result.instructions - 1, (("rbx", 3),))
        hv.execute(activation)
        assert hv.cpu.injection_report.activated is None  # still watching
        hv.memory.write_u64(hv.layout.scratch.word_address(1), 0x5EED)

    _, counts = assert_window_matches(hv, activation, followups, golden, setup)
    assert counts.followups_from_golden.value > 0
    hv.cpu.clear_injection()


def test_detection_after_skipped_followups_sums_golden_latency(group):
    """Corrupt a word that only a later follow-up reads: the ones before it
    are taken from the golden, and a detection in the executed one counts
    their golden instructions in its latency."""
    hv, _, activation, followups, golden = group
    window = window_of(golden, followups)
    detected = 0
    for k in range(1, len(window)):
        earlier = set()
        for follow, _, log in window[:k]:
            earlier |= {*log.reads, *log.writes, *prepared_words(hv, follow)[0]}
        for word in (w for w in window[k][2].reads if w not in earlier):
            def setup(hv, word=word):
                hv.restore(golden.after)
                hv.memory.write_u64(word, hv.memory.read_u64(word) ^ (1 << 40))

            got, counts = assert_window_matches(
                hv, activation, followups, golden, setup, detector=FlagAll())
            assert counts.followups_from_golden.value == k
            record, _ = got
            if record is not None and record.detected:
                detected += 1
                skipped = sum(result.instructions for _, result, _ in window[:k])
                assert record.detection_latency >= 17 + skipped
    assert detected > 0


def test_differing_words_rewritten_by_prepare_stop_differing(group):
    """A word a follow-up's ``prepare()`` rewrites no longer differs after
    it, whatever a later execution reads."""
    hv, _, activation, followups, golden = group
    frame = hv.prepare_writes(followups[0])[1][0]  # the guest rax word it rewrites
    window = list(window_of(golden, followups))
    follow, result, log = window[1]
    window[1] = (follow, result, dataclasses.replace(log, reads=(frame, *log.reads)))
    hv.restore(golden.after)
    hv.memory.write_u64(frame, hv.memory.read_u64(frame) ^ 1)
    assert injector._golden_prefix(hv, golden, tuple(window)) == len(window)


def _memory_trial(hv, start, activation, followups, golden, address, detector):
    fault = MemoryFaultSpec(address=address, bit=4)
    got = run_trials(hv, start, activation, followups, [fault], golden,
                     oracle=False, detector=detector)
    want = run_trials(hv, start, activation, followups, [fault], golden,
                      oracle=True, detector=detector)
    assert_same_as_oracle(got, want)
    return got.counts


@pytest.mark.parametrize("detector", [None, FlagAll()], ids=["window", "flagged"])
def test_memory_flip_targets(group, detector):
    """Flip a word the activation reads, one its handler writes, one in the
    guest-request block ``prepare()`` rewrites, and one nobody touches."""
    hv, start, activation, followups, golden = group
    log = golden.log
    prepared = set(prepared_words(hv, activation)[0])
    heap = hv.memory.region("hypervisor_heap")
    touched = {*log.reads, *log.writes, *prepared}
    targets = {
        "read": log.reads[0],
        "written": next(w for w in log.writes if w not in log.reads),
        "prepared": hv.layout.guest_request.word_address(3),
        "untouched": next(w for w in range(heap.base, heap.end, 8) if w not in touched),
    }
    assert targets["prepared"] in prepared
    for name, address in targets.items():
        counts = _memory_trial(hv, start, activation, followups, golden, address, detector)
        from_golden = counts.trials_from_golden.value
        assert from_golden == (0 if name == "read" else 1), name
        assert counts.trials_replayed.value == 1 - from_golden


def test_unaligned_store_in_golden_followup():
    """A base register off by four bytes makes the handlers' stores
    unaligned: each partly written word counts as read, so a word whose
    kept bytes differ stops the window at the first follow-up that stores
    into it, even when that follow-up never loads it."""
    hv = XenHypervisor(seed=6)
    prepare = hv.prepare

    def misaligned(activation, *, core_id=0):
        prepare(activation, core_id=core_id)
        hv.cores[core_id].regs["r13"] += 4

    hv.prepare = misaligned
    hv.reset()
    (activation, followups), = stream("postmark", 1)
    golden = capture_golden(hv, activation)
    materialize_followups(hv, golden, followups)
    log = golden.followup_logs[0]
    assert any(w in log.reads for w in log.writes)
    for word in sorted({w for log in golden.followup_logs for w in log.writes}):
        def setup(hv, word=word):
            hv.restore(golden.after)
            hv.memory.write_u64(word, hv.memory.read_u64(word) ^ (1 | 1 << 63))

        assert_window_matches(hv, activation, followups, golden, setup)


# -- the logs themselves ------------------------------------------------------


def _memory():
    memory = Memory()
    memory.map_region(Region("ram", 0x1000, 0x2000))
    return memory


def test_access_log_exposed_reads_and_write_log():
    memory = _memory()
    memory.write_u64(0x1000, 7)
    log = AccessLog(memory, written=[0x1010], partial=[0x1040])
    log.read_u64(0x1000)          # exposed
    log.write_u64(0x1008, 5)      # written whole, never read first
    log.read_u64(0x1008)          # not exposed: written earlier
    log.read_u64(0x1010)          # not exposed: written by setup
    log.write_u64(0x1000, 9)      # read earlier, now written
    assert log.result() == ExecutionLog(
        reads=(0x1000, 0x1040), writes=(0x1000, 0x1008), values=(9, 5),
    )


def test_access_log_partial_words_count_as_read():
    memory = _memory()
    log = AccessLog(memory)
    log.write_u64(0x1024, 0x1122334455667788)  # spans 0x1020 and 0x1028
    log.read_u64(0x1034)                       # spans 0x1030 and 0x1038
    out = log.result()
    assert out.reads == (0x1020, 0x1028, 0x1030, 0x1038)
    assert out.writes == (0x1020, 0x1028)
    assert out.values == (memory.read_u64(0x1020), memory.read_u64(0x1028))


def test_prepared_words_cover_prepare_writes_exactly(group):
    hv, _, activation, _, _ = group
    whole, part = prepared_words(hv, activation)
    assert part == []
    expected = {
        address + offset
        for address, data in hv.prepare_writes(activation)
        for offset in range(0, len(data), 8)
    }
    assert set(whole) == expected
    # prepare() writes exactly these words, and no others.
    hv.restore(hv.checkpoint())
    before = memory_image(hv)
    hv.prepare(activation)
    after = memory_image(hv)
    changed = {
        base + off
        for base in after
        for off in range(0, 4096, 8)
        if after[base][off:off + 8] != before.get(base, ZERO)[off:off + 8]
    }
    assert changed <= expected
