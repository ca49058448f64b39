"""Artifact codec: bit-exact round trips and corruption rejection.

The codec's contract has two halves.  Forward: a decoded golden group must
be *functionally identical* to the captured one — same results, same page
contents, same TwinPlan slot stream — with structural sharing preserved so the
campaign's identity-diff restore stays cheap.  Backward: any damaged input
(truncation, bit rot, torn write, version bump, garbage) must raise
:class:`ArtifactCorrupt` — never a stray ``KeyError``/``struct.error``, and
never a silently wrong payload — because the runtime maps that one exception
to the live-capture fallback.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.artifacts import codec
from repro.artifacts.codec import (
    MAGIC,
    ArtifactCorrupt,
    decode_group,
    encode_group,
)
from repro.faults import capture_golden
from repro.faults.injector import trace_plan
from repro.faults.propagation import materialize_followups
from repro.hypervisor import Activation, REGISTRY, XenHypervisor
from repro.machine import lockstep
from repro.machine.lockstep import classify_twin

DIGEST = "ab" * 32
PROGRAM = XenHypervisor(seed=23).program


def _header(blob: bytes) -> dict:
    n = int.from_bytes(blob[len(MAGIC):len(MAGIC) + 8], "little")
    return json.loads(blob[len(MAGIC) + 8:len(MAGIC) + 8 + n])


def act(name: str, *args: int, seq=0) -> Activation:
    return Activation(vmer=REGISTRY.by_name(name).vmer, args=args, domain_id=1, seq=seq)


FOLLOWUPS = (act("sched_op", 2, 1, seq=1), act("page_fault", 4, seq=2))


@pytest.fixture(scope="module")
def captured():
    hv = XenHypervisor(seed=23)
    golden = capture_golden(hv, act("apic_timer", 3))
    plan = trace_plan(hv.program, golden)
    materialize_followups(hv, golden, FOLLOWUPS)
    return golden, plan


@pytest.fixture(scope="module")
def lazy():
    """A golden no trial asked follow-ups of."""
    hv = XenHypervisor(seed=23)
    return capture_golden(hv, act("apic_timer", 3))


@pytest.fixture(scope="module")
def rerun():
    """A golden whose activation already ran once from its checkpoint's
    state, so the run rewrites some pages with the contents they held."""
    hv = XenHypervisor(seed=23)
    hv.execute(act("apic_timer", 3))
    golden = capture_golden(hv, act("apic_timer", 3))
    return golden, encode_group(DIGEST, golden, None)


@pytest.fixture(scope="module")
def blob(captured):
    golden, plan = captured
    return encode_group(DIGEST, golden, plan)


class TestRoundTrip:
    def test_golden_round_trips_bit_exact(self, captured, blob):
        golden, _ = captured
        payload = decode_group(blob, registry=REGISTRY, program=PROGRAM)
        assert payload.digest == DIGEST
        out = payload.golden
        assert out.result == golden.result
        assert len(golden.followups) == 2 and out.followups == golden.followups
        assert out.outputs == golden.outputs
        # memoryview == bytes compares contents.  The heap image is not
        # stored: it is cut out of the post-run pages.
        assert bytes(out.heap_image) == bytes(golden.heap_image)
        for mine, theirs in ((out.checkpoint, golden.checkpoint), (out.after, golden.after)):
            assert mine.pages.keys() == theirs.pages.keys()
            for base, page in theirs.pages.items():
                assert mine.pages[base] == page
        # The recorded stream is not stored: the artifact carries its plan.
        assert golden.trace and out.trace == ()

    def test_unmaterialized_followups_round_trip_as_none(self, lazy):
        assert lazy.followups is None
        out = decode_group(encode_group(DIGEST, lazy, None), registry=REGISTRY, program=PROGRAM).golden
        assert out.followups is None
        assert bytes(out.heap_image) == bytes(lazy.heap_image)
        assert out.after == lazy.after

    def test_execution_logs_round_trip(self, captured, blob, lazy):
        golden, _ = captured
        out = decode_group(blob, registry=REGISTRY, program=PROGRAM).golden
        assert out.log is not None and out.log == golden.log
        assert len(out.followup_logs) == 2 and out.followup_logs == golden.followup_logs
        # Before any follow-up materialized: the activation's log alone.
        out = decode_group(encode_group(DIGEST, lazy, None), registry=REGISTRY, program=PROGRAM).golden
        assert out.log == lazy.log and out.followup_logs is None

    def test_after_pages_are_deduplicated_with_the_group(self, rerun):
        # ``after`` is stored deduplicated against the checkpoint: a page
        # equal to one of the checkpoint's decodes to the same buffer.
        _, blob = rerun
        golden = decode_group(blob, registry=REGISTRY, program=PROGRAM).golden
        before = golden.checkpoint.pages
        equal = [b for b, page in golden.after.pages.items() if before.get(b) == page]
        assert equal
        assert all(golden.after.pages[b] is before[b] for b in equal)

    def test_plan_round_trips(self, captured, blob):
        _, plan = captured
        out = decode_group(blob, registry=REGISTRY, program=PROGRAM).plan
        assert np.array_equal(out.slots, plan.slots)
        assert np.array_equal(out.tops, plan.tops)
        assert out.instructions == plan.instructions
        # Bound to the program's mask rows, filled for its slots.
        assert out.masks is plan.masks
        for register in ("rax", "rbx", "rsp", "rip"):
            for index in range(0, plan.instructions + 2, 3):
                assert classify_twin(out, register, index) == classify_twin(
                    plan, register, index
                )

    def test_plan_stores_two_columns(self, blob):
        header = _header(blob)
        assert sorted(header["plan"]) == ["slots", "tops"]

    def test_plan_of_another_length_rejected(self, captured):
        golden, plan = captured
        short = lockstep.plan_from_columns(PROGRAM, plan.slots[:-1], plan.tops[:-1])
        blob = encode_group(DIGEST, golden, short)
        with pytest.raises(ArtifactCorrupt, match="plan does not cover"):
            decode_group(blob, registry=REGISTRY, program=PROGRAM)

    def test_plan_none_and_absent_round_trip(self, captured):
        # Captured with twin batching off: no plan, and none comes back.
        golden, _ = captured
        blob = encode_group(DIGEST, golden, None)
        assert decode_group(blob, registry=REGISTRY, program=PROGRAM).plan is None

    def test_encoding_is_deterministic(self, captured):
        golden, plan = captured
        a = encode_group(DIGEST, golden, plan)
        b = encode_group(DIGEST, golden, plan)
        assert a == b

    def test_structural_sharing_restored(self, rerun):
        # One object per unique page blob, shared by the checkpoint and
        # ``after``: after a restore of one rebinds Memory._base to these
        # pages, a restore of the other identity-diffs only the pages whose
        # contents differ.
        golden, blob = rerun
        out = decode_group(blob, registry=REGISTRY, program=PROGRAM).golden
        differ = {
            b for b in golden.checkpoint.pages.keys() | golden.after.pages.keys()
            if golden.checkpoint.pages.get(b) != golden.after.pages.get(b)
        }
        assert differ
        assert differ == {
            b for b in out.checkpoint.pages.keys() | out.after.pages.keys()
            if out.checkpoint.pages.get(b) is not out.after.pages.get(b)
        }

    def test_plan_columns_are_aligned_views(self, blob):
        # int64 columns must map without copy, which requires 8-alignment.
        plan = decode_group(blob, registry=REGISTRY, program=PROGRAM).plan
        for arr in (plan.slots, plan.tops):
            assert arr.dtype == np.int64
            assert arr.ctypes.data % 8 == 0


class TestCorruptionRejection:
    """Every damage mode raises ArtifactCorrupt, nothing else."""

    def test_truncation_everywhere(self, blob):
        # Every prefix shorter than the full blob is corrupt — header,
        # mid-TOC, mid-blob, missing checksum tail alike.
        for cut in range(0, len(blob), max(1, len(blob) // 37)):
            with pytest.raises(ArtifactCorrupt):
                decode_group(blob[:cut], registry=REGISTRY, program=PROGRAM)

    def test_single_bit_rot_detected(self, blob):
        for offset in (0, 7, len(blob) // 2, len(blob) - 1):
            rotten = bytearray(blob)
            rotten[offset] ^= 0x40
            with pytest.raises(ArtifactCorrupt):
                decode_group(bytes(rotten), registry=REGISTRY, program=PROGRAM)

    def test_version_bump_rejected(self, blob):
        assert blob[: len(MAGIC)] == MAGIC
        bumped = MAGIC[:-1] + bytes([MAGIC[-1] + 1]) + blob[len(MAGIC):]
        with pytest.raises(ArtifactCorrupt):
            decode_group(bumped, registry=REGISTRY, program=PROGRAM)

    def test_v5_artifact_rejected(self, captured, monkeypatch):
        # The format before plans were slot streams: a v5 artifact decodes
        # as corrupt (its group is captured live), never as a plan without
        # slots.
        golden, plan = captured
        with monkeypatch.context() as m:
            m.setattr(codec, "MAGIC", b"XENTART\x05")
            m.setattr(codec, "CODEC_FORMAT", "xentry-artifact-v5")
            old = encode_group(DIGEST, golden, plan)
        assert MAGIC == b"XENTART\x06"
        with pytest.raises(ArtifactCorrupt, match="bad magic"):
            decode_group(old, registry=REGISTRY, program=PROGRAM)

    def test_slots_outside_the_program_rejected(self, captured):
        golden, plan = captured
        blob = encode_group(DIGEST, golden, dataclasses.replace(
            plan, slots=plan.slots + len(PROGRAM.instructions)
        ))
        with pytest.raises(ArtifactCorrupt, match="leaves the program text"):
            decode_group(blob, registry=REGISTRY, program=PROGRAM)

    def test_log_lengths_past_their_columns_rejected(self, captured):
        import hashlib

        golden, _ = captured
        blob = encode_group(DIGEST, golden, None)
        n = int.from_bytes(blob[len(MAGIC):len(MAGIC) + 8], "little")
        header = _header(blob)
        # Grow one length by one without adding a digit, so the header keeps
        # its size and the blob offsets stay valid: only the log lies.
        lengths = header["golden"]["logs"]["lengths"]
        pair = next(pair for pair in lengths if pair[0] % 10 != 9)
        pair[0] += 1
        raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        assert len(raw) == n
        body = blob[:len(MAGIC) + 8] + raw + blob[len(MAGIC) + 8 + n:-16]
        forged = body + hashlib.blake2b(body, digest_size=16).digest()
        with pytest.raises(ArtifactCorrupt):
            decode_group(forged, registry=REGISTRY, program=PROGRAM)

    def test_garbage_rejected(self):
        for garbage in (b"", b"\x00" * 64, b"not an artifact" * 100):
            with pytest.raises(ArtifactCorrupt):
                decode_group(garbage, registry=REGISTRY, program=PROGRAM)

    def test_checksummed_but_structurally_torn_rejected(self, captured):
        # A torn write re-checksummed by an adversary (or a bug) still has
        # to fail structurally — blob references point past the payload —
        # and surface as ArtifactCorrupt, not an IndexError.
        import hashlib

        golden, _ = captured
        blob = encode_group(DIGEST, golden, None)
        shortened = blob[:-16][: len(blob) - 4096]
        fake = shortened + hashlib.blake2b(shortened, digest_size=16).digest()
        with pytest.raises(ArtifactCorrupt):
            decode_group(fake, registry=REGISTRY, program=PROGRAM)
