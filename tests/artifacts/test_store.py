"""GoldenStore + golden_digest: artifact identity and pack hygiene.

The digest is the cache's entire correctness story: two configs map to the
same artifact exactly when their golden products are byte-identical.  Knobs
that shape the golden capture (seed, workload geometry, twin-batch
capture) must move the digest; knobs that only shape *trials*
(fault model, recovery policy, translation, detection) must not — that is
what lets a detector sweep share one warm cache.  The store side: packs
appear only when committed, leave no temp file, and a torn trailer or a
damaged blob is reported, never served.
"""

import contextlib
import dataclasses

import pytest

from repro.artifacts import codec
from repro.artifacts.codec import ArtifactCorrupt, encode_group
from repro.artifacts.store import (
    GoldenStore,
    golden_digest,
    image_identity,
    read_pack_table,
)
from repro.faults import CampaignConfig, FaultInjectionCampaign, capture_golden
from repro.faults.campaign import benchmark_geometry
from repro.faults.injector import trace_plan
from repro.faults.model import FaultModel
from repro.hypervisor import Activation, REGISTRY, XenHypervisor, xen
from repro.metrics import CampaignCounters, counted

CONFIG = CampaignConfig(n_injections=40, seed=11)


def digest(config=CONFIG, benchmark="mcf", group=0):
    return golden_digest(config, benchmark, group)


class TestDigestIdentity:
    def test_digest_is_stable(self):
        assert digest() == digest()
        assert len(digest()) == 32 and set(digest()) <= set("0123456789abcdef")

    # (the parameter is named "workload" because pytest-benchmark squats on
    # the fixture name "benchmark")
    @pytest.mark.parametrize("workload,group", [("postmark", 0), ("mcf", 1)])
    def test_coordinates_move_the_digest(self, workload, group):
        assert digest(benchmark=workload, group=group) != digest()

    @pytest.mark.parametrize("change", [
        {"seed": 12},
        {"n_domains": 4},
        {"warmup_activations": 6},
        {"twin_batch": False},
        # Stream geometry: the workload generator bulk-draws the whole
        # activation-index array, so activation i depends on the total
        # stream length and stride, not just its own prefix.
        {"n_injections": 80},
        {"injections_per_golden": 2},
        {"followup_activations": 4},
    ])
    def test_golden_shaping_knobs_move_the_digest(self, change):
        assert digest(dataclasses.replace(CONFIG, **change)) != digest()

    @pytest.mark.parametrize("change", [
        # Trial-only knobs: golden products are invariant, so sweeps over
        # them share one warm cache.
        {"fault_model": FaultModel(registers=("rip",))},
        {"fault_model": FaultModel(bits=(0, 7))},
        {"recover": "reexecute", "recovery_hazard": 0.25},
        {"translate": False},
        {"artifacts": "elsewhere"},
        {"recover": "ladder"},
    ])
    def test_trial_only_knobs_do_not_move_the_digest(self, change):
        assert digest(dataclasses.replace(CONFIG, **change)) == digest()


PROGRAM = XenHypervisor(seed=5).program


@pytest.fixture()
def encoded():
    hv = XenHypervisor(seed=5)
    spec = REGISTRY.by_name("apic_timer")
    activation = Activation(vmer=spec.vmer, args=(3,), domain_id=1, seq=0)
    golden = capture_golden(hv, activation)
    d = digest()
    return d, encode_group(d, golden, trace_plan(hv.program, golden))


def commit(store, *entries):
    """Commit one pack holding ``(digest, blob)`` entries; return its path."""
    pack = store.begin_pack()
    for d, blob in entries:
        pack.append(d, blob)
    return pack.commit()


def store_files(root):
    return sorted(p for p in root.rglob("*") if p.is_file())


class TestGoldenStore:
    def test_save_then_load_round_trips(self, tmp_path, encoded):
        d, blob = encoded
        store = GoldenStore(tmp_path)
        assert store.load_bytes(d) is None
        assert store.load(d, registry=REGISTRY, program=PROGRAM) is None
        pack = store.begin_pack()
        pack.append(d, blob)
        # Nothing is visible before the commit...
        assert GoldenStore(tmp_path).load_bytes(d) is None
        pack.commit()
        # ...and everything after it, to a store that scans afresh.
        fresh = GoldenStore(tmp_path)
        assert fresh.load_bytes(d) == blob
        payload = fresh.load(d, registry=REGISTRY, program=PROGRAM)
        assert payload is not None and payload.digest == d
        assert payload.plan is not None

    def test_content_addressed_layout(self, tmp_path, encoded):
        d, blob = encoded
        store = GoldenStore(tmp_path)
        path = commit(store, (d, blob))
        assert path.parent == tmp_path / "golden" and path.suffix == ".pack"
        assert read_pack_table(path) == [(d, 0, len(blob))]
        # The pack id is the trailer's table checksum: the same captures in
        # the same order commit the same file.
        assert commit(store, (d, blob)) == path
        assert store.packs() == [path]

    def test_save_is_atomic_no_temp_residue(self, tmp_path, encoded):
        d, blob = encoded
        store = GoldenStore(tmp_path)
        path = commit(store, (d, blob))
        assert store_files(tmp_path) == [path]
        dropped = store.begin_pack()
        dropped.append("e" * 32, blob)
        dropped.discard()
        assert store_files(tmp_path) == [path]

    def test_corrupt_file_raises_artifact_corrupt(self, tmp_path, encoded):
        d, blob = encoded
        store = GoldenStore(tmp_path)
        commit(store, (d, blob[: len(blob) // 2]))
        with pytest.raises(ArtifactCorrupt):
            store.load(d, registry=REGISTRY, program=PROGRAM)
        # load_bytes is validation-free by contract.
        assert store.load_bytes(d) == blob[: len(blob) // 2]

    def test_misfiled_artifact_rejected(self, tmp_path, encoded):
        # A valid artifact stored under the wrong digest must not be served:
        # the payload self-identifies and the store cross-checks.
        d, blob = encoded
        wrong = "f" * 64
        store = GoldenStore(tmp_path)
        commit(store, (wrong, blob))
        with pytest.raises(ArtifactCorrupt, match="self-identifies"):
            store.load(wrong, registry=REGISTRY, program=PROGRAM)

    def test_unwritable_root_degrades_to_noop(self, tmp_path, encoded):
        # A plain file where the store root should be: every mkdir/open under
        # it fails with an OSError no matter the uid (chmod tricks don't
        # stop root, which is how CI runs).
        d, blob = encoded
        root = tmp_path / "ro"
        root.write_bytes(b"not a directory")
        store = GoldenStore(root)
        with pytest.raises(OSError):
            store.begin_pack()
        assert store.scan() == 0
        assert store.load_bytes(d) is None

    @pytest.mark.parametrize("damage", ["truncate", "magic", "table"])
    def test_torn_trailer_skips_the_pack(self, tmp_path, encoded, damage):
        d, blob = encoded
        store = GoldenStore(tmp_path)
        path = commit(store, (d, blob))
        raw = bytearray(path.read_bytes())
        if damage == "truncate":
            raw = raw[: len(blob) + 5]
        elif damage == "magic":
            raw[-1] ^= 0xFF
        else:
            raw[len(blob) + 3] ^= 0x01  # inside the JSON table
        path.write_bytes(bytes(raw))
        assert read_pack_table(path) is None
        fresh = GoldenStore(tmp_path)
        assert fresh.scan() == 1
        assert fresh.load_bytes(d) is None

    def test_two_packs_holding_the_same_digest(self, tmp_path, encoded):
        d, blob = encoded
        other = "c" * 32
        store = GoldenStore(tmp_path)
        older = commit(store, (d, blob))
        newer = commit(store, (other, b"x" * 12), (d, blob))
        assert older != newer
        fresh = GoldenStore(tmp_path)
        assert fresh.scan() == 0
        assert fresh.load_bytes(d) == blob
        assert fresh.load(d, registry=REGISTRY, program=PROGRAM).digest == d
        # Either copy serves the same artifact; the newer pack shadows.
        assert fresh.packs()[-1] == newer
        assert fresh._index[d][0] == newer


class TestImageIdentity:
    """A store must not outlive an edit to the hypervisor image."""

    def test_patched_handler_moves_the_digest(self, monkeypatch):
        before = digest()
        with patched_image(monkeypatch):
            assert digest() != before
        assert digest() == before

    def test_identity_ignores_seed_and_execution_knobs(self):
        # The image is a function of the domain count alone.
        a = XenHypervisor(n_domains=3, seed=1)
        b = XenHypervisor(n_domains=3, seed=9, translate=False)
        assert a.program.text_digest() == b.program.text_digest()
        assert {k: bytes(v) for k, v in a.checkpoint().pages.items()} == {
            k: bytes(v) for k, v in b.checkpoint().pages.items()
        }
        assert image_identity(3) != image_identity(4)

    def test_old_store_goes_cold_on_a_patched_image(self, tmp_path, monkeypatch):
        config = CampaignConfig(
            n_injections=24, seed=7, benchmarks=("mcf", "postmark"),
            artifacts=str(tmp_path / "cache"),
        )
        uncached = dataclasses.replace(config, artifacts=None)
        original = FaultInjectionCampaign(uncached).run()
        FaultInjectionCampaign(config).run()  # the store holds the old image
        with patched_image(monkeypatch):
            reference = FaultInjectionCampaign(uncached).run()
            # The patch is visible in the science, so serving the old
            # goldens would have changed records.
            assert reference.records != original.records
            rerun, counts = counted(FaultInjectionCampaign(config).run)
            stats = CampaignCounters.folded(counts).golden_cache()
        assert rerun.records == reference.records
        groups = 2 * benchmark_geometry(config).n_goldens
        assert stats["golden_misses"] == groups and stats["golden_hits"] == 0


def test_a_v4_store_goes_cold(tmp_path, monkeypatch):
    """Packs written before goldens carried execution logs (codec v4): every
    lookup decodes as corrupt and captures live, and the groups recaptured
    then serve the next run."""
    config = CampaignConfig(
        n_injections=24, seed=7, benchmarks=("mcf",), artifacts=str(tmp_path / "cache"),
    )
    reference = FaultInjectionCampaign(dataclasses.replace(config, artifacts=None)).run()
    with monkeypatch.context() as m:
        m.setattr(codec, "MAGIC", b"XENTART\x04")
        m.setattr(codec, "CODEC_FORMAT", "xentry-artifact-v4")
        m.setattr(codec, "_logs_ref", lambda golden, writer: None)
        FaultInjectionCampaign(config).run()
    groups = benchmark_geometry(config).n_goldens
    cold, counts = counted(FaultInjectionCampaign(config).run)
    stats = CampaignCounters.folded(counts).golden_cache()
    assert cold.records == reference.records
    assert stats["golden_hits"] == 0 and stats["golden_misses"] == groups
    assert stats["artifact_corrupt"] == groups
    warm, counts = counted(FaultInjectionCampaign(config).run)
    assert warm.records == reference.records
    assert CampaignCounters.folded(counts).golden_cache()["golden_hits"] == groups


@contextlib.contextmanager
def patched_image(monkeypatch):
    """Build every hypervisor with one handler immediate changed (do_irq's
    loop bound, which mcf exercises)."""
    original = xen.build_handler_table
    target = REGISTRY.by_name("do_irq").vmer

    def patched(*args, **kwargs):
        table = original(*args, **kwargs)
        table[target] = dataclasses.replace(
            table[target], scale=table[target].scale + 1
        )
        return table

    image_identity.cache_clear()
    xen.boot_image.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(xen, "build_handler_table", patched)
        try:
            yield
        finally:
            image_identity.cache_clear()
            xen.boot_image.cache_clear()
