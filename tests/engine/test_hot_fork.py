"""Hot forks: pool workers inherit the coordinator's compiled translations.

Every shard attempt reports the translation entries it compiled (text digest
plus entry indices); the coordinator adopts them and, right before it forks
its next pool, compiles them from its own image
(``repro.engine.pool.warm_worker``), so only the first pool of a process
compiles cold.  These tests pin the hand-off, the ``--no-translate`` no-op,
the second-run and crash-rebuild forks, and record identity across them.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.engine import (
    CampaignEngine,
    ChaosPolicy,
    EngineTelemetry,
    WorkerCrashed,
    pool,
)
from repro.faults import CampaignConfig, FaultInjectionCampaign
from repro.hypervisor.xen import XenHypervisor
from repro.machine.translator import CACHE
from repro.metrics import COUNTERS
from repro.persist import save_records
from repro.scenarios import load_scenario

ROOT = Path(__file__).resolve().parents[2]
CONFIG = CampaignConfig(benchmarks=("mcf", "postmark"), n_injections=64, seed=9)


def empty_cache() -> None:
    """Reset the process-wide translation cache to a fresh process's."""
    CACHE.__init__(CACHE.max_programs)


@pytest.fixture()
def fresh_cache():
    """An emptied process-wide translation cache, restored afterwards."""
    saved = dict(vars(CACHE))
    empty_cache()
    try:
        yield CACHE
    finally:
        vars(CACHE).clear()
        vars(CACHE).update(saved)


def text_digest(config: CampaignConfig = CONFIG) -> str:
    return XenHypervisor(n_domains=config.n_domains, seed=config.seed).program.text_digest()


def run(config: CampaignConfig, *, jobs: int = 2, n_shards: int = 2, **kwargs):
    telemetry = EngineTelemetry()
    result = CampaignEngine(
        config, jobs=jobs, n_shards=n_shards, telemetry=telemetry, **kwargs
    ).run()
    return result, telemetry.counters.machine()


def record_bytes(result, path: Path) -> bytes:
    save_records(result.records, path)
    return path.read_bytes()


class TestHandOff:
    def test_worker_entries_reach_the_coordinator_and_are_adopted(self, fresh_cache):
        compiled_here = COUNTERS.blocks_compiled.value
        _, machine = run(CONFIG)
        adopted = fresh_cache.adopted[text_digest()]
        assert machine["blocks_compiled"] >= machine["blocks_adopted"] == len(adopted) > 0
        # The coordinator runs no trial: nothing is compiled here until the
        # compile step before the next fork.
        assert COUNTERS.blocks_compiled.value == compiled_here
        assert pool.warm_worker(CONFIG) == len(adopted)
        assert fresh_cache.adopted == {}
        assert COUNTERS.blocks_compiled.value == compiled_here + len(adopted)

    def test_no_translate_adopts_and_compiles_nothing(self, fresh_cache):
        interpreted = dataclasses.replace(CONFIG, translate=False)
        compiled_here = COUNTERS.blocks_compiled.value
        _, machine = run(interpreted)
        assert machine["blocks_compiled"] == machine["blocks_adopted"] == 0
        assert fresh_cache.adopted == {}
        # Entries adopted from a translated run stay pending: an
        # interpreting campaign's workers would never run them.
        run(CONFIG)
        pending = {d: set(s) for d, s in fresh_cache.adopted.items()}
        assert pending
        assert pool.warm_worker(interpreted) == 0
        assert fresh_cache.adopted == pending
        assert COUNTERS.blocks_compiled.value == compiled_here


class TestHotFork:
    def test_second_run_compiles_nothing_in_its_workers(self, fresh_cache):
        first, cold = run(CONFIG)
        second, hot = run(CONFIG)
        assert cold.get("blocks_compiled_prefork", 0) == 0
        assert hot["blocks_compiled_prefork"] == cold["blocks_adopted"] > 0
        assert hot["blocks_compiled"] == hot["blocks_adopted"] == 0
        assert second.records == first.records

    def test_pool_rebuilt_after_a_hard_crash_forks_hot(self, fresh_cache, monkeypatch):
        compiled_at_fork: list[int] = []
        compile_step = pool.warm_worker

        def spy(config):
            compiled_at_fork.append(compile_step(config))
            return compiled_at_fork[-1]

        monkeypatch.setattr(pool, "warm_worker", spy)
        # The last shard is submitted only once two shards have finished,
        # so their entries are adopted before its crash breaks the pool.
        chaos = ChaosPolicy(seed=7, hard_crash_rate=1.0, only_attempt=0, shards=(3,))
        telemetry = EngineTelemetry()
        events = []
        telemetry.subscribe(events.append)
        result = CampaignEngine(
            CONFIG, jobs=2, n_shards=4, chaos=chaos, telemetry=telemetry
        ).run()
        assert any(isinstance(e, WorkerCrashed) for e in events)
        first_pool, rebuilt_pool = compiled_at_fork
        assert first_pool == 0
        assert rebuilt_pool > 0
        assert telemetry.counters.machine()["blocks_compiled_prefork"] == rebuilt_pool
        assert result.records == FaultInjectionCampaign(CONFIG).run().records


class TestRecordIdentity:
    @pytest.mark.parametrize("store", ["cold", "warm"])
    def test_records_identical_across_forks(self, tmp_path, fresh_cache, store):
        scenario = load_scenario(ROOT / "examples" / "mixed.yaml")
        config = scenario.apply(dataclasses.replace(CONFIG, recover="ladder"))

        def stored(name: str) -> CampaignConfig:
            return dataclasses.replace(config, artifacts=str(tmp_path / name))

        if store == "warm":
            run(stored("store"))
            empty_cache()  # the first measured run below forks cold again
            first_config = second_config = stored("store")
        else:
            first_config, second_config = stored("first"), stored("second")
        first, cold = run(first_config)
        second, hot = run(second_config)
        assert cold.get("blocks_compiled_prefork", 0) == 0
        assert hot["blocks_compiled_prefork"] > 0
        # --jobs 1 last, so its in-process compiles cannot warm the forks.
        serial = FaultInjectionCampaign(config).run()
        reference = record_bytes(serial, tmp_path / "serial.jsonl")
        assert record_bytes(first, tmp_path / "first.jsonl") == reference
        assert record_bytes(second, tmp_path / "second.jsonl") == reference
