"""The science, pinned: one harness for every record-invariance contract.

The trial records are the reproduction's evidence, and every fast path
(translation, twin batching, the golden artifact store, the process pool,
supervised retries) is admitted only because it leaves them byte-identical.
Here a few fixed configs (seed 5) are crossed, one knob at a time, with the
knobs the config digest excludes (``CROSSING``).  Each cell digests its
records the way ``perfbench/workloads.py`` does — blake2b-16 over the
:func:`~repro.persist.save_records` JSONL, then the config digest — and
must equal its config's single entry in ``tests/reference_digests.json``,
so a knob that breaks identity fails against the science, not against a
sibling run.  Every cell also proves that its knob took effect and checks
the run's conservation laws: trials counted = records written, golden
lookups = golden groups, no temp pack left behind, every journalled trial
durable.  Follow-ups and memory-fault activations taken from the golden run
depend on the config alone, so every cell of a config must count the same
ones (``GOLDEN_REUSE``).

The ``cli`` config runs ``repro campaign`` in this process, its detector
trained at ``--scale 0.05``, so its cells pin the wiring of ``--scenario``,
``--recover``, ``--no-translate``, ``--no-twin-batch``, ``--artifacts``,
``--jobs``, ``--journal`` and ``--output``.  The command always drives the
engine, so its one runner passes ``--jobs 1`` where the API runs serially
and reads the run's counters from the journal's manifest.  Store cells are
named by the runner that wrote (cold) or read (warm, torn) the store, and
every store is read by the runner that did not write it.  A cell's id is its config
and knob, leaving out ``default`` and ``plain``; select one with
``pytest -k "[mixed_ladder-jobs2]"``.

An intended record change bumps ``PLAN_FORMAT`` and updates the reference
file in the same change, in plain view.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro import cli
from repro.artifacts.store import GoldenStore, read_pack_table
from repro.engine import (
    CampaignEngine,
    ChaosPolicy,
    EngineTelemetry,
    RetryPolicy,
    config_digest,
    read_state,
)
from repro.faults import CampaignConfig, FaultInjectionCampaign
from repro.faults.campaign import benchmark_geometry
from repro.metrics import CampaignCounters, counted
from repro.persist import load_records, save_records
from repro.scenarios import load_scenario

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
REFERENCE = json.loads((Path(__file__).parent / "reference_digests.json").read_text())
BASE = CampaignConfig(n_injections=600, seed=5)
SHARDS = 4


def _mixed(**fields) -> CampaignConfig:
    scenario = load_scenario(EXAMPLES / "mixed.yaml")
    return scenario.apply(dataclasses.replace(BASE, **fields))


CONFIGS = {
    "default": lambda: BASE,
    "mixed_ladder": lambda: _mixed(recover="ladder"),
    "reexecute": lambda: dataclasses.replace(BASE, recover="reexecute"),
    "microreboot": lambda: dataclasses.replace(BASE, recover="microreboot"),
    "ladder_hazard": lambda: dataclasses.replace(
        BASE, recover="ladder", recovery_hazard=0.3
    ),
    # What the CLI builds from CLI_ARGS.
    "cli": lambda: _mixed(n_injections=300, recover="microreboot"),
}
CLI_ARGS = ("campaign", "--injections", "300", "--seed", "5", "--scale", "0.05",
            "--scenario", str(EXAMPLES / "mixed.yaml"), "--recover", "microreboot")

# Which knobs each config crosses, within a tier-1 budget of about 15 s.
# default and mixed_ladder carry the store both ways round between them;
# microreboot adds a warm store, whose packs hold the checkpoints its
# micro-reboots restore.  Recovery runs interpreted and per-trial (whose
# branch arms recovery on its own) in the mixed_ladder and cli cells, under
# the ladder's re-execution and under micro-reboot.
CROSSING = {
    "default": ("plain", "baseline_yaml", "no_translate", "no_twin_batch", "jobs1",
                "jobs2", "cold_serial", "warm_engine", "torn_engine"),
    "mixed_ladder": ("plain", "no_translate", "no_twin_batch", "jobs2", "chaos",
                     "cold_engine", "warm_serial", "torn_serial"),
    "microreboot": ("plain", "cold_serial", "warm_engine"),
    "reexecute": ("plain",),
    "ladder_hazard": ("plain",),
    "cli": ("plain", "no_translate", "no_twin_batch", "jobs2", "cold_serial",
            "warm_engine", "torn_engine"),
}

# Every first attempt fails: one hard crash (the pool breaks and charges each
# in-flight shard an attempt), three exception crashes and three torn journal
# appends.  A shard fails at most once on its own and once per other shard's
# hard crash, so SHARDS retries never quarantine one.
CHAOS = ChaosPolicy(seed=1, crash_rate=0.5, hard_crash_rate=0.3,
                    journal_truncate_rate=0.5, only_attempt=0)


def groups(config: CampaignConfig) -> int:
    return len(config.benchmarks) * benchmark_geometry(config).n_goldens


@dataclass
class Run:
    """One campaign execution, reduced to what the checks read."""

    records: Path  # as save_records wrote them
    machine: dict  # the run's counters, whichever process did the work
    cache: dict
    here_trials: float  # trials this process counted meanwhile
    retries: int = 0


def check_journal(journal: Path, n_records: int) -> None:
    state = read_state(journal)
    assert state.completed_trials == n_records
    assert state.partial == {}


# -- runners: the serial campaign and the engine, through the API or the CLI


def api_serial(config: CampaignConfig, workdir: Path) -> Run:
    result, counts = counted(FaultInjectionCampaign(config).run)
    counters = CampaignCounters.folded(counts)
    save_records(result.records, workdir / "records.jsonl")
    machine = counters.machine()
    return Run(workdir / "records.jsonl", machine, counters.golden_cache(), machine["trials"])


def api_engine(config: CampaignConfig, workdir: Path, *, jobs: int = 2,
               **supervision) -> Run:
    telemetry = EngineTelemetry()
    journal = workdir / "trials.jsonl"
    result, counts = counted(CampaignEngine(
        config, jobs=jobs, n_shards=SHARDS, telemetry=telemetry,
        journal_path=journal, **supervision,
    ).run)
    assert telemetry.quarantined == []
    check_journal(journal, len(result.records))
    save_records(result.records, workdir / "records.jsonl")
    return Run(workdir / "records.jsonl", telemetry.counters.machine(),
               telemetry.counters.golden_cache(),
               CampaignCounters.folded(counts).machine()["trials"], telemetry.retries)


def cli_run(config: CampaignConfig, workdir: Path, *, jobs: int) -> Run:
    """Run ``repro campaign --jobs N --journal`` on ``config``'s knobs; check
    that its summary shows them."""
    journal = workdir / "trials.jsonl"
    flags = ["--jobs", str(jobs), "--journal", str(journal),
             "--output", str(workdir / "records.jsonl")]
    if not config.translate:
        flags.append("--no-translate")
    if not config.twin_batch:
        flags.append("--no-twin-batch")
    if config.artifacts:
        flags += ["--artifacts", config.artifacts]
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        status, counts = counted(cli.main, [*CLI_ARGS, *flags])
    assert status == 0
    out = stdout.getvalue()
    assert "scenario: mixed" in out
    assert ("translation cache:" in out) == config.translate
    assert ("twin batching:" in out) == config.twin_batch
    assert "golden reuse:" in out
    assert (", cache " in out) == bool(config.artifacts)
    manifest = json.loads(Path(f"{journal}.manifest.json").read_text())
    assert manifest["jobs"] == jobs
    assert manifest["failures"]["quarantined"] == []
    path = workdir / "records.jsonl"
    check_journal(journal, len(load_records(path)))
    # Detector training counts no trials, so these are the campaign's.
    return Run(path, manifest["machine"], manifest["golden_cache"],
               CampaignCounters.folded(counts).machine()["trials"])


RUNNERS = {
    "api": {"serial": api_serial, "engine": api_engine},
    "cli": {"serial": functools.partial(cli_run, jobs=1),
            "engine": functools.partial(cli_run, jobs=2)},
}
OTHER = {"serial": "engine", "engine": "serial"}


def run(name: str, kind: str, config: CampaignConfig, workdir: Path, **kwargs) -> Run:
    """Run ``config`` with the ``kind`` runner of config ``name``."""
    return RUNNERS["cli" if name == "cli" else "api"][kind](config, workdir, **kwargs)


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """``stores(name, writer)``: config ``name`` on a store that one cold
    run of ``writer`` filled, and that run.  Each store is made once per
    module, for every cell that reads it."""
    made: dict[tuple[str, str], tuple[CampaignConfig, Run]] = {}

    def cold(name: str, writer: str) -> tuple[CampaignConfig, Run]:
        if (name, writer) not in made:
            workdir = tmp_path_factory.mktemp(f"{name}-{writer}")
            config = dataclasses.replace(CONFIGS[name](), artifacts=str(workdir / "store"))
            made[name, writer] = config, run(name, writer, config, workdir)
        return made[name, writer]

    return cold


# -- the knobs: each proves that it took effect and returns the config it
# -- ran with and the run


@dataclass
class Cell:
    name: str
    config: CampaignConfig
    workdir: Path
    stores: Callable[[str, str], tuple[CampaignConfig, Run]]

    def run(self, kind: str, config: CampaignConfig, **kwargs) -> Run:
        return run(self.name, kind, config, self.workdir, **kwargs)


def plain(cell: Cell):
    return cell.config, cell.run("serial", cell.config)


def baseline_yaml(cell: Cell):
    config = load_scenario(EXAMPLES / "baseline.yaml").apply(cell.config)
    assert config.scenario is None  # normalized onto the plain path
    return config, cell.run("serial", config)


def no_translate(cell: Cell):
    config = dataclasses.replace(cell.config, translate=False)
    result = cell.run("serial", config)
    assert result.machine["translated_instructions"] == 0
    assert result.machine["interpreted_instructions"] > 0
    return config, result


def no_twin_batch(cell: Cell):
    config = dataclasses.replace(cell.config, twin_batch=False)
    result = cell.run("serial", config)
    assert result.machine["twins"] == 0
    return config, result


def jobs(n: int):
    def knob(cell: Cell):
        result = cell.run("engine", cell.config, jobs=n)
        # Inline shards count here; pool workers ship their counts instead.
        assert result.here_trials == (result.machine["trials"] if n == 1 else 0)
        return cell.config, result

    return knob


def chaos(cell: Cell):
    plans = [CHAOS.plan(shard, 0) for shard in range(SHARDS)]
    assert all(plan.crash_after is not None for plan in plans)
    assert {plan.hard for plan in plans} == {True, False}
    assert "truncate" in {CHAOS.journal_fault(shard, 0) for shard in range(SHARDS)}
    result = cell.run("engine", cell.config, chaos=CHAOS,
                      retry=RetryPolicy(max_retries=SHARDS, backoff_base=0.0))
    assert result.retries > 0
    return cell.config, result


def cold(writer: str):
    def knob(cell: Cell):
        config, result = cell.stores(cell.name, writer)
        cache = result.cache
        assert cache["hit_rate"] == 0.0
        assert 0 < cache["followups_materialized"] < cache["golden_misses"]
        assert cache["artifact_bytes_written"] > 0
        tables = [read_pack_table(p) for p in GoldenStore(config.artifacts).packs()]
        assert sum(map(len, tables)) == groups(config)
        # A serial run streams every capture into one pack; the engine
        # (which the CLI drives at every --jobs) commits one per shard
        # attempt that captured anything.
        if writer == "serial" and cell.name != "cli":
            assert len(tables) == 1
        else:
            assert 0 < len(tables) <= SHARDS
        return config, result

    return knob


def warm(reader: str):
    def knob(cell: Cell):
        config, written = cell.stores(cell.name, OTHER[reader])
        result = cell.run(reader, config)
        cache = result.cache
        assert cache["hit_rate"] == 1.0
        assert cache["golden_capture_seconds"] == 0
        assert cache["golden_load_seconds"] > 0
        assert cache["followups_materialized"] == 0
        assert cache["artifact_bytes_loaded"] == written.cache["artifact_bytes_written"]
        return config, result

    return knob


def torn(reader: str):
    def knob(cell: Cell):
        source, _ = cell.stores(cell.name, OTHER[reader])
        root = cell.workdir / "torn"
        shutil.copytree(source.artifacts, root)
        pack = GoldenStore(root).packs()[0]
        held = len(read_pack_table(pack))
        os.truncate(pack, pack.stat().st_size - 100)
        config = dataclasses.replace(source, artifacts=str(root))
        result = cell.run(reader, config)
        # Skipped whole and counted once, by the run's owner; its groups
        # are captured live again.
        assert result.cache["artifact_corrupt"] == 1
        assert result.cache["golden_misses"] == held
        return config, result

    return knob


KNOBS = {
    "plain": plain,
    "baseline_yaml": baseline_yaml,
    "no_translate": no_translate,
    "no_twin_batch": no_twin_batch,
    "jobs1": jobs(1),
    "jobs2": jobs(2),
    "chaos": chaos,
    "cold_serial": cold("serial"),
    "cold_engine": cold("engine"),
    "warm_serial": warm("serial"),
    "warm_engine": warm("engine"),
    "torn_serial": torn("serial"),
    "torn_engine": torn("engine"),
}
CELLS = {
    "-".join(part for part in (name, knob) if part not in ("default", "plain"))
    or "default": (name, knob)
    for name, knobs in CROSSING.items() for knob in knobs
}


#: What the golden run stood in for: counted alike by every cell of a config.
GOLDEN_REUSE = ("followups_executed", "followups_from_golden",
                "activations_from_golden", "golden_instructions_skipped")


@pytest.fixture(scope="module")
def reuse_seen() -> dict[str, dict]:
    """Config name -> the first cell's GOLDEN_REUSE counts, for the cells
    after it."""
    return {}


def records_digest(records: Path, config: CampaignConfig) -> str:
    h = hashlib.blake2b(records.read_bytes(), digest_size=16)
    h.update(config_digest(config).encode())
    return h.hexdigest()


@pytest.mark.parametrize("cell", list(CELLS))
def test_records_match_reference(cell, stores, reuse_seen, tmp_path):
    name, knob = CELLS[cell]
    config, result = KNOBS[knob](Cell(name, CONFIGS[name](), tmp_path, stores))
    computed = records_digest(result.records, config)
    assert computed == REFERENCE[name], (
        f"{cell}: records digest {computed}, committed {REFERENCE[name]}"
    )
    records = load_records(result.records)
    assert result.machine["trials"] == len(records)
    looked_up = result.cache["golden_hits"] + result.cache["golden_misses"]
    assert looked_up == (groups(config) if config.artifacts else 0)
    if config.artifacts:
        assert list(Path(config.artifacts).rglob("*.tmp")) == []
    if config.recover is not None:
        assert any(r.recovery is not None for r in records)
    if config.scenario is not None:
        assert {r.fault_class for r in records} == {"register", "multibit", "burst", "memory"}
    reuse = {key: result.machine[key] for key in GOLDEN_REUSE}
    assert reuse_seen.setdefault(name, reuse) == reuse, cell
    if name in ("default", "mixed_ladder"):
        assert reuse["followups_from_golden"] > 0
        assert reuse["golden_instructions_skipped"] > 0
    if config.scenario is not None:
        assert reuse["activations_from_golden"] > 0
