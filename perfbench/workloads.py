"""The benchmark's three workloads: set-up, one measured round, output checks.

A round is the unit a run repeats until its time is up: one serial campaign
pass (``campaign-default``), one cold-store plus one warm-store engine pass
(``campaign-sweep``), or one pass of the service loop (``serve``).  Every
pass goes through the program's public APIs only and has its outputs checked
before its time is used.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.engine import CampaignEngine, EngineTelemetry, RetryPolicy, config_digest
from repro.faults import CampaignConfig, FaultInjectionCampaign
from repro.faults.campaign import benchmark_geometry
from repro.persist import load_model, save_records
from repro.scenarios import load_scenario
from repro.service import DetectionService, FleetConfig, ServiceConfig
from repro.service.fleet import FleetSimulator
from repro.xentry import (
    TrainingConfig,
    VMTransitionDetector,
    collect_dataset,
    train_and_evaluate,
)

from perfbench.spans import Tracer, TracingTelemetry, ledger_snapshot, pass_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SERVE_MODEL = HERE / "serve_model.json"
REFERENCE = json.loads((HERE / "reference.json").read_text())

#: The seed whose outputs are pinned in reference.json (the CLI's default).
DEFAULT_SEED = 5
#: Detector training is set-up, identical in every run: the CLI's default
#: scale and seed, so each set-up's detector can be checked against the
#: committed digest whatever workload seed the run uses.
TRAIN_SCALE = 1.0
TRAIN_SEED = 5
#: Training runs on the engine with nproc workers, as ``repro campaign
#: --jobs nproc`` trains; the datasets are bit-identical at any worker count.
TRAIN_JOBS = len(os.sched_getaffinity(0))
#: Trials per campaign pass: 400 per benchmark, 100 golden groups each.
INJECTIONS = 2_400
SERVE_ROWS = 150_000


class CheckFailed(Exception):
    """An output of the program differs from what the benchmark expects."""


@dataclass
class Pass:
    kind: str
    seconds: float
    items: int
    failed: int = 0
    traced: bool = False
    layers: dict | None = None
    extra: dict = field(default_factory=dict)


def file_digest(path: Path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


def rules_digest(rules) -> str:
    h = hashlib.blake2b(digest_size=16)
    for array in (rules.feature, rules.threshold, rules.left, rules.right,
                  rules.prediction):
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def train_detector(jobs: int, tracer: Tracer | None) -> VMTransitionDetector:
    """Train the campaign detector the way ``repro campaign`` does."""
    span = tracer.open("training") if tracer is not None else None
    sets = {}
    for stream, free, injected in (("train", 2000, 7800), ("test", 1000, 3900)):
        config = TrainingConfig(
            fault_free_runs=int(free * TRAIN_SCALE),
            injection_runs=int(injected * TRAIN_SCALE),
            seed=TRAIN_SEED,
        )
        sets[stream] = collect_dataset(config, stream=stream, jobs=jobs)
    model = train_and_evaluate(sets["train"], sets["test"], algorithm="random_tree", seed=3)
    if span is not None:
        tracer.close(span)
    return VMTransitionDetector.from_classifier(model.classifier)


def shm_segments() -> set[str]:
    """Live golden-artifact shared-memory segments on this host."""
    root = Path("/dev/shm")
    return {p.name for p in root.glob("xgold-*")} if root.is_dir() else set()


class Workload:
    """Shared pass timing, tracing and record checks."""

    name = ""
    unit = ""

    def __init__(self, *, seed: int, jobs: int, workdir: Path, tracer: Tracer | None):
        self.seed = seed
        self.jobs = jobs
        self.workdir = workdir
        self.tracer = tracer
        #: The first pass's output (records digest, or serve totals).
        self.digest: str | dict | None = None
        self._passes = 0

    def reference(self, key: str):
        return REFERENCE["workloads"][self.name][key] if self.seed == DEFAULT_SEED else None

    def measure(self, traced: bool, fn):
        """Run ``fn`` as one pass; return (result, seconds, pass id or None)."""
        self._passes += 1
        if not traced:
            started = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - started, None
        tracer = self.tracer
        tracer.pass_id = self._passes
        tracer.install()
        before = ledger_snapshot()
        root = tracer.open("pass")
        try:
            result = fn()
        finally:
            tracer.close(root)
            tracer.tally({k: v - before[k] for k, v in ledger_snapshot().items()})
            tracer.uninstall()
            tracer.pass_id = -1
        return result, root[2] - root[1], self._passes

    def check_records(self, result, config) -> None:
        """Every pass of a run returns byte-identical records; at the default
        seed they also match the committed digest."""
        path = self.workdir / "records.jsonl"
        save_records(result.records, path)
        h = hashlib.blake2b(path.read_bytes(), digest_size=16)
        h.update(config_digest(config).encode())
        digest = h.hexdigest()
        if self.digest is None:
            expected = self.reference("records_digest")
            if expected is not None and digest != expected:
                raise CheckFailed(f"records digest {digest} != committed {expected}")
            self.digest = digest
        elif digest != self.digest:
            raise CheckFailed(f"pass {self._passes} records digest {digest} != {self.digest}")

    def groups(self, config) -> int:
        return benchmark_geometry(config).n_goldens * len(config.benchmarks)

    def final_checks(self) -> None:
        """Checks made once per run, after the passes."""


class CampaignDefault(Workload):
    """Serial campaign at the CLI defaults, no artifact store."""

    name = "campaign-default"
    unit = "trials"

    def setup(self) -> str:
        self.detector = train_detector(TRAIN_JOBS, self.tracer)
        self.config = CampaignConfig(n_injections=INJECTIONS, seed=self.seed)
        return rules_digest(self.detector.rules)

    def round(self, traced: bool) -> list[Pass]:
        result, seconds, pass_id = self.measure(
            traced, lambda: FaultInjectionCampaign(self.config, detector=self.detector).run()
        )
        self.check_records(result, self.config)
        layers = None
        if pass_id is not None:
            layers = pass_layers(self.tracer, pass_id, jobs=1, records=len(result.records),
                                 groups=self.groups(self.config), cached=False)
            layers.update(recovery_counts(result.records))
        return [Pass("live", seconds, len(result.records), traced=traced, layers=layers)]


def recovery_counts(records) -> dict[str, int]:
    attempted = [r.recovery for r in records if r.recovery is not None]
    return {"recovered": sum(r.recovered for r in attempted),
            "recovery_records": len(attempted)}


class CampaignSweep(Workload):
    """Engine campaign at --jobs nproc with a journal, an artifact store,
    examples/mixed.yaml and --recover ladder; cold then warm store."""

    name = "campaign-sweep"
    unit = "trials"

    def setup(self) -> str:
        self.detector = train_detector(self.jobs, self.tracer)
        self.store = self.workdir / "store"
        scenario = load_scenario(ROOT / "examples" / "mixed.yaml")
        self.config = scenario.apply(CampaignConfig(
            n_injections=INJECTIONS, seed=self.seed, recover="ladder",
            artifacts=str(self.store),
        ))
        return rules_digest(self.detector.rules)

    def round(self, traced: bool) -> list[Pass]:
        shutil.rmtree(self.store, ignore_errors=True)
        try:
            return [self._pass("cold", traced), self._pass("warm", traced)]
        finally:
            shutil.rmtree(self.store, ignore_errors=True)

    def _pass(self, kind: str, traced: bool) -> Pass:
        journal = self.workdir / f"{kind}.jsonl"
        for stale in (journal, journal.with_name(journal.name + ".manifest.json")):
            stale.unlink(missing_ok=True)
        telemetry = TracingTelemetry(self.tracer) if traced else EngineTelemetry()
        segments = shm_segments()

        def run():
            return CampaignEngine(
                self.config, jobs=self.jobs, n_shards=max(4, 2 * self.jobs),
                detector=self.detector, journal_path=journal, telemetry=telemetry,
                retry=RetryPolicy(max_retries=2, seed=self.seed),
            ).run()

        result, seconds, pass_id = self.measure(traced, run)
        leaked = shm_segments() - segments
        if leaked:
            raise CheckFailed(f"{kind} pass left shared-memory segments: {sorted(leaked)}")
        cache = telemetry.artifact_stats
        hits, groups = cache.get("golden_hits", 0), self.groups(self.config)
        if kind == "warm" and (hits != groups or cache.get("golden_capture_seconds")):
            raise CheckFailed(f"warm pass served {hits} of {groups} golden groups "
                              "from the store and captured the rest live")
        if kind == "cold" and hits:
            raise CheckFailed("cold pass found goldens in a fresh store")
        failed = result.missing_trials if result.degraded else 0
        self.check_records(result, self.config)
        layers = None
        if pass_id is not None:
            layers = pass_layers(self.tracer, pass_id, jobs=self.jobs,
                                 records=len(result.records),
                                 groups=self.groups(self.config), cached=True)
            layers["engine.retries"] = telemetry.retries
            layers["engine.quarantined_shards"] = len(telemetry.quarantined)
            layers.update(recovery_counts(result.records))
        return Pass(kind, seconds, len(result.records), failed, traced, layers,
                    {"hit_share": hits / groups})


class Serve(Workload):
    """The daemon's closed loop over 200 hosts x 8 VMs, 2% injected rows."""

    name = "serve"
    unit = "rows"

    def setup(self) -> str:
        self.artifact = load_model(SERVE_MODEL)
        self.config = ServiceConfig(
            fleet=FleetConfig(hosts=200, vms_per_host=8, seed=self.seed,
                              inject_fraction=0.02),
            max_rows=SERVE_ROWS,
        )
        self.service = DetectionService(self.config, self.artifact)
        return file_digest(SERVE_MODEL)

    def round(self, traced: bool) -> list[Pass]:
        service = self.service or DetectionService(self.config, self.artifact)
        self.service = None
        report, seconds, pass_id = self.measure(traced, lambda: service.run())
        totals = json.loads(json.dumps(report.deterministic_dict()))
        if self.digest is None:
            expected = self.reference("totals")
            if expected is not None and totals != expected:
                raise CheckFailed(f"serve totals {totals} != committed {expected}")
            self.digest = totals
        elif totals != self.digest:
            raise CheckFailed(f"pass {self._passes} serve totals differ from the first pass")
        t = report.totals
        if t.rows_scored + t.rows_dropped != report.rows_emitted:
            raise CheckFailed("rows scored + dropped != rows emitted")
        pct = report.latency_percentiles
        extra = {"p50_ms": pct["p50"] * 1e3, "p99_ms": pct["p99"] * 1e3}
        layers = None
        if pass_id is not None:
            layers = pass_layers(self.tracer, pass_id, jobs=1, records=0, groups=0,
                                 cached=False)
            layers.update({
                "service.batches": t.batches,
                "service.rows_dropped": t.rows_dropped,
                "service.decision_p50_ms": extra["p50_ms"],
                "service.decision_p99_ms": extra["p99_ms"],
            })
        return [Pass("serve", seconds, t.rows_scored, t.rows_dropped, traced,
                     layers, extra)]

    def final_checks(self) -> None:
        """Score the same fleet stream directly, without queues or batching,
        and compare outcome counts with what the service reported."""
        fleet = FleetSimulator(self.config.fleet)
        rows = [row for tick in fleet.stream(SERVE_ROWS) for row in tick]
        flagged = np.asarray(self.artifact.flags_incorrect_batch(fleet.feature_matrix(rows)))
        injected = np.array([row.injected for row in rows])
        expected = {
            "true_positive": int((flagged & injected).sum()),
            "false_positive": int((flagged & ~injected).sum()),
            "true_negative": int((~flagged & ~injected).sum()),
            "false_negative": int((~flagged & injected).sum()),
        }
        if self.digest["totals"]["outcomes"] != expected:
            raise CheckFailed(
                f"service outcomes {self.digest['totals']['outcomes']} != direct scoring {expected}"
            )


WORKLOADS = {w.name: w for w in (CampaignDefault, CampaignSweep, Serve)}
