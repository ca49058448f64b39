"""Command-line interface: drive the reproduction without writing code.

Installed as ``repro-xentry``.  Subcommands map one-to-one onto the paper's
evaluation artifacts::

    repro-xentry info                      # platform inventory
    repro-xentry rates [--mode pv|hvm]     # Fig. 3 activation-rate table
    repro-xentry train [--scale 3]         # Section III.B classifier pipeline
    repro-xentry train --jobs 4 --journal-dir runs --save-model model.json
    repro-xentry campaign [--injections N] # Figs. 8-10 + Table II
    repro-xentry campaign --scenario examples/mixed.yaml   # fault-model mix
    repro-xentry campaign --jobs 4 --journal run.jsonl [--resume]
    repro-xentry campaign --artifacts cache/       # golden artifact cache
    repro-xentry campaign --jobs 4 --retries 3 --shard-timeout 600 \
                          --chaos crash=0.2,seed=1   # engine self-test
    repro-xentry overhead                  # Fig. 7 fault-free overhead
    repro-xentry recovery                  # Fig. 11 recovery-cost estimate
    repro-xentry serve --model model.json --hosts 64 --max-rows 100000 \
                       --port 9109         # streaming detection daemon

All commands are deterministic in ``--seed``; ``serve`` additionally
guarantees that fixed-seed, row-capped runs produce bit-identical detection
totals regardless of ``--batch-rows``.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence
from pathlib import Path

from repro.analysis import (
    BoxStats,
    LatencyStudy,
    PerfOverheadModel,
    coverage_by_benchmark,
    coverage_by_fault_class,
    dataset_from_journal,
    journal_progress,
    long_latency_breakdown,
    records_from_journal,
    summarize_recovery,
    undetected_breakdown,
)
from repro.engine import (
    CampaignEngine,
    EngineTelemetry,
    RetryPolicy,
    parse_chaos_spec,
    stderr_progress,
)
from repro.engine.journal import JOURNAL_FORMAT
from repro.errors import CampaignConfigError
from repro.faults import CampaignConfig
from repro.hypervisor import ExitCategory, REGISTRY, XenHypervisor
from repro.ml import compile_tree
from repro.persist import load_model, load_records, save_model, save_records, save_rules
from repro.scenarios import load_scenario
from repro.service import (
    DetectionService,
    FleetConfig,
    OverflowPolicy,
    ServiceConfig,
)
from repro.workloads import BENCHMARKS, VirtMode, WorkloadGenerator
from repro.xentry import (
    RecoveryCostModel,
    TrainingConfig,
    VMTransitionDetector,
    collect_dataset,
    estimate_recovery_overhead,
    train_and_evaluate,
)

__all__ = ["main"]


def _cmd_info(args: argparse.Namespace) -> int:
    hv = XenHypervisor(seed=args.seed, n_domains=args.domains)
    print("simulated platform")
    print(f"  domains:            {hv.n_domains} (Dom0 + {hv.n_domains - 1} guests)")
    print(f"  hypervisor text:    {hv.program.size:,} bytes "
          f"({len(hv.program):,} instructions)")
    print(f"  hypervisor heap:    {hv.memory_map.heap_size:,} bytes, "
          f"{len(hv.layout.all_slots)} structures")
    print("  exit reasons:")
    for category in ExitCategory:
        reasons = REGISTRY.in_category(category)
        print(f"    {category.value:<12} {len(reasons)}")
    print(f"    total        {len(REGISTRY)}")
    return 0


def _cmd_rates(args: argparse.Namespace) -> int:
    modes = [VirtMode.PV, VirtMode.HVM] if args.mode == "both" else [
        VirtMode.PV if args.mode == "pv" else VirtMode.HVM
    ]
    print("Fig. 3 — hypervisor activation frequency (activations/second)")
    for mode in modes:
        print(f"\n[{mode.value}]")
        print(f"{'benchmark':<14} {'min':>12} {'q25':>12} {'median':>12} "
              f"{'q75':>12} {'max':>12}")
        for profile in BENCHMARKS:
            generator = WorkloadGenerator(profile, mode, seed=args.seed)
            stats = BoxStats.from_samples(generator.rate_per_second(args.seconds))
            print(stats.row(profile.name))
    return 0


def _train(args: argparse.Namespace):
    """Collect train+test sets, engine-backed (``--jobs``/``--journal-dir``)."""
    jobs = getattr(args, "jobs", 1)
    journal_dir = getattr(args, "journal_dir", None)
    resume = bool(journal_dir) and getattr(args, "resume", False)
    sets = {}
    for stream, free, inj in (("train", 2000, 7800), ("test", 1000, 3900)):
        config = TrainingConfig(
            fault_free_runs=int(free * args.scale),
            injection_runs=int(inj * args.scale),
            seed=args.seed,
        )
        kwargs: dict = {}
        if journal_dir:
            directory = Path(journal_dir)
            directory.mkdir(parents=True, exist_ok=True)
            telemetry = EngineTelemetry()
            telemetry.subscribe(stderr_progress(telemetry))
            kwargs = {
                "journal_path": directory / f"{stream}.samples.jsonl",
                "resume": resume,
                "telemetry": telemetry,
            }
        sets[stream] = collect_dataset(config, stream=stream, jobs=jobs, **kwargs)
    return sets["train"], sets["test"]


def _cmd_train(args: argparse.Namespace) -> int:
    t0 = time.time()
    if args.datasets_from:
        directory = Path(args.datasets_from)
        train = dataset_from_journal(directory / "train.samples.jsonl")
        test = dataset_from_journal(directory / "test.samples.jsonl")
        print(f"datasets rebuilt from sample journals in {directory}")
    else:
        train, test = _train(args)
    print(f"train: {train.describe()}")
    print(f"test:  {test.describe()}")
    models = {}
    for algo in ("decision_tree", "random_tree"):
        models[algo] = train_and_evaluate(train, test, algorithm=algo, seed=3)
        print()
        print(models[algo].confusion.report(algo))
    print(f"\n(paper: random tree 98.6% vs decision tree 96.1%; "
          f"elapsed {time.time() - t0:.0f}s)")
    if args.journal_dir:
        print(f"sample journals at {args.journal_dir}/"
              f"{{train,test}}.samples.jsonl (+ .manifest.json)")
    if args.save_model:
        save_model(models["random_tree"], args.save_model)
        print(f"trained model (rules + evaluation) written to {args.save_model}")
    if args.save_rules:
        save_rules(compile_tree(models["random_tree"].classifier), args.save_rules)
        print(f"deployable rule table written to {args.save_rules}")
    return 0


def _load_saved_records(path: str):
    """Load records from either a ``save_records`` file or an engine journal."""
    with open(path) as fh:
        header = fh.readline()
    if f'"{JOURNAL_FORMAT}"' in header:
        progress = journal_progress(path)
        print(f"journal: {progress['done_trials']}/{progress['total_trials']} "
              f"trials durable ({progress['fraction_done']:.0%}), "
              f"{len(progress['completed_shards'])}/{progress['n_shards']} shards")
        return records_from_journal(path)
    return load_records(path)


def _cmd_campaign(args: argparse.Namespace) -> int:
    t0 = time.time()
    if args.records_from:
        return _report_records(_load_saved_records(args.records_from))
    if args.resume and not args.journal:
        print("--resume requires --journal", file=sys.stderr)
        return 2
    # Validate the scenario before the (comparatively slow) detector
    # training phase, so a typo in the file fails in milliseconds.
    scenario = None
    if args.scenario:
        try:
            scenario = load_scenario(args.scenario)
        except CampaignConfigError as exc:
            print(f"bad scenario: {exc}", file=sys.stderr)
            return 2
    train, test = _train(args)
    model = train_and_evaluate(train, test, algorithm="random_tree", seed=3)
    print(f"detector: accuracy {model.accuracy:.1%}, "
          f"FP {model.false_positive_rate:.2%}")
    detector = VMTransitionDetector.from_classifier(model.classifier)
    config = CampaignConfig(
        n_injections=args.injections, seed=args.seed,
        translate=not args.no_translate,
        twin_batch=not args.no_twin_batch,
        recover=args.recover,
        recovery_hazard=args.recovery_hazard,
        artifacts=args.artifacts,
    )
    if scenario is not None:
        config = scenario.apply(config)
        print(f"scenario: {scenario.describe()}")
    telemetry = EngineTelemetry()
    telemetry.subscribe(stderr_progress(telemetry))
    result = CampaignEngine(
        config,
        jobs=args.jobs,
        n_shards=max(4, 2 * args.jobs),
        detector=detector,
        journal_path=args.journal,
        telemetry=telemetry,
        retry=RetryPolicy(max_retries=args.retries, seed=args.seed),
        shard_timeout=args.shard_timeout,
        chaos=parse_chaos_spec(args.chaos) if args.chaos else None,
    ).run(resume=args.resume)
    if args.journal:
        print(f"journal at {args.journal} "
              f"(manifest: {args.journal}.manifest.json)")
    print(f"\n{len(result)} injections, {len(result.manifested)} manifested "
          f"({time.time() - t0:.0f}s)")
    # The campaign's shard attempts alone: detector training above runs
    # guest code too (under --no-translate the summary must read 0%).
    counters = telemetry.counters
    cache = counters.golden_cache()
    capture, load = cache["golden_capture_seconds"], cache["golden_load_seconds"]
    hits = cache["golden_hits"]
    consulted = hits + cache["golden_misses"]
    if capture or load or consulted:
        cache_note = f", cache {hits}/{consulted} hits" if consulted else ""
        print(f"golden capture: {capture:.2f}s capturing live, "
              f"{load:.2f}s loading cached artifacts{cache_note}")
    _print_machine(counters.machine(), pooled=args.jobs > 1)
    if args.output:
        save_records(result.records, args.output)
        print(f"records written to {args.output}")
    if not result.degraded:
        return _report_records(result.records)
    # Report what survived (a heavily-degraded campaign may not have enough
    # records for every table), then say why the run is incomplete on stderr
    # and exit non-zero so pipelines notice.
    if result.records:
        try:
            _report_records(result.records)
        except CampaignConfigError as exc:
            print(f"(analysis skipped on degraded records: {exc})")
    print(f"\nDEGRADED: {result.summary()}", file=sys.stderr)
    return 3


def _print_machine(stats: dict, *, pooled: bool) -> None:
    """The campaign summary's translation-cache, twin-batching and
    golden-reuse lines."""
    if stats.get("block_executions"):
        compiled = f"{stats['blocks_compiled']} blocks compiled"
        if pooled:
            compiled += (f" in workers, {stats['blocks_adopted']} adopted "
                         "by the coordinator")
            prefork = stats["blocks_compiled_prefork"]
            if prefork:
                compiled += f" ({prefork} compiled before forking)"
        print(f"translation cache: {compiled}, "
              f"hit rate {stats['block_hit_rate']:.1%}, "
              f"{stats['translated_share']:.1%} of instructions translated")
    if stats.get("twins"):
        dead_share = stats["dead_twins"] / stats["twins"]
        print(f"twin batching: {stats['twins']} twins in "
              f"{stats['twin_batches']} batches, "
              f"{stats['dead_twins']} settled without execution "
              f"({dead_share:.1%}), {stats['peeled_twins']} peeled")
    window = stats.get("followups_executed", 0) + stats.get("followups_from_golden", 0)
    if window or stats.get("activations_from_golden"):
        print(f"golden reuse: {stats['followups_from_golden']} of {window} "
              f"follow-up executions and {stats['activations_from_golden']} "
              f"memory-fault activations taken from the golden run, "
              f"{stats['golden_instructions_skipped']} instructions not executed")


def _report_records(records) -> int:
    print("\nFig. 8 — coverage by technique")
    for name, cov in coverage_by_benchmark(records).items():
        print(cov.row(name))
    # Scenario campaigns mix fault classes; show how coverage shifts across
    # them.  Single-model campaigns skip the section (historical output).
    by_class = coverage_by_fault_class(tuple(records))
    if len(by_class) > 2:  # classes + AVG
        print("\nFig. 8b — coverage by fault class")
        for name, cov in by_class.items():
            print(cov.row(name))
    summary = summarize_recovery(tuple(records))
    if summary.trials:
        print("\nRecovery — measured survival axis")
        for line in summary.lines():
            print(f"  {line}")
    print("\nFig. 9 — long-latency errors")
    for klass, (detected, total) in long_latency_breakdown(records).items():
        rate = f"{detected / total:.1%}" if total else "---"
        print(f"  {klass.value:<16} {detected}/{total} ({rate})")
    print("\nFig. 10 — latency CDF")
    print(LatencyStudy.from_records(records).table([100, 300, 500, 700, 1000]))
    print("\nTable II — undetected faults")
    for kind, share in undetected_breakdown(records).items():
        print(f"  {kind.value:<16} {share:6.1%}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.max_rows is None and args.duration is None:
        print("serve needs a stop condition: --max-rows or --duration",
              file=sys.stderr)
        return 2
    artifact = load_model(args.model)
    accuracy = artifact.evaluation.get("accuracy")
    print(f"model: {artifact.name}"
          + (f" (held-out accuracy {accuracy:.1%})" if accuracy else ""))
    config = ServiceConfig(
        fleet=FleetConfig(
            hosts=args.hosts,
            vms_per_host=args.vms_per_host,
            seed=args.seed,
            inject_fraction=args.inject_fraction,
            burst_every=args.burst_every,
            burst_rows=args.burst_rows,
        ),
        batch_rows=args.batch_rows,
        queue_depth=args.queue_depth,
        policy=OverflowPolicy(args.policy),
        max_rows=args.max_rows,
        duration=args.duration,
    )
    service = DetectionService(config, artifact)
    print(f"fleet: {config.fleet.hosts} hosts x {config.fleet.vms_per_host} VMs, "
          f"seed {config.fleet.seed}, "
          f"inject fraction {config.fleet.inject_fraction:.1%}")

    def progress(emitted: int, scored: int) -> None:
        sys.stderr.write(f"\r{emitted:,} rows emitted, {scored:,} scored")
        sys.stderr.flush()

    server = None
    if not args.no_http:
        server = service.endpoint(port=args.port).start()
        print(f"serving /metrics and /healthz at {server.url}", flush=True)
    try:
        # Ctrl-C stops the tick loop; the run drains and reports what ran.
        report = service.run(progress=progress)
        if args.summary:
            service.write_summary(args.summary)
        if server is not None and args.hold > 0:
            print(f"holding endpoint open for {args.hold:g}s (Ctrl-C to stop)",
                  flush=True)
            try:
                time.sleep(args.hold)
            except KeyboardInterrupt:
                pass
    finally:
        if server is not None:
            server.stop()
    sys.stderr.write("\r")
    print(report.summary())
    if args.summary:
        print(f"deterministic summary written to {args.summary}")
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    model = PerfOverheadModel()
    print("Fig. 7 — fault-free performance overhead (10 runs per benchmark)")
    total = 0.0
    for profile in BENCHMARKS:
        study = model.study(profile, seed=args.seed)
        total += study.mean_full
        print(study.row())
    print(f"average full overhead: {total / len(BENCHMARKS):.2%} (paper: 2.5%)")
    return 0


def _cmd_recovery(args: argparse.Namespace) -> int:
    model = RecoveryCostModel()
    print("Fig. 11 — recovery overhead with false positives")
    print(f"(copy {model.copy_ns:.0f} ns/exit, FP rate "
          f"{model.false_positive_rate:.1%}, 100 repetitions)")
    total = 0.0
    for profile in BENCHMARKS:
        study = estimate_recovery_overhead(profile, model=model, seed=args.seed)
        total += study.mean
        print(f"  {profile.name:<12} mean {study.mean:7.3%}  "
              f"spread {study.spread:9.5%}")
    print(f"average: {total / len(BENCHMARKS):.2%} (paper: 2.7%)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xentry",
        description="Xentry (ICPP 2014) reproduction toolkit",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=5, help="root seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="platform inventory", parents=[common])
    p.add_argument("--domains", type=int, default=3)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("rates", help="Fig. 3 activation-rate table", parents=[common])
    p.add_argument("--mode", choices=("pv", "hvm", "both"), default="both")
    p.add_argument("--seconds", type=int, default=600)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("train", help="Section III.B classifier pipeline", parents=[common])
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for sample collection "
                        "(default: 1, serial; datasets are bit-identical)")
    p.add_argument("--journal-dir", metavar="DIR",
                   help="journal collected samples to DIR/{train,test}"
                        ".samples.jsonl (crash-safe, resumable)")
    p.add_argument("--resume", action="store_true",
                   help="resume collection from --journal-dir, "
                        "re-running only missing shards")
    p.add_argument("--datasets-from", metavar="DIR",
                   help="skip collection; rebuild datasets from the sample "
                        "journals in DIR")
    p.add_argument("--save-model", metavar="PATH",
                   help="write the random-tree model (compiled rules + "
                        "held-out evaluation) as JSON")
    p.add_argument("--save-rules", metavar="PATH",
                   help="write the deployable rule table as JSON")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("campaign", help="fault-injection campaign (Figs. 8-10)", parents=[common])
    p.add_argument("--injections", type=int, default=6000)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--output", metavar="PATH",
                   help="write trial records as JSON lines")
    p.add_argument("--records-from", metavar="PATH",
                   help="skip execution; re-analyze saved records or a journal")
    p.add_argument("--scenario", metavar="PATH",
                   help="declarative scenario file (YAML): fault-model "
                        "mixture, memory-subsystem targeting, workload "
                        "overrides; its campaign: section overrides CLI "
                        "flags (see examples/)")
    p.add_argument("--no-translate", action="store_true",
                   help="disable the basic-block translation cache and run "
                        "every instruction through the interpreter "
                        "(slower; records are bit-identical either way)")
    p.add_argument("--no-twin-batch", action="store_true",
                   help="disable lock-step twin batching and execute every "
                        "injection per-trial (slower; records are "
                        "bit-identical either way)")
    p.add_argument("--artifacts", metavar="DIR",
                   help="content-addressed golden artifact cache: load cached "
                        "golden runs from DIR instead of re-executing them, "
                        "save newly captured ones there (records are "
                        "bit-identical cold, warm, shared or disabled)")
    p.add_argument("--recover", choices=("reexecute", "microreboot", "ladder"),
                   default=None, metavar="POLICY",
                   help="run every detected trial through a recovery policy "
                        "(reexecute | microreboot | ladder) and record "
                        "survival, downtime and golden divergence")
    p.add_argument("--recovery-hazard", type=float, default=0.0,
                   metavar="PROB",
                   help="probability of a second soft error striking during "
                        "a recovery attempt (deterministic per trial/attempt; "
                        "default: 0)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the campaign engine "
                        "(default: 1, shards run inline; results are "
                        "bit-identical)")
    p.add_argument("--journal", metavar="PATH",
                   help="journal finished shards to PATH (crash-safe JSONL)")
    p.add_argument("--resume", action="store_true",
                   help="resume from --journal, skipping completed shards")
    p.add_argument("--retries", type=int, default=2,
                   help="per-shard retry budget before quarantine (default: 2; "
                        "a degraded campaign exits with code 3)")
    p.add_argument("--shard-timeout", type=float, default=None, metavar="SECONDS",
                   help="wall-clock watchdog per shard attempt "
                        "(pool mode; hung workers are killed and retried)")
    p.add_argument("--chaos", metavar="SPEC",
                   help="inject deterministic engine faults to exercise the "
                        "supervisor, e.g. '0.2' or "
                        "'crash=0.2,hard=0.05,hang=0.1,journal=0.05,seed=1'")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "serve",
        help="streaming detection daemon (simulated fleet + /metrics)",
        parents=[common],
    )
    p.add_argument("--model", required=True, metavar="PATH",
                   help="model artifact from 'train --save-model'")
    p.add_argument("--hosts", type=int, default=8,
                   help="simulated hypervisor hosts (default: 8)")
    p.add_argument("--vms-per-host", type=int, default=4)
    p.add_argument("--max-rows", type=int, default=None, metavar="N",
                   help="stop after N rows fleet-wide (deterministic mode: "
                        "totals are bit-identical across runs and batch sizes)")
    p.add_argument("--duration", type=float, default=None, metavar="SECONDS",
                   help="stop after a wall-clock budget instead of a row cap")
    p.add_argument("--inject-fraction", type=float, default=0.02,
                   help="fraction of rows carrying an injected fault "
                        "(default: 0.02)")
    p.add_argument("--batch-rows", type=int, default=256,
                   help="micro-batch size drained per classify_batch call")
    p.add_argument("--queue-depth", type=int, default=1024,
                   help="bounded per-host queue depth (backpressure bound)")
    p.add_argument("--policy", choices=[pol.value for pol in OverflowPolicy],
                   default=OverflowPolicy.DROP_OLDEST.value,
                   help="full-queue policy (default: drop-oldest, counted "
                        "per host; block never drops)")
    p.add_argument("--burst-every", type=int, default=0, metavar="TICKS",
                   help="emit a burst every N ticks (exercises backpressure)")
    p.add_argument("--burst-rows", type=int, default=0,
                   help="extra rows per burst tick per host")
    p.add_argument("--port", type=int, default=0,
                   help="scrape endpoint port (default: 0 = ephemeral)")
    p.add_argument("--no-http", action="store_true",
                   help="run without the scrape endpoint")
    p.add_argument("--hold", type=float, default=0.0, metavar="SECONDS",
                   help="keep /metrics up this long after the stream ends "
                        "so scrapers can collect final totals")
    p.add_argument("--summary", metavar="PATH",
                   help="write the deterministic totals as JSON (what the "
                        "bit-identical contract is diffed on)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("overhead", help="Fig. 7 fault-free overhead", parents=[common])
    p.set_defaults(func=_cmd_overhead)

    p = sub.add_parser("recovery", help="Fig. 11 recovery-cost estimate", parents=[common])
    p.set_defaults(func=_cmd_recovery)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
