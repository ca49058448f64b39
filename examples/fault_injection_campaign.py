#!/usr/bin/env python3
"""A miniature Section V fault-injection campaign.

Trains a quick transition detector, then injects single-bit register flips
into live hypervisor executions across the six-benchmark suite and prints the
Fig. 8 / Fig. 9 / Fig. 10 / Table II summaries.

Pass ``--injections 30000 --scale 3`` to run at the paper's campaign size,
and ``--jobs 4`` to fan the campaign out over four worker processes (the
sharded engine runs it inline at ``--jobs 1``; results are bit-identical
either way).
"""

from __future__ import annotations

import argparse
import time

from repro.analysis import (
    LatencyStudy,
    coverage_by_benchmark,
    long_latency_breakdown,
    undetected_breakdown,
)
from repro.engine import CampaignEngine, EngineTelemetry, stderr_progress
from repro.faults import CampaignConfig
from repro.faults.outcomes import DetectionTechnique
from repro.xentry import (
    TrainingConfig,
    VMTransitionDetector,
    collect_dataset,
    train_and_evaluate,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--injections", type=int, default=6000,
                        help="campaign size (paper: 30,000)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="training sample-count multiplier")
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = shards run inline)")
    args = parser.parse_args()

    print("=== training the transition detector ===")
    t0 = time.time()
    train = collect_dataset(
        TrainingConfig(fault_free_runs=int(2000 * args.scale),
                       injection_runs=int(7800 * args.scale), seed=5),
        stream="train",
    )
    test = collect_dataset(
        TrainingConfig(fault_free_runs=int(1000 * args.scale),
                       injection_runs=int(3900 * args.scale), seed=5),
        stream="test",
    )
    model = train_and_evaluate(train, test, algorithm="random_tree", seed=3)
    print(f"random tree: accuracy {model.accuracy:.1%}, "
          f"FP rate {model.false_positive_rate:.2%} "
          f"({time.time() - t0:.0f}s)")

    print(f"\n=== running {args.injections} injections ===")
    detector = VMTransitionDetector.from_classifier(model.classifier)
    config = CampaignConfig(n_injections=args.injections, seed=args.seed)
    telemetry = EngineTelemetry()
    telemetry.subscribe(stderr_progress(telemetry))
    result = CampaignEngine(
        config, jobs=args.jobs, n_shards=2 * args.jobs, detector=detector,
        telemetry=telemetry,
    ).run()
    print(f"\n{len(result)} trials, {len(result.manifested)} manifested "
          f"failures/corruptions ({time.time() - t0:.0f}s total)")

    print("\n=== Fig. 8: overall detection results ===")
    for name, cov in coverage_by_benchmark(result.records).items():
        print(cov.row(name))

    print("\n=== Fig. 9: long-latency errors by consequence ===")
    for klass, (detected, total) in long_latency_breakdown(result.records).items():
        rate = f"{detected / total:.1%}" if total else "---"
        print(f"  {klass.value:<16} detected {detected}/{total} ({rate})")

    print("\n=== Fig. 10: detection latency ===")
    study = LatencyStudy.from_records(result.records)
    print(study.table([100, 300, 500, 700, 1000]))
    within = study.fraction_within(DetectionTechnique.VM_TRANSITION, 700)
    print(f"  transition detections within 700 instructions: {within:.1%} "
          f"(paper: ~95%)")

    print("\n=== Table II: undetected faults ===")
    for kind, share in undetected_breakdown(result.records).items():
        print(f"  {kind.value:<16} {share:6.1%}")


if __name__ == "__main__":
    main()
