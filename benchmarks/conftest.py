"""Shared fixtures for the reproduction benchmarks.

The heavy artifacts — the labeled datasets, the trained classifiers, and the
fault-injection campaign — are built once per session and shared by every
figure/table harness.

Scale: by default the harness runs at roughly 1/3 of the paper's sample
counts (a few minutes end to end).  Set ``REPRO_BENCH_SCALE=3`` to run at
full paper scale (~23,400 training injections, ~17,700 test injections,
30,000-injection campaign), or below 1 for smoke runs.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.faults import CampaignConfig, CampaignResult, FaultInjectionCampaign
from repro.xentry import (
    TrainedModel,
    TrainingConfig,
    VMTransitionDetector,
    collect_dataset,
    train_and_evaluate,
)

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "5"))


def scaled(n: int) -> int:
    return max(50, int(n * SCALE))


def write_bench(name: str, summary: dict) -> Path:
    """Write a harness summary, with the host it was measured on, to
    ``BENCH_<name>.json`` next to this file (or to ``REPRO_BENCH_OUTPUT``);
    return the path."""
    path = Path(
        os.environ.get("REPRO_BENCH_OUTPUT", Path(__file__).parent / f"BENCH_{name}.json")
    )
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    path.write_text(json.dumps({**summary, "host": host}, indent=1))
    return path


@dataclass(frozen=True)
class TrainedBundle:
    """Datasets plus both trained classifiers (Section III.B artifacts)."""

    decision_tree: TrainedModel
    random_tree: TrainedModel

    @property
    def detector(self) -> VMTransitionDetector:
        """The deployed detector (the paper deploys the random tree)."""
        return VMTransitionDetector.from_classifier(self.random_tree.classifier)


@pytest.fixture(scope="session")
def trained_bundle() -> TrainedBundle:
    """Collect train/test sets and fit both tree algorithms."""
    train = collect_dataset(
        TrainingConfig(
            fault_free_runs=scaled(2000),
            injection_runs=scaled(7800),  # paper: ~23,400 at scale 3
            seed=SEED,
        ),
        stream="train",
    )
    test = collect_dataset(
        TrainingConfig(
            fault_free_runs=scaled(1000),
            injection_runs=scaled(3900),  # paper: ~17,700 at scale ~4.5
            seed=SEED,
        ),
        stream="test",
    )
    return TrainedBundle(
        decision_tree=train_and_evaluate(train, test, algorithm="decision_tree", seed=3),
        random_tree=train_and_evaluate(train, test, algorithm="random_tree", seed=3),
    )


@pytest.fixture(scope="session")
def campaign_result(trained_bundle: TrainedBundle) -> CampaignResult:
    """The Section V fault-injection campaign with Xentry deployed."""
    config = CampaignConfig(n_injections=scaled(10_000), seed=77)  # paper: 30,000
    campaign = FaultInjectionCampaign(config, detector=trained_bundle.detector)
    return campaign.run()


@pytest.fixture(scope="session")
def deployed_detector(
    trained_bundle: TrainedBundle, campaign_result: CampaignResult
) -> VMTransitionDetector:
    """The detector *after* the campaign, with traversal statistics filled."""
    return trained_bundle.detector
