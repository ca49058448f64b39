"""Shared helpers for the streaming-service tests.

``threshold_rules`` is a hand-built one-split rule table — RT above a known
threshold classifies INCORRECT — so tests can construct streams with *exact*,
predictable detection counts instead of depending on what a trained tree
happens to learn.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.export import CompiledRules
from repro.service.fleet import FleetRow, FleetTick


def make_threshold_rules(threshold: int = 1000) -> CompiledRules:
    """``RT <= threshold -> CORRECT, RT > threshold -> INCORRECT``."""
    return CompiledRules(
        feature=np.array([1, -1, -1], dtype=np.int16),
        threshold=np.array([threshold, 0, 0], dtype=np.int64),
        left=np.array([1, 0, 0], dtype=np.int32),
        right=np.array([2, 0, 0], dtype=np.int32),
        prediction=np.array([0, 0, 1], dtype=np.int8),
        feature_names=("VMER", "RT", "BR", "RM", "WM"),
    )


def make_row(
    host: int = 0,
    vm: int = 0,
    tick: int = 0,
    rt: int = 100,
    injected: bool = False,
) -> FleetRow:
    """A feature row whose verdict under ``threshold_rules`` is rt > 1000."""
    return FleetRow(
        host=host, vm=vm, tick=tick, features=(3, rt, 10, 5, 2), injected=injected
    )


def make_tick(rows: list[FleetRow], tick: int = 0) -> FleetTick:
    """Stack rows, in the order given, into one tick's columns."""
    return FleetTick(
        tick=tick,
        host=np.array([row.host for row in rows], dtype=np.int64),
        vm=np.array([row.vm for row in rows], dtype=np.int64),
        features=np.array([row.features for row in rows], dtype=np.int64).reshape(-1, 5),
        injected=np.array([row.injected for row in rows], dtype=bool),
    )


@pytest.fixture
def threshold_rules() -> CompiledRules:
    return make_threshold_rules()
