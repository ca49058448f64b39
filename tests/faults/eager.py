"""Eager golden capture: the oracle for on-demand follow-ups.

Production captures a golden without its follow-up stream and runs that
stream only when a trial first needs it
(:func:`repro.faults.propagation.materialize_followups`).  This helper
captures the way the campaign used to: the follow-ups execute right after
the injected activation, from the state it left behind.
"""

from __future__ import annotations

import dataclasses

from repro.faults.propagation import GoldenRun, capture_golden


def capture_golden_eager(hv, activation, followups) -> GoldenRun:
    """Capture ``activation`` and execute ``followups`` right after it."""
    golden = capture_golden(hv, activation)
    results = tuple(hv.execute(f) for f in followups)
    return dataclasses.replace(golden, followups=results)
