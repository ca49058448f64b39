"""Eager golden capture: the oracle for on-demand follow-ups.

Production captures a golden without its follow-up stream and runs that
stream only when a trial first needs it
(:func:`repro.faults.propagation.materialize_followups`).  This helper
captures the way the campaign used to: the follow-ups execute right after
the injected activation, from the state it left behind.
"""

from __future__ import annotations

import dataclasses

from repro.faults.propagation import GoldenRun, capture_golden, execute_logged


def capture_golden_eager(hv, activation, followups) -> GoldenRun:
    """Capture ``activation`` and execute ``followups`` right after it,
    logging each the way materialization does."""
    golden = capture_golden(hv, activation)
    logged = tuple(execute_logged(hv, f) for f in followups)
    return dataclasses.replace(
        golden,
        followups=tuple(result for result, _ in logged),
        followup_logs=tuple(log for _, log in logged),
    )
