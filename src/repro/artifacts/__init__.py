"""Content-addressed golden artifact cache, read from committed packs.

Every golden group of a fault-injection campaign is a pure function of the
digest-relevant subset of :class:`~repro.faults.campaign.CampaignConfig`
and its ``(benchmark, group)`` coordinate, so its products — the
:class:`~repro.faults.propagation.GoldenRun` with its pre- and post-run
checkpoints, and the lock-step :class:`~repro.machine.lockstep.TwinPlan` — can be captured
once, stored by content address, and loaded by every later run; serial
runs and pool workers read the same packs:

* :mod:`repro.artifacts.store` — the on-disk pack store and the golden digest;
* :mod:`repro.artifacts.codec` — the versioned, checksummed binary format;
* :mod:`repro.artifacts.runtime` — the capture-or-load policy.

Submodules import lazily where needed (``store`` reaches into
``repro.faults``); import concrete names from the submodules.
"""

__all__ = ["codec", "runtime", "store"]
