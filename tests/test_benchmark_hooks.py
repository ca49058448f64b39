"""The benchmark's tracer hooks and ledger views still resolve against this tree.

``perfbench/spans.py`` wraps program functions where their callers look them
up (module globals and class attributes such as
``repro.engine.pool.warm_worker``) and reads the program's counters through
six views (``CACHE.stats()``, ``lockstep.stats()``,
``artifacts.runtime.stats()``, ``XenHypervisor.ff_stats``,
``EngineTelemetry.artifact_stats`` and the dict ``execute_shard`` returns).
A rename or deletion in ``src/`` would only surface in a traced benchmark
run, so a fresh interpreter installs and uninstalls the tracer, then traces
a tiny pooled campaign cold and warm on one store, as the ``campaign-sweep``
workload does.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import tempfile

from perfbench.spans import (
    Tracer, TracingTelemetry, _ff_snapshot, ledger_snapshot, pass_layers,
)
from repro.engine import CampaignEngine
from repro.faults import CampaignConfig
from repro.faults.campaign import benchmark_geometry
from repro.hypervisor import XenHypervisor

tracer = Tracer()
tracer.install()
wrapped = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in tracer._patches]
tracer.uninstall()
assert all(getattr(owner, attr) is not hook for owner, attr, hook in wrapped)
print(len(wrapped))

# Every ledger key pass_layers reads (ml.rows_classified comes from a hook).
READ = {
    "faults.trials", "faults.dead_twins", "faults.peeled_trials", "twins",
    "golden_hits", "golden_misses", "machine.instructions", "machine.translated",
    "machine.blocks_compiled", "machine.instructions_skipped",
    "machine.proved_hangs", "artifacts.bytes_written", "artifacts.bytes_loaded",
    "artifacts.shm_hits",
}
hv = XenHypervisor()
missing = READ - set(ledger_snapshot()) - set(_ff_snapshot(hv))
assert not missing, missing
# _ff_snapshot reads proved_hangs with a default, so check the view itself.
assert {"trials", "instructions_skipped", "proved_hangs"} <= set(hv.ff_stats)

config = CampaignConfig(
    benchmarks=("mcf",), n_injections=16, seed=3, artifacts=tempfile.mkdtemp(),
)
groups = benchmark_geometry(config).n_goldens * len(config.benchmarks)
for pass_id in (1, 2):
    telemetry = TracingTelemetry(tracer)
    tracer.pass_id = pass_id
    tracer.install()
    before = ledger_snapshot()
    root = tracer.open("pass")
    try:
        result = CampaignEngine(config, jobs=2, n_shards=2, telemetry=telemetry).run()
    finally:
        tracer.close(root)
        tracer.tally({k: v - before[k] for k, v in ledger_snapshot().items()})
        tracer.uninstall()
    # Raises on a broken conservation law (trials counted != records, ...).
    layers = pass_layers(tracer, pass_id, jobs=2, records=len(result.records),
                         groups=groups, cached=True)
    assert layers["faults.trials"] == len(result.records) > 0, layers
    assert any(
        span[4] == pass_id for _, spans in tracer.worker_chunks for span in spans
    ), "no worker trace reached the coordinator"
    cache = telemetry.artifact_stats
    if pass_id == 2:
        assert cache["golden_hits"] == groups, cache
        assert cache["golden_capture_seconds"] == 0, cache
    else:
        assert cache["golden_misses"] == groups and cache["golden_capture_seconds"] > 0
"""


def test_every_tracer_hook_resolves():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    done = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 0
