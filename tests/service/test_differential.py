"""The columnar serve pipeline against the per-row oracle (``per_row.py``).

Hypothesis varies the fleet (hosts, VMs, rows per tick, bursts, injected
share, seed), the backpressure (queue depth, both policies), the batch size
(1 to 4,096), the row cap and the detector's threshold.  Both pipelines must
agree on the totals, the ticks, the batches and the whole ``/metrics``
exposition, children in the same order; only the latency histogram's
``_bucket`` and ``_sum`` lines are left out, since they hold wall-clock
values (its ``_count`` lines are compared).  The oracle tallies its totals
by hand, while the service reads them off its registry, so the comparison
also checks the registry's counts; the registry's per-host children and
``/healthz`` must agree with the report.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import DetectionService, FleetConfig, OverflowPolicy, ServiceConfig

from tests.service.conftest import make_threshold_rules
from tests.service.per_row import run_per_row

_WALL_CLOCK = (
    "repro_decision_latency_seconds_bucket",
    "repro_decision_latency_seconds_sum",
)


def exposition(metrics) -> list[str]:
    return [
        line for line in metrics.registry.expose().splitlines()
        if not line.startswith(_WALL_CLOCK)
    ]


def per_host(metric) -> dict[str, int]:
    return {host: child.value for (host,), child in metric.children()}


configs = st.builds(
    ServiceConfig,
    fleet=st.builds(
        FleetConfig,
        hosts=st.integers(1, 6),
        vms_per_host=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        inject_fraction=st.sampled_from([0.0, 0.1, 0.4]),
        rows_per_tick=st.integers(1, 6),
        burst_every=st.integers(0, 4),
        burst_rows=st.integers(0, 40),
    ),
    batch_rows=st.one_of(st.integers(1, 40), st.sampled_from([256, 4096])),
    queue_depth=st.integers(1, 24),
    policy=st.sampled_from(list(OverflowPolicy)),
    max_rows=st.integers(1, 400),
)


@settings(max_examples=120, deadline=None)
@given(config=configs, threshold=st.sampled_from([300, 800, 1000]))
def test_columnar_pipeline_matches_per_row_oracle(config, threshold):
    model = make_threshold_rules(threshold)
    oracle = run_per_row(config, model, clock=lambda: 0.0)
    service = DetectionService(config, model)
    report = service.run()

    assert report.totals == oracle.totals
    assert report.totals.batches == oracle.totals.batches
    assert (report.rows_emitted, report.rows_injected, report.ticks) \
        == (oracle.rows_emitted, oracle.rows_injected, oracle.ticks)
    assert exposition(service.metrics) == exposition(oracle.metrics)

    metrics = service.metrics
    emitted = per_host(metrics.rows_emitted)
    scored, dropped = per_host(metrics.rows_scored), per_host(metrics.rows_dropped)
    assert list(emitted) == list(scored) == list(dropped)
    for host, rows in emitted.items():
        assert rows == scored[host] + dropped[host], host
    assert sum(emitted.values()) == report.rows_emitted
    health = service.health()
    t = report.totals
    assert (health["rows_scored"], health["rows_dropped"], health["detections"]) \
        == (t.rows_scored, t.rows_dropped, t.detections)
