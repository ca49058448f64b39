"""Fleet simulator determinism and emission properties."""

import numpy as np
import pytest

from repro.errors import CampaignConfigError
from repro.hypervisor import REGISTRY
from repro.service.fleet import FleetConfig, FleetRow, FleetSimulator, HostStream

from tests.service.per_row import PerRowFleet


def emit_all(config: FleetConfig, max_rows: int):
    sim = FleetSimulator(config)
    rows = [row for tick in sim.stream(max_rows) for row in tick]
    return sim, rows


def host_rows(stream: HostStream, ticks: int) -> np.ndarray:
    return np.concatenate([stream.rows_for_tick(t) for t in range(ticks)])


class TestHostStream:
    def test_host_stream_is_a_pure_function_of_seed_and_host(self):
        a = HostStream(FleetConfig(hosts=4, seed=11), host=2)
        b = HostStream(FleetConfig(hosts=4, seed=11), host=2)
        assert np.array_equal(host_rows(a, 20), host_rows(b, 20))

    def test_host_stream_independent_of_fleet_size(self):
        small = HostStream(FleetConfig(hosts=3, seed=9), host=1)
        large = HostStream(FleetConfig(hosts=300, seed=9), host=1)
        assert np.array_equal(host_rows(small, 10), host_rows(large, 10))

    def test_different_hosts_differ(self):
        config = FleetConfig(hosts=4, seed=11)
        rows0 = HostStream(config, 0).rows_for_tick(0)
        rows1 = HostStream(config, 1).rows_for_tick(0)
        assert not np.array_equal(rows0, rows1)

    def test_features_within_envelopes(self):
        stream = HostStream(FleetConfig(hosts=1, seed=5, inject_fraction=0.0), 0)
        rows = host_rows(stream, 50)
        vm, vmer, counters = rows[:, 0], rows[:, 1], rows[:, 2:6]
        assert ((0 <= vmer) & (vmer < len(REGISTRY))).all()
        assert (counters >= 0).all()
        assert ((0 <= vm) & (vm < stream.config.vms_per_host)).all()
        assert not rows[:, 6].any()

    def test_emitted_blocks_survive_refills(self):
        """A tick's block is a view the next refill never writes into."""
        stream = HostStream(FleetConfig(hosts=1, seed=3, rows_per_tick=90), 0)
        first = stream.rows_for_tick(0)
        kept = first.copy()
        for tick in range(1, 12):
            stream.rows_for_tick(tick)
        assert np.array_equal(first, kept)


class TestFleetSimulator:
    def test_fixed_seed_stream_is_bit_identical(self):
        config = FleetConfig(hosts=6, seed=3, inject_fraction=0.1)
        _, rows_a = emit_all(config, 2000)
        _, rows_b = emit_all(config, 2000)
        assert rows_a == rows_b

    def test_stream_keeps_the_per_row_draws(self):
        """Column buffers emit exactly the rows the per-row list buffer did,
        bursts and a mid-host row cap included."""
        config = FleetConfig(hosts=5, seed=13, inject_fraction=0.2,
                             burst_every=3, burst_rows=300)
        _, rows = emit_all(config, 4321)
        oracle = PerRowFleet(config)
        expected = []
        while oracle.emitted < 4321:
            expected += oracle.next_tick(4321)
        assert [(r.host, r.vm, r.tick, r.features, r.injected) for r in rows] \
            == [(r.host, r.vm, r.tick, r.features, r.injected) for r in expected]

    def test_tick_columns(self):
        sim = FleetSimulator(FleetConfig(hosts=3, seed=2))
        tick = sim.next_tick()
        n = len(tick)
        assert tick.tick == 0 and sim.tick == 1
        assert tick.features.shape == (n, 5) and tick.features.dtype == np.int64
        assert tick.host.dtype == tick.vm.dtype == np.int64
        assert tick.injected.dtype == bool and tick.injected.shape == (n,)
        assert list(tick.host) == sorted(tick.host) and set(tick.host) == {0, 1, 2}
        rows = list(tick)
        assert all(isinstance(row, FleetRow) for row in rows)
        assert [row.features for row in rows] == [tuple(f) for f in tick.features.tolist()]

    def test_max_rows_cap_is_exact(self):
        sim, rows = emit_all(FleetConfig(hosts=7, seed=1), 1234)
        assert len(rows) == 1234
        assert sim.emitted == 1234

    def test_injected_fraction_tracks_config(self):
        sim, rows = emit_all(FleetConfig(hosts=8, seed=2, inject_fraction=0.2), 10000)
        fraction = sum(r.injected for r in rows) / len(rows)
        assert fraction == pytest.approx(0.2, abs=0.02)
        assert sim.injected == sum(r.injected for r in rows)

    def test_zero_injection_fleet(self):
        _, rows = emit_all(FleetConfig(hosts=2, seed=4, inject_fraction=0.0), 500)
        assert not any(r.injected for r in rows)

    def test_injected_rows_perturb_counters(self):
        config = FleetConfig(hosts=4, seed=6, inject_fraction=0.5)
        _, rows = emit_all(config, 4000)
        clean = np.array([r.features[1] for r in rows if not r.injected])
        faulty = np.array([r.features[1] for r in rows if r.injected])
        # Injected rows are scaled out of the nominal envelope on average.
        assert faulty.std() > clean.std()

    def test_bursts_fire_on_schedule(self):
        config = FleetConfig(
            hosts=1, seed=8, rows_per_tick=2, burst_every=4, burst_rows=50
        )
        sim = FleetSimulator(config)
        sizes = [len(sim.next_tick()) for _ in range(8)]
        assert sizes[3] > 50 and sizes[7] > 50
        assert all(size < 10 for i, size in enumerate(sizes) if i not in (3, 7))

    def test_feature_matrix_shape_and_dtype(self):
        sim, rows = emit_all(FleetConfig(hosts=2, seed=1), 64)
        X = sim.feature_matrix(rows)
        assert X.shape == (64, 5) and X.dtype == np.int64

    def test_config_validation(self):
        with pytest.raises(CampaignConfigError):
            FleetConfig(hosts=0)
        with pytest.raises(CampaignConfigError):
            FleetConfig(inject_fraction=1.5)
        with pytest.raises(CampaignConfigError):
            FleetConfig(rows_per_tick=0)
