"""ChaosPolicy: deterministic draws, filters, spec parsing, tripwire.

The chaos harness is only useful if it is *reproducible*: every decision
must be a pure function of ``(seed, kind, shard, attempt)``.  The CI chaos
job re-runs this file under several ``REPRO_CHAOS_SEED`` values; assertions
hold for any seed.
"""

import os

import pytest

from repro.engine.chaos import (
    ChaosPolicy,
    ChaosTripwire,
    ShardChaos,
    inject_journal_fault,
    parse_chaos_spec,
)
from repro.errors import CampaignConfigError, ChaosInjected

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


class TestDeterminism:
    def test_plan_is_pure_in_seed_shard_attempt(self):
        policy = ChaosPolicy(seed=CHAOS_SEED, crash_rate=0.5, hang_rate=0.5)
        for shard in range(6):
            for attempt in range(3):
                assert policy.plan(shard, attempt) == policy.plan(shard, attempt)
                assert policy.journal_fault(shard, attempt) == policy.journal_fault(
                    shard, attempt
                )

    def test_zero_rates_are_always_quiet(self):
        policy = ChaosPolicy(seed=CHAOS_SEED)
        for shard in range(8):
            assert policy.plan(shard, 0).quiet
            assert policy.journal_fault(shard, 0) is None

    def test_rate_one_always_fires(self):
        policy = ChaosPolicy(seed=CHAOS_SEED, crash_rate=1.0)
        for shard in range(8):
            for attempt in range(3):
                plan = policy.plan(shard, attempt)
                assert plan.crash_after is not None
                assert not plan.hard

    def test_fraction_of_draws_fires_at_intermediate_rate(self):
        policy = ChaosPolicy(seed=CHAOS_SEED, crash_rate=0.5)
        fired = sum(
            not policy.plan(shard, attempt).quiet
            for shard in range(40)
            for attempt in range(5)
        )
        assert 0 < fired < 200  # neither never nor always


class TestFilters:
    def test_shards_filter_restricts_injection(self):
        policy = ChaosPolicy(seed=CHAOS_SEED, crash_rate=1.0, shards=(2,))
        assert policy.plan(2, 0).crash_after is not None
        assert policy.plan(0, 0).quiet
        assert policy.plan(3, 0).quiet

    def test_only_attempt_makes_faults_transient(self):
        policy = ChaosPolicy(seed=CHAOS_SEED, crash_rate=1.0, only_attempt=0)
        assert policy.plan(1, 0).crash_after is not None
        assert policy.plan(1, 1).quiet
        assert policy.plan(1, 2).quiet

    def test_hard_crash_degrades_to_soft_when_disallowed(self):
        policy = ChaosPolicy(seed=CHAOS_SEED, hard_crash_rate=1.0)
        assert policy.plan(0, 0, allow_hard=True).hard
        degraded = policy.plan(0, 0, allow_hard=False)
        assert degraded.crash_after is not None and not degraded.hard

    def test_truncate_takes_precedence_over_error(self):
        policy = ChaosPolicy(
            seed=CHAOS_SEED, journal_error_rate=1.0, journal_truncate_rate=1.0
        )
        assert policy.journal_fault(0, 0) == "truncate"
        assert ChaosPolicy(
            seed=CHAOS_SEED, journal_error_rate=1.0
        ).journal_fault(0, 0) == "error"


class TestValidation:
    @pytest.mark.parametrize("field", [
        "crash_rate", "hard_crash_rate", "hang_rate",
        "journal_error_rate", "journal_truncate_rate",
    ])
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(CampaignConfigError, match="must be in"):
            ChaosPolicy(**{field: 1.5})

    def test_negative_hang_rejected(self):
        with pytest.raises(CampaignConfigError, match="hang_seconds"):
            ChaosPolicy(hang_seconds=-1.0)


class TestTripwire:
    def test_crash_fires_at_planned_record_count(self):
        trip = ChaosTripwire(ShardChaos(crash_after=2))
        trip.step()  # shard start: 0 records
        trip.step()  # record 1
        with pytest.raises(ChaosInjected, match="after 2 records"):
            trip.step()  # record 2

    def test_crash_before_first_record(self):
        trip = ChaosTripwire(ShardChaos(crash_after=0))
        with pytest.raises(ChaosInjected):
            trip.step()

    def test_quiet_plan_never_fires(self):
        trip = ChaosTripwire(ShardChaos())
        for _ in range(20):
            trip.step()


class TestJournalFaultInjection:
    def test_error_raises_without_writing(self, tmp_path):
        class NoWrite:
            def append_torn(self, *a, **k):
                raise AssertionError("error fault must not write")

        with pytest.raises(OSError, match="journal write failed"):
            inject_journal_fault(NoWrite(), 0, [(0, object())], "error")

    def test_truncate_writes_torn_tail_then_raises(self):
        calls = []

        class Recorder:
            def append_torn(self, shard, trials):
                calls.append((shard, len(trials)))

        trials = [(i, object()) for i in range(8)]
        with pytest.raises(OSError, match="torn"):
            inject_journal_fault(Recorder(), 3, trials, "truncate")
        assert calls == [(3, 4)]  # half the batch, begin marker included


class TestSpecParsing:
    def test_bare_float_is_crash_rate(self):
        assert parse_chaos_spec("0.25") == ChaosPolicy(crash_rate=0.25)

    def test_full_spec(self):
        policy = parse_chaos_spec(
            "crash=0.2,hard=0.05,hang=0.1,journal=0.04,truncate=0.03,"
            "seed=7,hang-seconds=12"
        )
        assert policy == ChaosPolicy(
            crash_rate=0.2, hard_crash_rate=0.05, hang_rate=0.1,
            journal_error_rate=0.04, journal_truncate_rate=0.03,
            seed=7, hang_seconds=12.0,
        )

    def test_unknown_key_rejected(self):
        for spec in ("explode=1.0", "shm=0.5"):
            with pytest.raises(CampaignConfigError, match="bad --chaos field"):
                parse_chaos_spec(spec)

    def test_bad_value_rejected(self):
        with pytest.raises(CampaignConfigError, match="bad --chaos value"):
            parse_chaos_spec("crash=lots")

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(CampaignConfigError, match="must be in"):
            parse_chaos_spec("2.5")
