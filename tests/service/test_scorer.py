"""Micro-batch scorer: exact counts, backpressure policies, metric parity.

Streams are handcrafted (``make_row``, stacked into ticks by ``make_tick``)
against a one-split threshold rule table, so every expected count is exact
— the py-chaos-agent idiom of asserting labeled metric children directly
after driving the system.
"""

import numpy as np
import pytest

from repro.errors import CampaignConfigError
from repro.service.metrics import ServiceMetrics
from repro.service.scorer import MicroBatchScorer, OverflowPolicy

from tests.service.conftest import make_row, make_threshold_rules, make_tick


def make_scorer(**kwargs) -> MicroBatchScorer:
    return MicroBatchScorer(make_threshold_rules(), ServiceMetrics(), **kwargs)


def scored_rt(scorer: MicroBatchScorer) -> list[int]:
    """RT of every row the scorer's model saw, in scoring order."""
    seen = []
    predict = scorer.model.predict_batch

    def recording(X):
        seen.extend(np.asarray(X)[:, 1].tolist())
        return predict(X)

    scorer.model = type("Recording", (), {"predict_batch": staticmethod(recording)})()
    return seen


class TestHostQueue:
    """Each host's bounded queue, driven through ``submit``."""

    def test_fifo_order(self):
        scorer = make_scorer(batch_rows=256, queue_depth=4)
        seen = scored_rt(scorer)
        scorer.submit(make_tick([make_row(rt=rt) for rt in (1, 2, 3)]))
        assert scorer.queue_depths() == {0: 3}
        scorer.drain()
        assert seen == [1, 2, 3]
        assert scorer.queue_depths() == {0: 0}

    def test_overflow_evicts_oldest(self):
        scorer = make_scorer(batch_rows=256, queue_depth=2)
        seen = scored_rt(scorer)
        scorer.submit(make_tick([make_row(rt=1), make_row(rt=2)]))
        assert scorer.totals.rows_dropped == 0
        scorer.submit(make_tick([make_row(rt=3)]))
        assert scorer.totals.rows_dropped == 1
        scorer.drain()
        assert seen == [2, 3]

    def test_zero_depth_rejected(self):
        with pytest.raises(CampaignConfigError):
            make_scorer(queue_depth=0)


class TestExactCounts:
    def test_n_injected_rows_give_exact_outcome_counters(self):
        """10 hot injected + 3 hot clean + 2 cool injected + 85 cool clean."""
        scorer = make_scorer(batch_rows=16)
        rows = (
            [make_row(rt=5000, injected=True) for _ in range(10)]
            + [make_row(rt=5000, injected=False) for _ in range(3)]
            + [make_row(rt=50, injected=True) for _ in range(2)]
            + [make_row(rt=50, injected=False) for _ in range(85)]
        )
        scorer.submit(make_tick(rows))
        scorer.drain()
        detections = scorer.metrics.detections
        assert detections.labels(outcome="true_positive").value == 10
        assert detections.labels(outcome="false_positive").value == 3
        assert detections.labels(outcome="false_negative").value == 2
        assert detections.labels(outcome="true_negative").value == 85
        assert scorer.totals.rows_scored == 100
        assert scorer.totals.detections == 13

    def test_totals_mirror_metrics(self):
        scorer = make_scorer(batch_rows=8)
        scorer.submit(make_tick([
            make_row(host=i % 3, rt=5000 if i % 4 == 0 else 10, injected=i % 4 == 0)
            for i in range(40)
        ]))
        scorer.drain()
        t = scorer.totals
        assert t.outcome_counts() == {
            "true_positive": 10, "false_positive": 0,
            "true_negative": 30, "false_negative": 0,
        }
        for host in range(3):
            scored = scorer.metrics.rows_scored.labels(host=host).value
            emitted = scorer.metrics.rows_emitted.labels(host=host).value
            assert scored == emitted

    def test_gauges_return_to_zero_after_drain(self):
        scorer = make_scorer(batch_rows=64, queue_depth=16)
        scorer.submit(make_tick([make_row(host=i % 2) for i in range(30)]))
        assert scorer.metrics.queue_depth.labels(host=0).value == 15
        scorer.drain()
        assert scorer.metrics.queue_depth.labels(host=0).value == 0
        assert scorer.metrics.queue_depth.labels(host=1).value == 0
        assert scorer.metrics.pending_rows.value == 0
        assert scorer.pending == 0


class TestBackpressure:
    def test_drop_oldest_counts_every_drop(self):
        scorer = make_scorer(batch_rows=256, queue_depth=5)
        seen = scored_rt(scorer)
        # One burst, no pump in between.
        scorer.submit(make_tick([make_row(host=0, rt=100 + i) for i in range(12)]))
        assert scorer.totals.rows_dropped == 7
        assert scorer.metrics.rows_dropped.labels(host=0).value == 7
        scorer.drain()
        # The 5 newest rows survive drop-oldest.
        assert scorer.totals.rows_scored == 5
        assert seen == [107, 108, 109, 110, 111]
        assert scorer.totals.dropped_by_host == {0: 7}

    def test_drop_oldest_spans_submits(self):
        """Rows still queued from an earlier tick are the oldest."""
        scorer = make_scorer(batch_rows=256, queue_depth=4)
        seen = scored_rt(scorer)
        scorer.submit(make_tick([make_row(rt=rt) for rt in (1, 2, 3)]))
        scorer.submit(make_tick([make_row(rt=rt) for rt in (4, 5, 6)]))
        assert scorer.totals.dropped_by_host == {0: 2}
        scorer.drain()
        assert seen == [3, 4, 5, 6]

    def test_block_policy_never_drops(self):
        scorer = make_scorer(
            batch_rows=256, queue_depth=5, policy=OverflowPolicy.BLOCK
        )
        seen = scored_rt(scorer)
        scorer.submit(make_tick([make_row(host=0, rt=100 + i) for i in range(12)]))
        # Two full queues reached the buffer while the producer blocked.
        assert scorer.pending == 10
        assert scorer.queue_depths() == {0: 2}
        scorer.drain()
        assert scorer.totals.rows_dropped == 0
        assert scorer.totals.rows_scored == 12
        assert seen == [100 + i for i in range(12)]

    def test_block_flushes_in_host_order(self):
        """A full queue reaches the buffer when its host's next row arrives;
        the pump then accepts the remaining queues in sorted host order."""
        scorer = make_scorer(
            batch_rows=256, queue_depth=2, policy=OverflowPolicy.BLOCK
        )
        seen = scored_rt(scorer)
        rows = [make_row(host=2, rt=rt) for rt in (20, 21, 22)]
        rows += [make_row(host=1, rt=10)]
        rows += [make_row(host=0, rt=rt) for rt in (0, 1, 2)]
        scorer.submit(make_tick(rows))
        scorer.drain()
        assert seen == [20, 21, 0, 1, 2, 10, 22]

    def test_drops_are_per_host(self):
        scorer = make_scorer(batch_rows=256, queue_depth=3)
        scorer.submit(make_tick([make_row(host=1) for _ in range(10)]))
        scorer.submit(make_tick([make_row(host=2) for _ in range(2)]))
        scorer.drain()
        assert scorer.totals.dropped_by_host == {1: 7}
        assert scorer.metrics.rows_dropped.labels(host=1).value == 7
        assert scorer.metrics.rows_dropped.labels(host=2).value == 0


class TestBatching:
    def test_pump_scores_only_full_batches(self):
        scorer = make_scorer(batch_rows=32)
        scorer.submit(make_tick([make_row() for _ in range(40)]))
        scorer.pump()
        assert scorer.totals.rows_scored == 32
        assert scorer.pending == 8
        scorer.drain()
        assert scorer.totals.rows_scored == 40

    def test_batch_count_reflects_chunking(self):
        scorer = make_scorer(batch_rows=10)
        scorer.submit(make_tick([make_row() for _ in range(25)]))
        scorer.drain()
        assert scorer.totals.batches == 3  # 10 + 10 + 5
        assert scorer.metrics.batches.value == 3

    def test_batches_span_ticks(self):
        scorer = make_scorer(batch_rows=4)
        seen = scored_rt(scorer)
        for tick in range(3):
            scorer.submit(make_tick([make_row(rt=10 * tick + i) for i in range(3)]))
            scorer.pump()
        assert scorer.totals.batches == 2 and scorer.pending == 1
        scorer.drain()
        assert seen == [0, 1, 2, 10, 11, 12, 20, 21, 22]

    def test_invalid_batch_rows_rejected(self):
        with pytest.raises(CampaignConfigError):
            make_scorer(batch_rows=0)

    def test_latencies_recorded_for_stamped_rows(self):
        now = iter([1.0, 5.0, 7.5])  # the tick's stamp, then one per batch
        scorer = make_scorer(batch_rows=4, clock=lambda: next(now))
        scorer.submit(make_tick([make_row(host=i % 2) for i in range(8)]))
        scorer.drain()
        assert [lat.tolist() for lat in scorer.latencies] == [[4.0] * 4, [6.5] * 4]
        # The pump accepted host 0's four rows first: they fill batch one.
        latency = scorer.metrics.decision_latency
        assert latency.labels(host=0).count == latency.labels(host=1).count == 4
        assert latency.labels(host=0).total == 16.0
        assert latency.labels(host=1).total == 26.0
