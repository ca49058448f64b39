"""Per-layer metrics of a traced run: aggregation and the printed table.

Times and counts are means per traced round (a round is one pass, or a
cold-store plus a warm-store pass for ``campaign-sweep``); ratios are taken
from the sums of their numerators and denominators over all traced passes.
Every metric is printed for every workload; a layer a workload never enters
reads 0.
"""

from __future__ import annotations

import statistics

from perfbench.spans import TraceError

#: (name, unit) of every per-layer metric, in table order.
PER_LAYER = [
    ("faults.golden_capture_s", "s"),
    ("faults.golden_followups_s", "s"),
    ("faults.ladder_capture_s", "s"),
    ("faults.twin_plan_s", "s"),
    ("faults.twin_classify_s", "s"),
    ("faults.peeled_trial_s", "s"),
    ("faults.trial_followups_s", "s"),
    ("faults.divergence_s", "s"),
    ("faults.group_loop_s", "s"),
    ("faults.trials", "count"),
    ("faults.dead_twins", "count"),
    ("faults.peeled_trials", "count"),
    ("faults.dead_share", "ratio"),
    ("machine.instructions", "count"),
    ("machine.blocks_compiled", "count"),
    ("machine.instructions_skipped", "count"),
    ("machine.proved_hangs", "count"),
    ("machine.translated_share", "ratio"),
    ("machine.instructions_per_s", "1/s"),
    ("hypervisor.executions", "count"),
    ("hypervisor.restores", "count"),
    ("hypervisor.restore_s", "s"),
    ("artifacts.offer_s", "s"),
    ("artifacts.acquire_s", "s"),
    ("artifacts.publish_s", "s"),
    ("artifacts.bytes_written", "bytes"),
    ("artifacts.bytes_loaded", "bytes"),
    ("artifacts.shm_hits", "count"),
    ("artifacts.hit_share", "ratio"),
    ("engine.worker_init_s", "s"),
    ("engine.shard_setup_s", "s"),
    ("engine.shard_busy_s", "s"),
    ("engine.journal_s", "s"),
    ("engine.coordinator_s", "s"),
    ("engine.worker_busy_share", "ratio"),
    ("engine.shard_skew", "ratio"),
    ("engine.retries", "count"),
    ("engine.quarantined_shards", "count"),
    ("xentry.training_s", "s"),
    ("xentry.detector_s", "s"),
    ("xentry.recovery_s", "s"),
    ("xentry.detector_calls", "count"),
    ("xentry.recoveries", "count"),
    ("xentry.recovered_share", "ratio"),
    ("scenarios.sample_s", "s"),
    ("service.emit_s", "s"),
    ("service.submit_s", "s"),
    ("service.score_s", "s"),
    ("service.loop_s", "s"),
    ("ml.classify_batch_s", "s"),
    ("ml.rows_classified", "count"),
    ("service.batches", "count"),
    ("service.rows_dropped", "count"),
    ("service.decision_p50_ms", "ms"),
    ("service.decision_p99_ms", "ms"),
    ("unattributed_s", "s"),
    ("trace.round_s", "s"),
    ("trace.overhead_share", "ratio"),
]

#: Metrics that are not additive over passes (handled one by one below).
_NOT_SUMMED = {
    "faults.dead_share", "machine.translated_share", "machine.instructions_per_s",
    "artifacts.hit_share", "engine.worker_busy_share", "engine.shard_skew",
    "xentry.training_s", "xentry.recovered_share", "service.decision_p50_ms",
    "service.decision_p99_ms", "trace.round_s", "trace.overhead_share",
}
#: Self times of layers; with unattributed_s and the workers' time they add
#: up to the process-seconds of a round (the share column's denominator).
_SELF_TIMES = [name for name, unit in PER_LAYER
               if unit == "s" and name not in _NOT_SUMMED
               and name != "engine.shard_busy_s"]


#: Simulated counts that repeat exactly between traced passes of one kind.
REPEATING = (
    "faults.trials", "faults.dead_twins", "faults.peeled_trials",
    "machine.instructions", "machine.instructions_skipped", "machine.proved_hangs",
    "hypervisor.executions", "hypervisor.restores", "xentry.detector_calls",
    "xentry.recoveries", "artifacts.bytes_written", "artifacts.bytes_loaded",
    "artifacts.shm_hits", "ml.rows_classified",
)


def check_repeats(rounds) -> None:
    """Raise TraceError when a count of REPEATING differs between traced
    passes of the same kind."""
    first: dict[str, dict] = {}
    for p in (p for r in rounds for p in r if p.traced):
        seen = first.setdefault(p.kind, p.layers)
        for name in REPEATING:
            if p.layers[name] != seen[name]:
                raise TraceError(
                    f"{name} differs between traced {p.kind} passes: "
                    f"{seen[name]} then {p.layers[name]}"
                )


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def _aggregate(passes, n_rounds: int) -> dict[str, float]:
    total: dict[str, float] = {}
    for p in passes:
        for key, value in p.layers.items():
            total[key] = total.get(key, 0) + value
    out = {key: value / n_rounds for key, value in total.items()}
    skews = [p.layers["engine.shard_skew"] for p in passes if p.layers["engine.shard_skew"]]
    out.update({
        "faults.dead_share": _share(total["faults.dead_twins"], total["twins"]),
        "machine.translated_share": _share(total["machine.translated"],
                                           total["machine.instructions"]),
        "machine.instructions_per_s": _share(total["machine.instructions"],
                                             total["execute_total_s"]),
        "artifacts.hit_share": _share(total["golden_hits"], total["golden_consulted"]),
        "engine.worker_busy_share": _share(total["engine.shard_busy_s"],
                                           total["engine.busy_capacity_s"]),
        "engine.shard_skew": statistics.fmean(skews) if skews else 0.0,
        "xentry.recovered_share": _share(total["recovered"], total["recovery_records"]),
        "process_s": (total["pass_s"] + total["worker_s"]) / n_rounds,
    })
    return out


def per_layer(rounds, tracer, record) -> tuple[str, dict]:
    """The traced run's per-layer table and its JSON metrics."""
    traced_rounds = [r for r in rounds if r[0].traced]
    plain_rounds = [r for r in rounds if not r[0].traced]
    traced = [p for r in traced_rounds for p in r]
    values = _aggregate(traced, len(traced_rounds))
    training = [s[2] - s[1] for s in tracer.spans if s[0] == "training"]
    latency = [p.extra for r in plain_rounds for p in r if "p50_ms" in p.extra]
    round_s = [sum(p.seconds for p in r) for r in traced_rounds]
    plain_s = [sum(p.seconds for p in r) for r in plain_rounds]
    values.update({
        "xentry.training_s": statistics.fmean(training) if training else 0.0,
        "service.decision_p50_ms": _median([e["p50_ms"] for e in latency]),
        "service.decision_p99_ms": _median([e["p99_ms"] for e in latency]),
        "trace.round_s": statistics.fmean(round_s),
        "trace.overhead_share": statistics.median(round_s) / statistics.median(plain_s) - 1,
    })
    for key in ("engine.retries", "engine.quarantined_shards", "service.batches",
                "service.rows_dropped"):
        values.setdefault(key, 0.0)
    kinds = sorted({p.kind for p in traced}, key=["live", "cold", "warm", "serve"].index)
    by_kind = {k: _aggregate([p for p in traced if p.kind == k],
                             sum(1 for p in traced if p.kind == k)) for k in kinds}
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in PER_LAYER}
    process_s = values["process_s"]
    head = f"{'per-layer metric':<30} {'per round':>14} {'unit':<6} {'share':>7}"
    if len(kinds) > 1:
        head += "".join(f" {k + ' pass':>14}" for k in kinds)
    lines = [
        f"traced rounds {len(traced_rounds)} (untraced {len(plain_rounds)}); "
        f"process-seconds per round {process_s:.3f} "
        f"(coordinator wall {values['pass_s']:.3f} + workers {values['worker_s']:.3f}); "
        "conservation checks passed on every traced pass",
        head,
    ]
    for name, unit in PER_LAYER:
        value = values.get(name, 0.0)
        share = f"{_share(value, process_s):>7.1%}" if name in _SELF_TIMES else " " * 7
        row = f"{name:<30} {value:>14.6g} {unit:<6} {share}"
        if len(kinds) > 1:
            row += "".join(f" {by_kind[k][name]:>14.6g}" if name in by_kind[k] else " " * 15
                           for k in kinds)
        lines.append(row)
    record["per_pass_layers"] = [p.layers for p in traced]
    return "\n".join(lines), metrics
