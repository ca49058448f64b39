"""ML inference throughput: per-row tree walks vs vectorized batch traversal.

Measures rows/sec classifying a large feature matrix through the compiled
rule table (``CompiledRules``) and the random forest, each both ways: the
per-row ``predict`` oracle and the level-synchronous ``predict_batch``.
Bit-identity between the two paths is asserted on every run — the speedup
must never change a single label.  A machine-readable summary is written to
``BENCH_ml.json`` next to this file (override with ``REPRO_BENCH_OUTPUT``).

The acceptance gate for the vectorization work is ≥ 10× on the single tree
at 200k rows; CI runs this as a non-blocking perf smoke because absolute
throughput varies across machines.
"""

from __future__ import annotations

import time

import numpy as np

from repro.ml import (
    Dataset,
    DecisionTreeClassifier,
    RandomForestClassifier,
    compile_tree,
)

from benchmarks.conftest import SEED, scaled, write_bench

N_ROWS = scaled(200_000)
N_TRAIN = 2_000
N_TREES = 15
TARGET_TREE_SPEEDUP = 10.0



def _training_data(rng: np.random.Generator) -> Dataset:
    """A feature-shaped dataset: 5 integer counters, threshold-separable
    labels with noise, mimicking the VM-transition feature space."""
    X = np.column_stack([
        rng.integers(0, 40, N_TRAIN),
        rng.integers(50, 800, N_TRAIN),
        rng.integers(0, 120, N_TRAIN),
        rng.integers(0, 90, N_TRAIN),
        rng.integers(0, 60, N_TRAIN),
    ]).astype(np.int64)
    y = ((X[:, 1] > 400) ^ (rng.random(N_TRAIN) < 0.05)).astype(np.int8)
    return Dataset(X, y)


def _timed(fn, X):
    t0 = time.perf_counter()
    labels = fn(X)
    elapsed = time.perf_counter() - t0
    return labels, {
        "elapsed_seconds": elapsed,
        "rows_per_sec": len(X) / elapsed if elapsed > 0 else 0.0,
    }


def test_ml_inference_throughput():
    rng = np.random.default_rng(SEED)
    train = _training_data(rng)
    rules = compile_tree(DecisionTreeClassifier(max_depth=16).fit(train))
    forest = RandomForestClassifier(n_trees=N_TREES, max_depth=12, seed=SEED)
    forest.fit(train)

    X = np.column_stack([
        rng.integers(0, 40, N_ROWS),
        rng.integers(50, 800, N_ROWS),
        rng.integers(0, 120, N_ROWS),
        rng.integers(0, 90, N_ROWS),
        rng.integers(0, 60, N_ROWS),
    ]).astype(np.int64)

    models = {}
    for name, model in (("tree", rules), ("forest", forest)):
        row_labels, row_stats = _timed(model.predict, X)
        batch_labels, batch_stats = _timed(model.predict_batch, X)
        # Vectorization must never change a label.
        assert (batch_labels == row_labels).all()
        models[name] = {
            "per_row": row_stats,
            "batch": batch_stats,
            "speedup": (
                batch_stats["rows_per_sec"] / row_stats["rows_per_sec"]
                if row_stats["rows_per_sec"]
                else 0.0
            ),
        }
    models["tree"]["max_depth"] = rules.max_depth
    models["tree"]["mean_traversal_depth"] = rules.mean_traversal_depth(X)
    models["forest"]["n_trees"] = N_TREES

    summary = {
        "format": "xentry-bench-ml-v1",
        "seed": SEED,
        "n_rows": N_ROWS,
        "models": models,
        "target_tree_speedup": TARGET_TREE_SPEEDUP,
    }
    output = write_bench("ml", summary)

    print(f"\nml inference throughput — {N_ROWS:,} rows, seed {SEED}")
    print(f"{'model':<8} {'per-row r/s':>13} {'batch r/s':>13} {'speedup':>9}")
    for name, stats in models.items():
        print(
            f"{name:<8} {stats['per_row']['rows_per_sec']:13,.0f} "
            f"{stats['batch']['rows_per_sec']:13,.0f} "
            f"{stats['speedup']:8.1f}x"
        )
    print(f"summary written to {output}")

    assert models["tree"]["speedup"] >= TARGET_TREE_SPEEDUP, (
        f"batch traversal regressed: {models['tree']['speedup']:.1f}x "
        f"< {TARGET_TREE_SPEEDUP}x over the per-row oracle at {N_ROWS:,} rows"
    )
    # The forest vote reduction rides the same tables; it must at least not
    # fall behind the scalar path.
    assert models["forest"]["speedup"] > 1.0
