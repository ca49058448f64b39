"""Vectorized batch inference: oracle equivalence, edge cases, tie-break.

``CompiledRules.predict`` (one :meth:`classify` walk per row) is the
differential oracle; ``predict_batch`` must be bit-identical to it on every
input — labels *and* traversal comparison counts — for single trees and for
the forest's matrix-reduction vote.  The exit-leaf kernel keeps one mask bit
per leaf, so the oracle runs on tables past one 64-bit word, on repeated and
extreme thresholds, on rows exactly at a threshold, and on tables whose
nodes are not stored in preorder.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DatasetError, NotFittedError
from repro.ml import (
    CORRECT,
    CompiledRules,
    Dataset,
    DecisionTreeClassifier,
    INCORRECT,
    RandomForestClassifier,
    compile_tree,
    evaluate,
)

_LEAF = -1


@st.composite
def labeled_dataset(draw):
    n = draw(st.integers(min_value=4, max_value=60))
    X = np.array(
        draw(
            st.lists(
                st.tuples(*([st.integers(0, 200)] * 5)), min_size=n, max_size=n
            )
        ),
        dtype=np.int64,
    )
    y = np.array(
        draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8
    )
    return Dataset(X, y)


def leaf_rules(prediction: int) -> CompiledRules:
    """A single-leaf rule table that always predicts ``prediction``."""
    return CompiledRules(
        feature=np.array([_LEAF], dtype=np.int16),
        threshold=np.array([0], dtype=np.int64),
        left=np.array([0], dtype=np.int32),
        right=np.array([0], dtype=np.int32),
        prediction=np.array([prediction], dtype=np.int8),
        feature_names=("f0", "f1", "f2", "f3", "f4"),
    )


#: Thresholds a generated table draws from: few, so splits repeat them, with
#: negative and extreme int64 values among them.
POOL = (-(2**62), -7, 0, 3, 10, 2**62)
#: Row values: each pool threshold, one either side, and the int64 limits.
PROBES = np.array(
    sorted({t + d for t in POOL for d in (-1, 0, 1)}
           | {np.iinfo(np.int64).min, np.iinfo(np.int64).max}),
    dtype=np.int64,
)


def random_table(seed: int, n_leaves: int, features=(0, 1, 2, 3, 4)) -> CompiledRules:
    """A random ``n_leaves``-leaf table splitting on ``features`` at ``POOL``
    thresholds, the root at index 0 and every other node at a shuffled one."""
    rng = np.random.default_rng(seed)
    children: list[tuple[int, int] | None] = [None]
    leaves = [0]
    while len(leaves) < n_leaves:
        node = leaves.pop(int(rng.integers(len(leaves))))
        children[node] = (len(children), len(children) + 1)
        leaves += [len(children), len(children) + 1]
        children += [None, None]
    n = len(children)
    where = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    feature = np.full(n, _LEAF, dtype=np.int16)
    threshold = np.zeros(n, dtype=np.int64)
    left = np.zeros(n, dtype=np.int32)
    right = np.zeros(n, dtype=np.int32)
    for node, pair in enumerate(children):
        if pair is not None:
            at = where[node]
            feature[at] = rng.choice(features)
            threshold[at] = rng.choice(POOL)
            left[at], right[at] = where[pair[0]], where[pair[1]]
    return CompiledRules(
        feature=feature, threshold=threshold, left=left, right=right,
        prediction=rng.integers(0, 2, n).astype(np.int8),
        feature_names=("f0", "f1", "f2", "f3", "f4"),
    )


def probe_rows(seed: int, n: int = 300) -> np.ndarray:
    return np.random.default_rng(seed).choice(PROBES, size=(n, 5))


def assert_matches_walks(rules: CompiledRules, X: np.ndarray) -> None:
    """``classify_batch`` gives each row's walk: its label and comparisons."""
    labels, comparisons = rules.classify_batch(X)
    walks = np.array([rules.classify(row) for row in X]).reshape(-1, 2)
    wrong = np.flatnonzero((labels != walks[:, 0]) | (comparisons != walks[:, 1]))
    assert not wrong.size, (
        f"{wrong.size} of {len(X)} rows differ, first {X[wrong[0]].tolist()}: "
        f"batch {(labels[wrong[0]], comparisons[wrong[0]])}, "
        f"walk {tuple(walks[wrong[0]])}"
    )


def n_leaves(rules: CompiledRules) -> int:
    return int((rules.feature == _LEAF).sum())


def random_dataset(seed: int, n: int) -> Dataset:
    """Noisy labels over small integer features: fitted trees grow a leaf
    per few rows."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-50, 50, (n, 5)).astype(np.int64)
    return Dataset(X, rng.integers(0, 2, n).astype(np.int8))


def at_thresholds(rules: CompiledRules, X: np.ndarray) -> np.ndarray:
    """Rows of ``X`` moved onto each split's threshold, and one past it."""
    rows = []
    for node in np.flatnonzero(rules.feature != _LEAF):
        for offset in (0, 1):
            row = X[node % len(X)].copy()
            row[rules.feature[node]] = rules.threshold[node] + offset
            rows.append(row)
    return np.array(rows, dtype=np.int64)


class TestExitLeafKernel:
    """The bitmask kernel against the per-row walk on the tables it could
    get wrong."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        leaves=st.integers(1, 300),
        features=st.sets(st.integers(0, 4), min_size=1),
    )
    def test_generated_tables_match_walks(self, seed, leaves, features):
        rules = random_table(seed, leaves, tuple(sorted(features)))
        assert_matches_walks(rules, probe_rows(seed))

    @pytest.mark.parametrize("leaves", [1, 2, 63, 64, 65, 128, 129, 300])
    def test_mask_word_boundaries(self, leaves):
        """Feature 3 is never split on; the tables span 1 to 5 words."""
        rules = random_table(leaves, leaves, features=(0, 1, 2, 4))
        assert n_leaves(rules) == leaves
        assert_matches_walks(rules, probe_rows(leaves))

    @pytest.mark.parametrize("rows, least_leaves", [(400, 65), (1000, 129), (3000, 500)])
    def test_fitted_trees_past_one_mask_word(self, rows, least_leaves):
        ds = random_dataset(rows, rows)
        rules = compile_tree(DecisionTreeClassifier(max_depth=32).fit(ds))
        assert n_leaves(rules) >= least_leaves
        X = np.vstack([ds.X, at_thresholds(rules, ds.X), probe_rows(rows)])
        assert_matches_walks(rules, X)

    def test_forest_members_match_walks(self):
        ds = random_dataset(11, 2000)
        forest = RandomForestClassifier(n_trees=5, max_depth=32, seed=3).fit(ds)
        X = np.vstack([ds.X, probe_rows(11)])
        for rules in forest._rules:
            assert n_leaves(rules) > 128
            assert_matches_walks(rules, np.vstack([X, at_thresholds(rules, ds.X)]))
        assert (forest.predict_batch(X) == forest.predict(X)).all()

    def test_duplicate_thresholds_and_rows_at_them(self):
        """Three splits at ``f0 <= 3``; a row at 3 goes left at each."""
        rules = CompiledRules(
            feature=np.array([0, 0, 0, _LEAF, _LEAF, _LEAF, _LEAF], dtype=np.int16),
            threshold=np.array([3, 3, 3, 0, 0, 0, 0], dtype=np.int64),
            left=np.array([1, 3, 5, 0, 0, 0, 0], dtype=np.int32),
            right=np.array([2, 4, 6, 0, 0, 0, 0], dtype=np.int32),
            prediction=np.array([0, 0, 0, 1, 0, 0, 1], dtype=np.int8),
            feature_names=("f0", "f1", "f2", "f3", "f4"),
        )
        X = np.array([[v, 0, 0, 0, 0] for v in (2, 3, 4, -(2**62), 2**62)])
        labels, comparisons = rules.classify_batch(X)
        assert labels.tolist() == [1, 1, 1, 1, 1]
        assert comparisons.tolist() == [2] * 5
        assert_matches_walks(rules, X)

    def test_nodes_out_of_preorder(self):
        """Root ``f0 <= 5``: left to ``f1 <= 2`` (leaves 0 and 1), right to
        a leaf 1; the deepest leaves are stored before their parent."""
        rules = CompiledRules(
            feature=np.array([0, _LEAF, _LEAF, 1, _LEAF], dtype=np.int16),
            threshold=np.array([5, 0, 0, 2, 0], dtype=np.int64),
            left=np.array([3, 0, 0, 1, 0], dtype=np.int32),
            right=np.array([4, 0, 0, 2, 0], dtype=np.int32),
            prediction=np.array([0, 0, 1, 0, 1], dtype=np.int8),
            feature_names=("f0", "f1", "f2", "f3", "f4"),
        )
        X = np.array([[5, 2, 0, 0, 0], [5, 3, 0, 0, 0], [6, 0, 0, 0, 0]])
        labels, comparisons = rules.classify_batch(X)
        assert labels.tolist() == [0, 1, 1]
        assert comparisons.tolist() == [2, 2, 1]
        assert rules.max_depth == 2

    def test_single_leaf_table(self):
        X = probe_rows(0, 10)
        labels, comparisons = leaf_rules(INCORRECT).classify_batch(X)
        assert labels.tolist() == [INCORRECT] * 10
        assert comparisons.tolist() == [0] * 10
        assert leaf_rules(CORRECT).max_depth == 0


class TestTreeBatchEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(ds=labeled_dataset())
    def test_batch_labels_match_per_row_oracle(self, ds):
        rules = compile_tree(DecisionTreeClassifier(max_depth=8).fit(ds))
        assert (rules.predict_batch(ds.X) == rules.predict(ds.X)).all()

    @settings(max_examples=40, deadline=None)
    @given(ds=labeled_dataset())
    def test_batch_comparisons_match_per_row_walks(self, ds):
        rules = compile_tree(DecisionTreeClassifier(max_depth=8).fit(ds))
        labels, comparisons = rules.classify_batch(ds.X)
        expected = [rules.classify(row) for row in ds.X]
        assert list(labels) == [label for label, _ in expected]
        assert list(comparisons) == [c for _, c in expected]

    @settings(max_examples=20, deadline=None)
    @given(ds=labeled_dataset())
    def test_forest_batch_matches_per_row_oracle(self, ds):
        forest = RandomForestClassifier(n_trees=5, max_depth=6, seed=3).fit(ds)
        assert (forest.predict_batch(ds.X) == forest.predict(ds.X)).all()

    def test_mean_traversal_depth_bounded_by_max_depth(self):
        X = np.arange(50, dtype=np.int64).reshape(10, 5)
        ds = Dataset(X, (X[:, 0] > 22).astype(np.int8))
        rules = compile_tree(DecisionTreeClassifier(max_depth=4).fit(ds))
        assert 0.0 < rules.mean_traversal_depth(ds.X) <= rules.max_depth


class TestEmptyInputs:
    def test_tree_batch_on_empty_matrix(self):
        rules = leaf_rules(CORRECT)
        empty = np.empty((0, 5), dtype=np.int64)
        labels, comparisons = rules.classify_batch(empty)
        assert labels.shape == comparisons.shape == (0,)
        assert len(rules.predict(empty)) == len(rules.predict_batch(empty)) == 0
        assert rules.mean_traversal_depth(empty) == 0.0

    def test_fitted_forest_on_empty_matrix(self):
        ds = Dataset(
            np.arange(40, dtype=np.int64).reshape(8, 5),
            np.array([0, 1] * 4, dtype=np.int8),
        )
        forest = RandomForestClassifier(n_trees=3, seed=1).fit(ds)
        empty = np.empty((0, 5), dtype=np.int64)
        assert len(forest.predict(empty)) == len(forest.predict_batch(empty)) == 0

    def test_unfitted_forest_raises_even_on_empty(self):
        forest = RandomForestClassifier(n_trees=3)
        empty = np.empty((0, 5), dtype=np.int64)
        with pytest.raises(NotFittedError):
            forest.predict(empty)
        with pytest.raises(NotFittedError):
            forest.predict_batch(empty)

    def test_evaluate_on_empty_arrays(self):
        cm = evaluate(np.empty(0, dtype=np.int8), np.empty(0, dtype=np.int8))
        assert cm.total == 0
        assert cm.accuracy == 0.0
        assert cm.false_positive_rate == 0.0
        assert cm.detection_rate == 0.0

    def test_evaluate_shape_mismatch(self):
        with pytest.raises(DatasetError, match="shape mismatch"):
            evaluate(np.zeros(3, dtype=np.int8), np.zeros(2, dtype=np.int8))

    def test_false_positive_rate_with_zero_correct_samples(self):
        ones = np.ones(4, dtype=np.int8)
        cm = evaluate(ones, ones)  # all-incorrect ground truth
        assert cm.false_positive_rate == 0.0
        assert cm.detection_rate == 1.0


class TestForestTieBreak:
    def _split_jury(self) -> RandomForestClassifier:
        """An even forest whose members disagree 1-1 on every input."""
        forest = RandomForestClassifier(n_trees=2)
        forest._rules = [leaf_rules(CORRECT), leaf_rules(INCORRECT)]
        return forest

    def test_tie_breaks_toward_correct_per_row(self):
        forest = self._split_jury()
        assert forest.predict_one((1, 2, 3, 4, 5)) == CORRECT
        assert not forest.flags_incorrect((1, 2, 3, 4, 5))

    def test_tie_breaks_toward_correct_in_batch(self):
        forest = self._split_jury()
        X = np.arange(20, dtype=np.int64).reshape(4, 5)
        assert (forest.predict(X) == CORRECT).all()
        assert (forest.predict_batch(X) == CORRECT).all()

    def test_strict_majority_still_flags(self):
        forest = RandomForestClassifier(n_trees=2)
        forest._rules = [leaf_rules(INCORRECT), leaf_rules(INCORRECT)]
        X = np.arange(10, dtype=np.int64).reshape(2, 5)
        assert (forest.predict_batch(X) == INCORRECT).all()
        assert forest.predict_one((0, 0, 0, 0, 0)) == INCORRECT
