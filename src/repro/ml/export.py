"""Rule compilation: trees flattened into integer-comparison tables.

Section IV of the paper: "The rules generated by Random Tree are essentially a
series of branches with conditions, which can be easily implemented".  This
module performs that lowering — a fitted tree becomes four flat arrays
(feature index, threshold, left child, right child) that can be walked with
nothing but integer compares, exactly what would be emitted into hypervisor C
code.  :meth:`CompiledRules.classify` additionally reports the number of
comparisons traversed, which feeds the per-activation cost term of the
performance-overhead model (Fig. 7).

:meth:`CompiledRules.classify_batch` scores a whole matrix without walking
it: each table is lowered once more, lazily, into exit-leaf bitmasks
(QuickScorer), so a batch costs one search, one gather and one AND per split
feature, whatever the tree's depth.  The per-row walk stays as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import NotFittedError
from repro.ml.dataset import INCORRECT
from repro.ml.decision_tree import DecisionTreeClassifier, TreeNode

__all__ = ["CompiledRules", "compile_tree"]

_LEAF = -1


@dataclass(frozen=True)
class _ExitTables:
    """One rule table's exit-leaf tables, leaves numbered left to right.

    ``splits`` holds, for each feature some node splits on, its thresholds
    sorted ascending and a ``(k + 1, words)`` uint64 matrix of prefix-AND
    masks: row ``j`` has a bit per leaf, cleared for every leaf in the left
    subtree of one of the ``j`` lowest-threshold splits, so a value above
    exactly ``j`` thresholds takes row ``j``.
    """

    splits: tuple[tuple[int, np.ndarray, np.ndarray], ...]
    prediction: np.ndarray  # int8, per leaf
    depth: np.ndarray       # int32 comparisons from the root, per leaf


def _build_exit_tables(rules: "CompiledRules") -> _ExitTables:
    """Walk ``rules`` from the root (in any storage order) into its tables."""
    leaves: list[int] = []
    depths: list[int] = []
    splits: list[list[int]] = []  # [feature, threshold, first leaf, end leaf]
    stack = [(0, 0, -1)]  # node, depth, the split it is the right child of
    while stack:
        node, depth, parent = stack.pop()
        if parent >= 0:  # the parent's left subtree is done
            splits[parent][3] = len(leaves)
        if rules.feature[node] == _LEAF:
            leaves.append(node)
            depths.append(depth)
            continue
        splits.append([int(rules.feature[node]), int(rules.threshold[node]),
                       len(leaves), 0])
        stack.append((int(rules.right[node]), depth + 1, len(splits) - 1))
        stack.append((int(rules.left[node]), depth + 1, -1))
    words = (len(leaves) + 63) // 64
    tables = []
    for feature in sorted({split[0] for split in splits}):
        ordered = sorted((s for s in splits if s[0] == feature), key=lambda s: s[1])
        prefix = [(1 << 64 * words) - 1]
        for _, _, first, end in ordered:
            prefix.append(prefix[-1] & ~((1 << end) - (1 << first)))
        packed = b"".join(mask.to_bytes(8 * words, "little") for mask in prefix)
        tables.append((
            feature,
            np.array([s[1] for s in ordered], dtype=np.int64),
            np.frombuffer(packed, dtype="<u8").astype(np.uint64).reshape(-1, words),
        ))
    return _ExitTables(
        splits=tuple(tables),
        prediction=rules.prediction[leaves],
        depth=np.array(depths, dtype=np.int32),
    )


@dataclass(frozen=True)
class CompiledRules:
    """A tree lowered to flat arrays for branch-table evaluation.

    ``feature[i] == -1`` marks node *i* as a leaf whose prediction is
    ``prediction[i]``; otherwise evaluation compares the sample's
    ``feature[i]`` value against ``threshold[i]`` and steps to ``left[i]`` or
    ``right[i]``.
    """

    feature: np.ndarray     # int16, _LEAF for leaves
    threshold: np.ndarray   # int64
    left: np.ndarray        # int32 node index
    right: np.ndarray       # int32 node index
    prediction: np.ndarray  # int8
    feature_names: tuple[str, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def max_depth(self) -> int:
        """Longest root-to-leaf comparison chain (worst-case traversal cost)."""
        return int(self._exit_tables.depth.max())

    @cached_property
    def _exit_tables(self) -> _ExitTables:
        """Built on first use, once per table (see :meth:`classify_batch`)."""
        return _build_exit_tables(self)

    def classify(self, features: tuple[int, ...] | np.ndarray) -> tuple[int, int]:
        """Classify one vector; returns ``(label, comparisons_traversed)``."""
        node = 0
        comparisons = 0
        while self.feature[node] != _LEAF:
            comparisons += 1
            if features[self.feature[node]] <= self.threshold[node]:
                node = int(self.left[node])
            else:
                node = int(self.right[node])
        return int(self.prediction[node]), comparisons

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Per-row classification (labels only).

        The scalar reference path: one :meth:`classify` walk per row.  Kept
        as the differential oracle for :meth:`predict_batch`, which must be
        bit-identical on every input.
        """
        X = np.asarray(X)
        return np.fromiter(
            (self.classify(row)[0] for row in X), dtype=np.int8, count=len(X)
        )

    def classify_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Classify a matrix by exit-leaf bitmasks; ``(labels, comparisons)``.

        QuickScorer (Lucchese et al., SIGIR 2015): every split a row fails
        (``x > t``) rules out the leaves of its left subtree, and the exit
        leaf is the leftmost leaf no failed split rules out.  A row's failed
        splits on one feature are a prefix of that feature's splits sorted by
        threshold, so one ``searchsorted`` per split feature picks a
        precomputed prefix-AND mask (:class:`_ExitTables`); the row's masks
        are ANDed and the lowest surviving bit names its exit leaf.  The
        Python-level work is ``O(split features)`` per batch, whatever the
        depth.  Bit-identical to :meth:`classify` row by row: same labels,
        and the exit leaf's depth is the comparison count its walk reports.
        """
        X = np.asarray(X, dtype=np.int64)
        tables = self._exit_tables
        n = len(X)
        if n == 0:
            return np.empty(0, dtype=np.int8), np.zeros(0, dtype=np.int32)
        alive = None
        for feature, thresholds, prefix in tables.splits:
            masks = prefix.take(thresholds.searchsorted(X[:, feature]), axis=0)
            if alive is None:
                alive = masks
            else:
                alive &= masks
        if alive is None:  # a single leaf
            alive = np.ones((n, 1), dtype=np.uint64)
        word = (alive != 0).argmax(axis=1)
        bits = alive[np.arange(n), word]
        lowest = bits & (~bits + np.uint64(1))
        leaf = word * 64 + np.bitwise_count(lowest - np.uint64(1))
        return tables.prediction[leaf], tables.depth[leaf]

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Vectorized classification (labels only); see :meth:`classify_batch`."""
        return self.classify_batch(X)[0]

    def mean_traversal_depth(self, X: np.ndarray) -> float:
        """Average comparisons per classification over a sample population."""
        X = np.asarray(X)
        if len(X) == 0:
            return 0.0
        return float(self.classify_batch(X)[1].mean())

    def flags_incorrect(self, features: tuple[int, ...] | np.ndarray) -> bool:
        """Convenience predicate used by the VM transition detector."""
        return self.classify(features)[0] == INCORRECT

    def flags_incorrect_batch(self, X: np.ndarray) -> np.ndarray:
        """Vectorized detector predicate: one bool per row of ``X``."""
        return self.predict_batch(X) == INCORRECT


def compile_tree(tree: DecisionTreeClassifier) -> CompiledRules:
    """Lower a fitted tree into a :class:`CompiledRules` table."""
    root = tree.root
    if root is None:
        raise NotFittedError("cannot compile an unfitted tree")

    features: list[int] = []
    thresholds: list[int] = []
    lefts: list[int] = []
    rights: list[int] = []
    predictions: list[int] = []

    def emit(node: TreeNode) -> int:
        index = len(features)
        features.append(_LEAF if node.is_leaf else node.feature)
        thresholds.append(node.threshold)
        lefts.append(0)
        rights.append(0)
        predictions.append(node.prediction)
        if not node.is_leaf:
            lefts[index] = emit(node.left)   # type: ignore[arg-type]
            rights[index] = emit(node.right)  # type: ignore[arg-type]
        return index

    emit(root)
    return CompiledRules(
        feature=np.array(features, dtype=np.int16),
        threshold=np.array(thresholds, dtype=np.int64),
        left=np.array(lefts, dtype=np.int32),
        right=np.array(rights, dtype=np.int32),
        prediction=np.array(predictions, dtype=np.int8),
        feature_names=tree.feature_names,
    )
