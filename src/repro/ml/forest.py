"""Random forest: a bagged ensemble of the paper's random trees.

An extension beyond the paper (which deploys a single random tree for cost
reasons): majority voting over ``n_trees`` random trees, each trained on a
bootstrap resample.  Deployment cost grows linearly with the ensemble size —
the per-entry comparison count is the sum over member trees — which is why
the paper's single-tree choice is the right operating point for a hypervisor;
the forest quantifies what accuracy that choice leaves on the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CampaignConfigError, NotFittedError
from repro.ml.dataset import Dataset, INCORRECT
from repro.ml.export import CompiledRules, compile_tree
from repro.ml.random_tree import RandomTreeClassifier

__all__ = ["RandomForestClassifier"]


@dataclass
class RandomForestClassifier:
    """Majority-vote ensemble of :class:`RandomTreeClassifier`."""

    n_trees: int = 15
    max_depth: int = 32
    min_samples_leaf: int = 1
    seed: int = 0
    trees: list[RandomTreeClassifier] = field(default_factory=list, repr=False)
    _rules: list[CompiledRules] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise CampaignConfigError("forest needs at least one tree")

    def fit(self, dataset: Dataset) -> "RandomForestClassifier":
        """Fit ``n_trees`` trees on bootstrap resamples of ``dataset``."""
        rng = np.random.default_rng(self.seed)
        self.trees = []
        self._rules = []
        n = len(dataset)
        if n == 0:
            raise CampaignConfigError("cannot fit a forest on an empty dataset")
        for i in range(self.n_trees):
            sample = dataset.subset(rng.integers(0, n, size=n))
            tree = RandomTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(sample)
            self.trees.append(tree)
            self._rules.append(compile_tree(tree))
        return self

    def _require_fitted(self) -> None:
        if not self._rules:
            raise NotFittedError("RandomForestClassifier used before fit()")

    def predict_one(self, features) -> int:
        """Majority vote over the member trees.

        Ties — possible only with an even ``n_trees`` — break toward
        CORRECT: a strict majority (``2 * votes > n_trees``) is required to
        flag a transition, so a split jury never triggers recovery.  That is
        the conservative choice for a detector whose false positives cost a
        needless VM rollback (the paper's 0.7%-FP operating point), and it
        is pinned by test so the batch path cannot drift from it.
        """
        self._require_fitted()
        votes = sum(rules.classify(features)[0] for rules in self._rules)
        return INCORRECT if 2 * votes > len(self._rules) else 1 - INCORRECT

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Per-row majority vote — the differential oracle for :meth:`predict_batch`."""
        self._require_fitted()
        X = np.asarray(X)
        return np.fromiter(
            (self.predict_one(row) for row in X), dtype=np.int8, count=len(X)
        )

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Vectorized majority vote: member trees classify by their exit-leaf
        kernels (:meth:`CompiledRules.predict_batch`), then the vote is one matrix
        reduction — stack the ``(n_trees, n_rows)`` label matrix and sum over
        the tree axis (INCORRECT is 1, so the sum *is* the vote count).
        Bit-identical to :meth:`predict`, tie-break included."""
        self._require_fitted()
        X = np.asarray(X, dtype=np.int64)
        if len(X) == 0:
            return np.empty(0, dtype=np.int8)
        votes = np.vstack(
            [rules.predict_batch(X) for rules in self._rules]
        ).sum(axis=0, dtype=np.int32)
        return np.where(
            2 * votes > len(self._rules), INCORRECT, 1 - INCORRECT
        ).astype(np.int8)

    def flags_incorrect(self, features) -> bool:
        """Detector protocol: usable directly in campaigns."""
        return self.predict_one(features) == INCORRECT

    @property
    def deployment_comparisons(self) -> int:
        """Worst-case integer comparisons per VM entry (sum over trees) —
        the cost axis against the single tree the paper deploys."""
        self._require_fitted()
        return sum(rules.max_depth for rules in self._rules)
