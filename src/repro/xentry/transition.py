"""VM transition detection: the classifier applied at every VM entry.

Wraps compiled tree rules (:class:`repro.ml.export.CompiledRules`) with the
bookkeeping the framework needs: per-classification comparison counts (the
traversal-cost term of the Fig. 7 overhead model) and detection statistics.
The detector is intentionally dumb at this layer — all intelligence lives in
the trained rules; evaluation is "a set of simple integer comparisons"
(Section III.B).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NotFittedError
from repro.ml.dataset import INCORRECT
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.export import CompiledRules, compile_tree

__all__ = ["VMTransitionDetector"]


@dataclass
class VMTransitionDetector:
    """Tree-rule classifier with traversal accounting."""

    rules: CompiledRules
    classifications: int = 0
    positives: int = 0
    total_comparisons: int = 0

    @classmethod
    def from_classifier(cls, classifier: DecisionTreeClassifier) -> "VMTransitionDetector":
        """Compile a fitted tree into a deployable detector."""
        if classifier.root is None:
            raise NotFittedError("train the classifier before deploying it")
        return cls(rules=compile_tree(classifier))

    def flags_incorrect(self, features: tuple[int, ...]) -> bool:
        """Classify one feature vector; True = incorrect control flow."""
        label, comparisons = self.rules.classify(features)
        self.classifications += 1
        self.total_comparisons += comparisons
        flagged = label == INCORRECT
        if flagged:
            self.positives += 1
        return flagged

    # -- cost accounting (feeds the overhead model) ---------------------------

    @property
    def mean_comparisons(self) -> float:
        """Average integer comparisons per VM entry."""
        if not self.classifications:
            return 0.0
        return self.total_comparisons / self.classifications

    @property
    def worst_case_comparisons(self) -> int:
        """Tree depth: the upper bound on per-entry comparisons."""
        return self.rules.max_depth

    def reset_stats(self) -> None:
        self.classifications = 0
        self.positives = 0
        self.total_comparisons = 0
