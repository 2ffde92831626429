"""Simulated binary classifiers and their offline application.

A :class:`TrainedClassifier` stands in for an ML model trained on
labelled examples: it answers, for an item, whether the conjunction of
its properties holds.  In this simulation the answer comes from the
item's latent truth, optionally corrupted by a (seeded) error rate so
robustness scenarios can be exercised.

:class:`ClassifierSuite` applies a set of trained classifiers to a
catalog — the offline completion step of Section 2.1: a positive
conjunction yields a positive annotation per individual property; a
negative yields no annotation (null), per the paper's footnote 2.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, List

from repro.catalog.items import Catalog, Item
from repro.core.costs import CostModel
from repro.core.properties import Classifier, PropertySet, canonical_label
from repro.exceptions import DatasetError


class TrainedClassifier:
    """A (simulated) binary classifier for a conjunction of properties."""

    __slots__ = ("properties", "training_cost", "error_rate", "seed")

    def __init__(
        self,
        properties: PropertySet,
        training_cost: float,
        error_rate: float = 0.0,
        seed: int = 0,
    ):
        if not properties:
            raise DatasetError("a classifier must test at least one property")
        if not 0.0 <= error_rate < 1.0:
            raise DatasetError(f"error_rate must be in [0, 1), got {error_rate}")
        self.properties = frozenset(properties)
        self.training_cost = float(training_cost)
        self.error_rate = float(error_rate)
        self.seed = int(seed)

    @property
    def label(self) -> str:
        return canonical_label(self.properties)

    def predict(self, item: Item) -> bool:
        """True iff the item satisfies the conjunction (modulo noise)."""
        truth = item.satisfies(self.properties)
        if self.error_rate > 0.0 and self._flips(item):
            return not truth
        return truth

    def _flips(self, item: Item) -> bool:
        digest = hashlib.blake2b(
            f"{self.label}|{item.item_id}".encode(),
            digest_size=8,
            salt=self.seed.to_bytes(8, "little", signed=False),
        ).digest()
        unit = int.from_bytes(digest, "little") / float(1 << 64)
        return unit < self.error_rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TrainedClassifier {self.label} cost={self.training_cost}>"


class ClassifierSuite:
    """A set of trained classifiers plus bookkeeping."""

    def __init__(self, classifiers: Iterable[TrainedClassifier] = ()):
        self._by_label: Dict[str, TrainedClassifier] = {}
        for clf in classifiers:
            self.add(clf)

    @classmethod
    def train(
        cls,
        classifiers: Iterable[Classifier],
        cost: CostModel,
        error_rate: float = 0.0,
        seed: int = 0,
    ) -> "ClassifierSuite":
        """"Train" the given classifiers, paying their model cost."""
        return cls(
            TrainedClassifier(props, cost.cost(props), error_rate, seed)
            for props in classifiers
        )

    def add(self, clf: TrainedClassifier) -> None:
        if clf.label in self._by_label:
            raise DatasetError(f"duplicate classifier {clf.label!r}")
        self._by_label[clf.label] = clf

    def __len__(self) -> int:
        return len(self._by_label)

    def __iter__(self) -> Iterator[TrainedClassifier]:
        return iter(self._by_label.values())

    @property
    def total_training_cost(self) -> float:
        return sum(clf.training_cost for clf in self)

    def property_sets(self) -> List[Classifier]:
        return [clf.properties for clf in self]

    def complete_catalog(self, catalog: Catalog) -> int:
        """Apply every classifier to every item (the offline completion
        step).  Positive predictions annotate each individual property
        (footnote 2); negatives add nothing.  Returns the number of new
        (item, property) annotations.

        With a non-zero error rate, false positives that would contradict
        the latent truth are *not* written (they would poison the store);
        the simulation counts them via :meth:`audit` instead.
        """
        added = 0
        for item in catalog:
            for clf in self:
                if clf.predict(item) and clf.properties <= item.latent:
                    before = len(item.observed)
                    item.annotate(clf.properties)
                    added += len(item.observed) - before
        return added

    def audit(self, catalog: Catalog) -> Dict[str, int]:
        """Prediction quality counts over the catalog (per item-classifier
        pair): true/false positives/negatives."""
        counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
        for item in catalog:
            for clf in self:
                predicted = clf.predict(item)
                actual = item.satisfies(clf.properties)
                if predicted and actual:
                    counts["tp"] += 1
                elif predicted and not actual:
                    counts["fp"] += 1
                elif not predicted and not actual:
                    counts["tn"] += 1
                else:
                    counts["fn"] += 1
        return counts
