"""The item store: products with latent and observed properties.

This models the paper's motivating setting (Figure 1): a catalog whose
rows have *latent* properties ("this really is a white Adidas Juventus
shirt") only partially *observed* in structured columns — the rest is
hidden in titles, descriptions and images.  Search runs over observed
annotations only, so items with missing annotations silently drop out of
results until classifiers complete them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set

from repro.core.properties import PropertySet, property_set
from repro.exceptions import DatasetError


class Item:
    """A catalog item.

    ``latent`` is the ground truth set of properties the item satisfies
    (in production this is unknowable without inspection; in this
    simulation it drives classifier outputs).  ``observed`` is the
    seller-provided/derived subset the search engine can actually see.
    """

    __slots__ = ("item_id", "title", "latent", "observed")

    def __init__(
        self,
        item_id: str,
        title: str,
        latent: Iterable[str],
        observed: Iterable[str] = (),
    ):
        self.item_id = str(item_id)
        self.title = str(title)
        self.latent: PropertySet = property_set(latent)
        observed_set = property_set(observed)
        if not observed_set <= self.latent:
            extra = sorted(observed_set - self.latent)
            raise DatasetError(
                f"item {item_id!r}: observed properties {extra} not in latent truth"
            )
        self.observed: Set[str] = set(observed_set)

    def satisfies(self, props: PropertySet) -> bool:
        """Ground truth: does the item satisfy all the properties?"""
        return props <= self.latent

    def annotate(self, props: Iterable[str]) -> None:
        """Record properties as observed-true (classifier output,
        footnote 2: a positive conjunction yields a positive annotation
        for each individual condition)."""
        for prop in props:
            if prop not in self.latent:
                raise DatasetError(
                    f"item {self.item_id!r}: annotation {prop!r} contradicts latent truth"
                )
            self.observed.add(prop)

    def missing(self) -> PropertySet:
        """Latent properties not yet observed."""
        return frozenset(self.latent - self.observed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Item {self.item_id}: {self.title!r}, {len(self.observed)}/{len(self.latent)} observed>"


class Catalog:
    """An in-memory item store with a property → items index."""

    def __init__(self) -> None:
        self._items: Dict[str, Item] = {}

    def add(self, item: Item) -> None:
        if item.item_id in self._items:
            raise DatasetError(f"duplicate item id {item.item_id!r}")
        self._items[item.item_id] = item

    def add_all(self, items: Iterable[Item]) -> None:
        for item in items:
            self.add(item)

    def get(self, item_id: str) -> Item:
        try:
            return self._items[item_id]
        except KeyError:
            raise DatasetError(f"unknown item id {item_id!r}") from None

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self._items.values())

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._items

    def items_with_latent(self, props: PropertySet) -> List[Item]:
        """Ground-truth matches (the ideal search result)."""
        return [item for item in self if item.satisfies(props)]

    def observed_completeness(self) -> float:
        """Fraction of latent (item, property) pairs already observed."""
        total = sum(len(item.latent) for item in self)
        if total == 0:
            return 1.0
        observed = sum(len(item.observed) for item in self)
        return observed / total
