"""Cost models: the paper's weighting function ``W : C_Q → [0, ∞)``.

The paper treats ``W`` as a total function where classifiers that are
infeasible or "not considered" get weight ``∞`` and are omitted from the
input (Section 2.1).  We mirror that with an abstract :class:`CostModel`
whose :meth:`~CostModel.cost` may return ``math.inf``.

Concrete models:

* :class:`TableCost` — an explicit mapping, missing entries cost ``∞``
  (or a configurable default, e.g. for "every classifier exists" toy
  instances).
* :class:`UniformCost` — all classifiers cost the same (the setting of
  the prior work [13] reproduced by the BestBuy dataset).
* :class:`HashCost` — a *lazy* pseudo-random cost, deterministic in
  ``(seed, classifier)``.  The synthetic dataset (Section 6.1) draws
  costs uniformly from ``[1, 50]`` for a universe of classifiers far too
  large to materialise; hashing gives every classifier a stable draw
  without storing any of them.
* :class:`CallableCost` — wrap any user function.
* :class:`ZeroedCost` — decorator granting cost 0 to classifiers built
  solely from already-known properties (Section 2.1, "we assign a cost
  of zero for any classifier testing a property ... for which a
  classifier construction is not necessary").
* :class:`LengthCappedCost` — decorator implementing the *bounded
  classifiers* regime ``k' < k`` (Section 5.3) by pricing longer
  classifiers at ``∞``.
* :class:`OverlayCost` — decorator with per-classifier overrides, used by
  preprocessing to "select" (weight 0) and "remove" (weight ``∞``)
  classifiers without copying the underlying model.

Every model can digest its pricing for the component-solution cache
(:meth:`CostModel.content_token`).  The digest is *scoped*: it covers
only the classifiers whose properties lie inside a given property set,
because a property-disjoint component can only ever price those.
"""

from __future__ import annotations

import hashlib
import math
import struct
from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Set

from repro.core.properties import (
    Classifier,
    PropertySet,
    canonical_label,
    canonical_sum,
)
from repro.exceptions import InvalidInstanceError

INFINITY = math.inf


def validate_weight(weight: float, classifier: Classifier | None = None) -> float:
    """Validate a classifier weight: a non-negative real (``inf`` allowed)."""
    if isinstance(weight, bool) or not isinstance(weight, (int, float)):
        raise InvalidInstanceError(f"classifier weight must be numeric, got {weight!r}")
    value = float(weight)
    if math.isnan(value) or value < 0:
        label = canonical_label(classifier) if classifier else "<classifier>"
        raise InvalidInstanceError(f"weight of {label} must be in [0, inf), got {weight!r}")
    return value


def parse_classifier_key(key: object) -> Classifier:
    """Normalise a cost-table key to a classifier.

    Strings are split on whitespace and ``+`` (matching
    :func:`~repro.core.properties.canonical_label`), so ``"adidas"``,
    ``"adidas juventus"`` and ``"adidas+juventus"`` all work; any other
    iterable is taken as a collection of property names.
    """
    if isinstance(key, str):
        parts = key.replace("+", " ").split()
    elif isinstance(key, frozenset):
        parts = list(key)
    else:
        parts = list(key)  # tuples, lists, sets
    clf = frozenset(str(part) for part in parts)
    if not clf:
        raise InvalidInstanceError(f"cost table key {key!r} denotes an empty classifier")
    return clf


def _weight_bytes(value: float) -> bytes:
    """Exact IEEE-754 bits; no string rounding, ``inf`` included."""
    return struct.pack("<d", float(value))


def _token_digest(*parts: bytes) -> bytes:
    """Length-prefixed digest of token parts — unambiguous concatenation."""
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        digest.update(len(part).to_bytes(4, "little"))
        digest.update(part)
    return digest.digest()


class CostModel(ABC):
    """Abstract weighting function over classifiers."""

    @abstractmethod
    def cost(self, clf: Classifier) -> float:
        """Return ``W(clf)``; ``math.inf`` means the classifier is unavailable."""

    def content_token(self, scope: Sequence[str]) -> Optional[bytes]:
        """Canonical digest of this model's pricing inside ``scope``, or ``None``.

        ``scope`` is a component's sorted property tuple.  The
        component-solution cache (:mod:`repro.engine.cache`) keys
        entries by content: two models with equal tokens for the same
        scope must price every classifier whose properties all lie in
        ``scope`` identically, in every process, regardless of
        ``PYTHONHASHSEED``.  Classifiers reaching outside the scope may
        price differently — no candidate of the component is one of
        them, since every candidate is a subset of one of its queries.
        A model may digest more than the scope (the immutable models
        digest their whole content once), never less.  Models whose
        content cannot be enumerated (opaque callables) return ``None``;
        the fingerprint then falls back to pricing each candidate
        classifier individually.
        """
        return None

    def is_finite(self, clf: Classifier) -> bool:
        """Whether the classifier participates in the input (finite weight)."""
        return math.isfinite(self.cost(clf))

    def total(self, classifiers: Iterable[Classifier]) -> float:
        """Sum of costs — the paper's ``W(S)``.  ``inf`` if any member is.

        Summed by :func:`~repro.core.properties.canonical_sum`: float
        addition is order-sensitive, and callers pass sets whose
        iteration order depends on the hash seed.
        """
        return canonical_sum(self.cost, classifiers)


class TableCost(CostModel):
    """Explicit cost table; classifiers absent from the table cost ``default``.

    This is the paper's literal input representation: the weighting
    function is given as a list associating a cost with every classifier,
    with infeasible classifiers simply omitted.
    """

    def __init__(
        self,
        table: Mapping[object, float],
        default: float = INFINITY,
    ):
        self._table: Dict[Classifier, float] = {}
        for key, weight in table.items():
            clf = parse_classifier_key(key)
            self._table[clf] = validate_weight(weight, clf)
        self.default = validate_weight(default) if math.isfinite(default) else float(default)
        self._token: Optional[bytes] = None

    def cost(self, clf: Classifier) -> float:
        return self._table.get(clf, self.default)

    def content_token(self, scope: Sequence[str]) -> Optional[bytes]:
        # The table never mutates after construction (``copy()`` builds a
        # new model), so the whole-table digest is computed once and
        # serves every scope.  Entries are fed in canonical-label order —
        # insertion history must not leak in.
        if self._token is None:
            parts = [b"table", _weight_bytes(self.default)]
            for label, weight in sorted(
                (canonical_label(clf), weight) for clf, weight in self._table.items()
            ):
                parts.append(label.encode("utf-8"))
                parts.append(_weight_bytes(weight))
            self._token = _token_digest(*parts)
        return self._token

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, clf: Classifier) -> bool:
        return clf in self._table

    def items(self):
        """Iterate over explicitly priced ``(classifier, weight)`` pairs."""
        return self._table.items()

    def copy(self) -> "TableCost":
        return TableCost(dict(self._table), default=self.default)


class UniformCost(CostModel):
    """Every classifier costs ``value`` (optionally only up to a length cap)."""

    def __init__(self, value: float = 1.0, max_length: Optional[int] = None):
        self.value = validate_weight(value)
        if max_length is not None and max_length < 1:
            raise InvalidInstanceError("max_length must be >= 1")
        self.max_length = max_length
        self._token = _token_digest(
            b"uniform", _weight_bytes(self.value), str(self.max_length).encode()
        )

    def cost(self, clf: Classifier) -> float:
        if self.max_length is not None and len(clf) > self.max_length:
            return INFINITY
        return self.value

    def content_token(self, scope: Sequence[str]) -> Optional[bytes]:
        return self._token


class CallableCost(CostModel):
    """Adapt an arbitrary ``Classifier -> float`` function to a cost model.

    Opaque by construction: :meth:`content_token` stays ``None`` (the
    base default), so cache fingerprints price candidates individually.
    """

    def __init__(self, fn: Callable[[Classifier], float]):
        self._fn = fn

    def cost(self, clf: Classifier) -> float:
        value = self._fn(clf)
        if not math.isfinite(value):
            return INFINITY
        return validate_weight(value, clf)


class HashCost(CostModel):
    """Deterministic pseudo-random integer cost in ``[low, high]``.

    The draw depends only on ``(seed, classifier)`` so the exponentially
    large classifier universe of the synthetic dataset never has to be
    materialised; repeated queries for the same classifier always return
    the same cost, as required for the weighting function to be well
    defined.
    """

    def __init__(
        self,
        low: int = 1,
        high: int = 50,
        seed: int = 0,
        max_length: Optional[int] = None,
    ):
        if low < 0 or high < low:
            raise InvalidInstanceError(f"invalid cost range [{low}, {high}]")
        if max_length is not None and max_length < 1:
            raise InvalidInstanceError("max_length must be >= 1")
        self.low = int(low)
        self.high = int(high)
        self.seed = int(seed)
        self.max_length = max_length
        self._token = _token_digest(
            b"hash",
            str((self.low, self.high, self.seed, self.max_length)).encode(),
        )

    def cost(self, clf: Classifier) -> float:
        if self.max_length is not None and len(clf) > self.max_length:
            return INFINITY
        label = canonical_label(clf)
        digest = hashlib.blake2b(
            label.encode(),
            digest_size=8,
            salt=self.seed.to_bytes(8, "little", signed=False),
        ).digest()
        draw = int.from_bytes(digest, "little")
        span = self.high - self.low + 1
        return float(self.low + draw % span)

    def content_token(self, scope: Sequence[str]) -> Optional[bytes]:
        return self._token


class ZeroedCost(CostModel):
    """Grant cost 0 to classifiers composed entirely of known properties.

    Per Section 2.1, properties whose values are already recorded need no
    classifier; a classifier testing only such properties is free, but
    mixed classifiers (e.g. ``XY`` with ``x`` known and ``y`` unknown)
    keep their base cost and may still be worth building.
    """

    def __init__(self, base: CostModel, free_properties: Iterable[str]):
        self.base = base
        self.free_properties: PropertySet = frozenset(free_properties)

    def cost(self, clf: Classifier) -> float:
        if clf <= self.free_properties:
            return 0.0
        return self.base.cost(clf)

    def content_token(self, scope: Sequence[str]) -> Optional[bytes]:
        base = self.base.content_token(scope)
        if base is None:
            return None
        return _token_digest(
            b"zeroed", base, canonical_label(self.free_properties).encode()
        )


class LengthCappedCost(CostModel):
    """Bounded classifiers (Section 5.3): length ``> k'`` priced at ``∞``."""

    def __init__(self, base: CostModel, max_length: int):
        if max_length < 1:
            raise InvalidInstanceError("max_length must be >= 1")
        self.base = base
        self.max_length = int(max_length)

    def cost(self, clf: Classifier) -> float:
        if len(clf) > self.max_length:
            return INFINITY
        return self.base.cost(clf)

    def content_token(self, scope: Sequence[str]) -> Optional[bytes]:
        base = self.base.content_token(scope)
        if base is None:
            return None
        return _token_digest(b"capped", base, str(self.max_length).encode())


class OverlayCost(CostModel):
    """A cost model with mutable per-classifier overrides.

    Preprocessing models *selecting* a classifier by setting its weight to
    0 and *removing* one by setting its weight to ``∞`` (Section 3); the
    overlay keeps those edits separate from the caller's model.

    Each override is also filed under its lowest property, so a scoped
    :meth:`content_token` visits only the overrides a component can
    price — O(overrides inside the component), not O(all overrides).
    Mutate overrides only through :meth:`select`/:meth:`remove`; a
    direct write to ``overrides`` would bypass that index.
    """

    def __init__(self, base: CostModel, overrides: Optional[Dict[Classifier, float]] = None):
        self.base = base
        self.overrides: Dict[Classifier, float] = {}
        self._by_lowest: Dict[str, Set[Classifier]] = {}
        for clf, weight in (overrides or {}).items():
            self._override(clf, weight)

    def _override(self, clf: Classifier, weight: float) -> None:
        self.overrides[clf] = weight
        self._by_lowest.setdefault(min(clf), set()).add(clf)

    def cost(self, clf: Classifier) -> float:
        if clf in self.overrides:
            return self.overrides[clf]
        return self.base.cost(clf)

    def select(self, clf: Classifier) -> None:
        """Mark ``clf`` as already built (weight 0)."""
        self._override(clf, 0.0)

    def remove(self, clf: Classifier) -> None:
        """Mark ``clf`` as unavailable (weight ``∞``)."""
        self._override(clf, INFINITY)

    def is_removed(self, clf: Classifier) -> bool:
        return self.overrides.get(clf) == INFINITY

    def overrides_in(self, scope: Sequence[str]) -> Dict[Classifier, float]:
        """The overrides lying inside ``scope``: with the base model's
        token, all that :meth:`content_token` digests."""
        inside = frozenset(scope)
        found: Dict[Classifier, float] = {}
        for prop in scope:
            for clf in self._by_lowest.get(prop, ()):
                if clf <= inside:
                    found[clf] = self.overrides[clf]
        return found

    def content_token(self, scope: Sequence[str]) -> Optional[bytes]:
        # The base digest plus every override lying inside the scope, in
        # canonical order.  An override reaching outside the scope can
        # price no candidate of the component, so it stays out: edits
        # elsewhere in the load leave this component's token unchanged.
        base = self.base.content_token(scope)
        if base is None:
            return None
        entries = [
            (canonical_label(clf), weight)
            for clf, weight in self.overrides_in(scope).items()
        ]
        parts = [b"overlay", base]
        for label, weight in sorted(entries):
            parts.append(label.encode("utf-8"))
            parts.append(_weight_bytes(weight))
        return _token_digest(*parts)
