"""Scale-tier workloads: 1M–10M-element instances generated lazily.

The paper's synthetic sweep stops at n = 100,000 queries; the ROADMAP
north star asks for two orders of magnitude more.  No eager generator
survives that — at 10M queries even the id lists of a materialised
:class:`~repro.core.wsc.WSCInstance` run to gigabytes — so the
scale tiers are *dual-access* set systems defined by arithmetic instead
of storage:

* ``frequency`` affine maps ``e ↦ (a_j·e + b_j) mod m`` (with ``a_j``
  invertible mod ``m``) send each element to its candidate sets, so
  ``sets_containing(e)`` is O(f) multiplications;
* inverting a map recovers a set's members as arithmetic progressions
  ``e ≡ a_j⁻¹(s − b_j) (mod m)``, so ``set_members(s)`` is O(f·n/m)
  *on demand* — only the solver's selected sets ever pay it.

Total resident state is O(m): the per-set cost table and the map
parameters.  A 10M-element tier fits in a few megabytes while its
materialised twin needs gigabytes — which is exactly the pairing the
``bench_setcover_sublinear`` memory-cap legs demonstrate (the
materialising path dies under a cap the sampled solver never notices).

Query-load-side scale tiers reuse the paper's own S recipe through
:class:`~repro.datasets.synthetic.SyntheticQueryStream`;
:class:`LazyQueryLoad` gives the stream the read surface the streaming
MC³ solver needs (iteration, ``weight``, length cap) without an O(n)
query tuple.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.costs import HashCost
from repro.core.properties import Classifier, Query, canonical_sum
from repro.core.wsc import WSCInstance
from repro.datasets.synthetic import (
    COST_HIGH,
    COST_LOW,
    MAX_QUERY_LENGTH,
    SyntheticQueryStream,
)
from repro.exceptions import DatasetError

#: Named tiers: workload name → universe size.  The 100k tier matches
#: the paper's largest synthetic sweep point (used for smoke runs); the
#: 1m/3m/10m tiers are the ROADMAP's production-scale targets.
SCALE_TIERS: Dict[str, int] = {
    "100k": 100_000,
    "300k": 300_000,
    "1m": 1_000_000,
    "3m": 3_000_000,
    "10m": 10_000_000,
}

#: Default elements-per-set scale: ``m = n // 250`` sets keeps per-set
#: membership around ``frequency * 250`` elements across tiers.
_ELEMENTS_PER_SET = 250


class ScaleTierWorkload:
    """A lazily-evaluated weighted set system of ``n`` elements.

    Satisfies the duck-typed set-system protocol of
    :func:`repro.setcover.sampled_greedy.sampled_greedy_wsc`
    (``universe_size`` / ``num_sets`` / ``set_cost`` / ``set_members`` /
    ``sets_containing``), and can materialise itself into a concrete
    :class:`WSCInstance` for the conventional pipeline — that path exists
    to *measure*, not to use: it is the O(n·f) time-and-memory wall the
    sampled solver removes.

    All parameters are derived from ``seed`` with string-seeded
    ``random.Random`` draws, so workloads are bit-identical across
    processes and ``PYTHONHASHSEED`` values.  Every element has exactly
    ``frequency`` candidate maps (≥ 1 distinct set), so instances are
    always coverable.
    """

    def __init__(
        self,
        n: int,
        seed: int = 0,
        num_sets: Optional[int] = None,
        frequency: int = 4,
        cost_low: int = COST_LOW,
        cost_high: int = COST_HIGH,
    ):
        if n < 1:
            raise DatasetError("n must be >= 1")
        if frequency < 1:
            raise DatasetError("frequency must be >= 1")
        m = num_sets if num_sets is not None else max(frequency + 1, n // _ELEMENTS_PER_SET)
        if m < 1:
            raise DatasetError("num_sets must be >= 1")
        if m > n:
            raise DatasetError("num_sets must not exceed n (every set must be non-empty)")
        self.universe_size = n
        self.num_sets = m
        self.frequency = frequency
        self.seed = seed
        self.name = f"scale(n={n},m={m},f={frequency},seed={seed})"
        rng = random.Random(f"scale-wsc-{seed}-{n}-{m}-{frequency}")
        maps: List[Tuple[int, int, int]] = []
        for _ in range(frequency):
            while True:
                a = rng.randrange(1, m) if m > 1 else 0
                if m == 1 or math.gcd(a, m) == 1:
                    break
            b = rng.randrange(m)
            inverse = pow(a, -1, m) if m > 1 else 0
            maps.append((a, b, inverse))
        self._maps = maps
        self._costs = [float(rng.randint(cost_low, cost_high)) for _ in range(m)]

    # -- set-system protocol -------------------------------------------

    def set_cost(self, set_id: int) -> float:
        return self._costs[set_id]

    def set_costs(self) -> List[float]:
        return self._costs

    def sets_containing(self, element_id: int) -> List[int]:
        m = self.num_sets
        return sorted({(a * element_id + b) % m for a, b, _ in self._maps})

    def set_members(self, set_id: int) -> List[int]:
        n = self.universe_size
        m = self.num_sets
        members = set()
        for _, b, inverse in self._maps:
            first = (inverse * (set_id - b)) % m
            members.update(range(first, n, m))
        return sorted(members)

    # -- the materialising twin ----------------------------------------

    def wsc_instance(self) -> WSCInstance:
        """Materialise the workload into a concrete :class:`WSCInstance`.

        This is the conventional pipeline's entry: O(n·f) member-id
        lists plus per-set masks.  It exists so benchmarks can price
        that wall honestly; production paths should stay on the lazy
        protocol.
        """
        instance = WSCInstance()
        for element_id in range(self.universe_size):
            instance.add_element(element_id)
        for set_id in range(self.num_sets):
            instance.add_set_ids(set_id, self.set_members(set_id), self._costs[set_id])
        return instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ScaleTierWorkload {self.name}>"


def scale_tier_workload(tier: str, seed: int = 0, **kwargs) -> ScaleTierWorkload:
    """A :class:`ScaleTierWorkload` for a named tier (see :data:`SCALE_TIERS`)."""
    try:
        n = SCALE_TIERS[tier]
    except KeyError:
        known = ", ".join(sorted(SCALE_TIERS, key=SCALE_TIERS.get))
        raise DatasetError(f"unknown scale tier {tier!r} (known: {known})") from None
    return ScaleTierWorkload(n, seed=seed, **kwargs)


class LazyQueryLoad:
    """A lazy MC³ query load: iteration + pricing, no O(n) query tuple.

    Exposes the read surface the streaming solver consumes —
    ``queries`` (a restartable iterable), ``__len__``/``n``, ``weight``
    with the instance-level classifier length cap, and ``name`` — while
    holding only the underlying stream object and cost model.  It is
    *not* an :class:`~repro.core.instance.MC3Instance`: anything needing
    random access or canonicalised tuples should materialise explicitly
    via :meth:`materialize`.
    """

    def __init__(
        self,
        stream,
        cost,
        max_classifier_length: Optional[int] = None,
        name: str = "lazy",
    ):
        self._stream = stream
        self._cost = cost
        self.max_classifier_length = max_classifier_length
        self.name = name

    @property
    def queries(self):
        return self._stream

    @property
    def n(self) -> int:
        return len(self._stream)

    def __len__(self) -> int:
        return len(self._stream)

    def __iter__(self) -> Iterator[Query]:
        return iter(self._stream)

    def weight(self, clf: Classifier) -> float:
        """``W(clf)``, honouring the load-level length bound (same
        contract as :meth:`MC3Instance.weight`)."""
        if (
            self.max_classifier_length is not None
            and len(clf) > self.max_classifier_length
        ):
            return math.inf
        return self._cost.cost(clf)

    def total_weight(self, classifiers: Iterable[Classifier]) -> float:
        """``W(S)``, summed in canonical order (same contract as
        :meth:`MC3Instance.total_weight`)."""
        return canonical_sum(self.weight, classifiers)

    def candidates(self, q: Query) -> Iterator[Classifier]:
        """Finite-weight classifiers usable for ``q`` (the paper's
        ``C_q``), in the same deterministic order as
        :meth:`MC3Instance.candidates`."""
        from repro.core.properties import iter_nonempty_subsets

        for clf in iter_nonempty_subsets(q, self.max_classifier_length):
            if math.isfinite(self.weight(clf)):
                yield clf

    def materialize(self):
        """The eager :class:`MC3Instance` twin (small loads only)."""
        from repro.core.instance import MC3Instance

        return MC3Instance(
            self._stream,
            self._cost,
            max_classifier_length=self.max_classifier_length,
            name=self.name,
        )


def scale_tier_queries(
    tier: str,
    seed: int = 0,
    max_length: int = MAX_QUERY_LENGTH,
    max_classifier_length: Optional[int] = None,
) -> LazyQueryLoad:
    """The S recipe at scale-tier size as a :class:`LazyQueryLoad`."""
    try:
        n = SCALE_TIERS[tier]
    except KeyError:
        known = ", ".join(sorted(SCALE_TIERS, key=SCALE_TIERS.get))
        raise DatasetError(f"unknown scale tier {tier!r} (known: {known})") from None
    stream = SyntheticQueryStream(n, seed=seed, max_length=max_length)
    cost = HashCost(COST_LOW, COST_HIGH, seed=seed)
    return LazyQueryLoad(
        stream,
        cost,
        max_classifier_length=max_classifier_length,
        name=f"S-scale({tier},seed={seed})",
    )
