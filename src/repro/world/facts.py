"""The latent world: truth sets, wrong-value pools, Freebase snapshot.

:class:`World` is the ground truth fusion tries to recover.  It owns the
schema, the entity registry, the location containment hierarchy, and the
truth set of every data item.  Two derived artifacts matter downstream:

- **wrong-value pools** — per data item, a small Zipf-weighted pool of
  plausible wrong values.  Web sources draw erroneous claims from this
  shared pool, so the *same* wrong value recurs on independent pages
  (exactly the "popular false values" POPACCU models);
- **the Freebase snapshot** — a deliberately imperfect subset of the truth
  (missing values, generalised locations, a few outright errors) used to
  build the LCWA gold standard, reproducing the gold standard's documented
  failure modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kb.entities import EntityRegistry
from repro.kb.hierarchy import ValueHierarchy
from repro.kb.schema import Schema, ValueKind
from repro.kb.store import KnowledgeBase
from repro.kb.triples import DataItem, Triple
from repro.kb.values import (
    DateValue,
    EntityRef,
    NumberValue,
    StringValue,
    Value,
)
from repro.rng import split_seed, zipf_weights
from repro.world.catalog import TypeSpec
from repro.world.config import WorldConfig

__all__ = ["World", "SourceAssertion", "build_freebase_snapshot"]


@dataclass(frozen=True, slots=True)
class SourceAssertion:
    """What one web page claims about one data item.

    ``true_in_world`` is True when the claimed triple is exactly true or a
    hierarchical generalisation of a truth; ``exact`` distinguishes the two.
    ``copied_from`` records the URL this assertion was copied from, if any.
    These fields are ground truth for *analysis*; extraction and fusion
    never see them.
    """

    triple: Triple
    true_in_world: bool
    exact: bool
    copied_from: str | None = None

    @property
    def source_error(self) -> bool:
        return not self.true_in_world


@dataclass
class World:
    """Ground-truth world produced by :func:`repro.world.worldgen.generate_world`."""

    config: WorldConfig
    master_seed: int
    schema: Schema
    specs: tuple[TypeSpec, ...]
    entities: EntityRegistry
    hierarchy: ValueHierarchy
    truths: dict[DataItem, tuple[Value, ...]]
    popularity: dict[str, float]
    _wrong_pools: dict[DataItem, tuple[tuple[Value, ...], np.ndarray]] = field(
        default_factory=dict, repr=False
    )

    # Lazy ``(strings, positions)`` index over the string truths, built by
    # :meth:`_string_truths`.  A plain class attribute, not a field: the
    # artifact pickler ships fields only, so ``world.pkl`` never holds it.
    _string_index = None

    # ------------------------------------------------------------------
    # Truth queries
    # ------------------------------------------------------------------
    def truth_values(self, item: DataItem) -> tuple[Value, ...]:
        return self.truths.get(item, ())

    def truth_count(self, item: DataItem) -> int:
        return len(self.truths.get(item, ()))

    def is_true_exact(self, triple: Triple) -> bool:
        return triple.obj in self.truths.get(triple.data_item, ())

    def is_generalization(self, triple: Triple) -> bool:
        """True if ``triple`` asserts a strict ancestor of an exact truth.

        Only meaningful for hierarchical entity-valued predicates:
        (Steve Jobs, birth place, USA) generalises the truth "San
        Francisco" and is still a true statement about the world.
        """
        predicate = self.schema.predicates.get(triple.predicate)
        if predicate is None or not predicate.hierarchical:
            return False
        if not isinstance(triple.obj, EntityRef):
            return False
        for truth in self.truths.get(triple.data_item, ()):
            if isinstance(truth, EntityRef) and self.hierarchy.is_ancestor(
                triple.obj.entity_id, truth.entity_id
            ):
                return True
        return False

    def is_true(self, triple: Triple) -> bool:
        """Exactly true, or a true generalisation."""
        return self.is_true_exact(triple) or self.is_generalization(triple)

    def data_items(self) -> list[DataItem]:
        return list(self.truths)

    def true_triples(self):
        """Iterate every exactly-true triple in the world."""
        for item, values in self.truths.items():
            for value in values:
                yield Triple(item.subject, item.predicate, value)

    # ------------------------------------------------------------------
    # Wrong-value pools
    # ------------------------------------------------------------------
    def wrong_pool(self, item: DataItem) -> tuple[tuple[Value, ...], np.ndarray]:
        """The shared pool of plausible wrong values for ``item``.

        Returns ``(values, weights)`` where weights are Zipf-normalised;
        deterministic per item (seeded by the item's canonical form), and
        cached.  Sources that err on this item draw from this pool, which is
        what makes some wrong values *popular*.
        """
        cached = self._wrong_pools.get(item)
        if cached is not None:
            return cached
        rng = np.random.default_rng(
            split_seed(self.master_seed, "wrongpool", item.canonical())
        )
        predicate = self.schema.predicate(item.predicate)
        truths = set(self.truths.get(item, ()))
        pool: list[Value] = []
        seen: set[Value] = set(truths)
        attempts = 0
        while len(pool) < self.config.wrong_pool_size and attempts < 200:
            attempts += 1
            candidate = self._plausible_wrong_value(predicate, item, rng)
            if candidate is None or candidate in seen:
                continue
            seen.add(candidate)
            pool.append(candidate)
        values = tuple(pool)
        weights = zipf_weights(len(values)) if values else np.array([])
        self._wrong_pools[item] = (values, weights)
        return values, weights

    def _plausible_wrong_value(
        self, predicate, item: DataItem, rng: np.random.Generator
    ) -> Value | None:
        truths = self.truths.get(item, ())
        if predicate.value_kind is ValueKind.ENTITY:
            candidates = self.entities.of_type(predicate.object_type_id)
            if not candidates:
                return None
            pick = candidates[int(rng.integers(len(candidates)))]
            return EntityRef(pick.entity_id)
        if predicate.value_kind is ValueKind.NUMBER:
            base = None
            for truth in truths:
                if isinstance(truth, NumberValue):
                    base = truth.value
                    break
            if base is None:
                base = float(rng.integers(1, 1000))
            style = rng.random()
            if style < 0.4:
                # Off-by-small: the paper's 8849 vs 8850.
                return NumberValue(base + float(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1))
            if style < 0.7:
                return NumberValue(max(0.0, base * float(rng.choice([0.1, 10.0, 2.0]))))
            return NumberValue(float(np.round(base * (0.5 + rng.random()))))
        if predicate.value_kind is ValueKind.DATE:
            base_iso = None
            for truth in truths:
                if isinstance(truth, DateValue):
                    base_iso = truth.iso
                    break
            if base_iso is None:
                year, month, day = 1950, 1, 1
            else:
                year, month, day = (int(x) for x in base_iso.split("-"))
            style = rng.random()
            if style < 0.4:
                year += int(rng.integers(1, 5)) * (1 if rng.random() < 0.5 else -1)
            elif style < 0.7 and month <= 12 and day <= 12:
                month, day = day, month  # the classic month/day swap
                if month == day:
                    year += 1
            else:
                day = int(rng.integers(1, 29))
                month = int(rng.integers(1, 13))
            year = min(max(year, 1850), 2013)
            return DateValue(f"{year:04d}-{month:02d}-{day:02d}")
        # STRING: any other word from the same literal vocabulary would be
        # ideal; lacking the vocab here, reuse a string truth of any item
        # and any predicate whose text differs, or perturb by suffix when
        # every string truth has this text.
        for truth in truths:
            if isinstance(truth, StringValue):
                return self._string_peer(truth.text, rng)
        return StringValue(f"unknown-{int(rng.integers(1_000_000))}")

    def _string_truths(self) -> tuple[list[StringValue], dict[str, list[int]]]:
        """Every string truth in ``truths`` order, and each text's positions.

        Built on first use and kept: ``truths`` never changes after
        :func:`~repro.world.worldgen.generate_world`, the same assumption
        the wrong-value pools rest on.
        """
        if self._string_index is None:
            strings = [
                v for vs in self.truths.values() for v in vs if isinstance(v, StringValue)
            ]
            positions: dict[str, list[int]] = {}
            for position, value in enumerate(strings):
                positions.setdefault(value.text, []).append(position)
            self._string_index = (strings, positions)
        return self._string_index

    def _string_peer(self, text: str, rng: np.random.Generator) -> StringValue:
        """A uniformly drawn string truth whose text is not ``text``.

        Draws the same index into the same sequence as filtering every
        string truth by text and indexing the survivors: the k-th survivor
        sits at ``k + j``, where ``j`` counts the excluded positions before
        it in the sorted position list.
        """
        strings, positions = self._string_truths()
        excluded = positions.get(text, ())
        n_peers = len(strings) - len(excluded)
        if not n_peers:
            return StringValue(text + "s")
        k = int(rng.integers(n_peers))
        j = 0
        while j < len(excluded) and excluded[j] <= k + j:
            j += 1
        return strings[k + j]

    def draw_wrong_value(
        self, item: DataItem, rng: np.random.Generator, popular: bool
    ) -> Value | None:
        """Draw a wrong value for ``item``.

        ``popular=True`` draws from the shared Zipf pool (recurring wrong
        values); otherwise draws uniformly from the pool's tail, standing in
        for one-off source mistakes.
        """
        values, weights = self.wrong_pool(item)
        if not values:
            return None
        if popular:
            index = int(rng.choice(len(values), p=weights))
        else:
            index = int(rng.integers(len(values)))
        return values[index]


def build_freebase_snapshot(
    world: World, seed_name: str = "freebase"
) -> KnowledgeBase:
    """Build the imperfect Freebase-like reference KB from ``world``.

    Controlled by the world's :class:`~repro.world.config.WorldConfig`:
    item coverage, per-value recall for non-functional predicates,
    generalisation of hierarchical values, and a small outright error rate.
    Deterministic given the world's master seed.
    """
    config = world.config
    rng = np.random.default_rng(split_seed(world.master_seed, seed_name))
    snapshot = KnowledgeBase(name="freebase")
    for item in sorted(world.truths):
        values = world.truths[item]
        if not values or rng.random() >= config.freebase_item_coverage:
            continue
        predicate = world.schema.predicate(item.predicate)
        if rng.random() < config.freebase_error_rate:
            wrong = world.draw_wrong_value(item, rng, popular=False)
            if wrong is not None:
                snapshot.add(Triple(item.subject, item.predicate, wrong))
                continue
        stored: list[Value] = []
        if predicate.functional:
            stored.append(values[0])
        else:
            for value in values:
                if rng.random() < config.freebase_value_recall:
                    stored.append(value)
            if not stored:
                stored.append(values[0])
        generalize = (
            predicate.hierarchical
            and rng.random() < config.freebase_generalization_rate
        )
        for value in stored:
            if (
                generalize
                and isinstance(value, EntityRef)
                and world.hierarchy.ancestors(value.entity_id)
            ):
                ancestors = world.hierarchy.ancestors(value.entity_id)
                value = EntityRef(ancestors[int(rng.integers(len(ancestors)))])
            snapshot.add(Triple(item.subject, item.predicate, value))
    return snapshot
