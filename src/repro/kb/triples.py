"""Knowledge triples and data items.

A triple is ``(subject, predicate, object)``; the ``(subject, predicate)``
pair is the *data item* — the unit over which fusion resolves conflicts
(§3.1.1: "in each triple the (subject, predicate) pair corresponds to a
'data item' in data fusion, and the object can be considered as a 'value'").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kb.values import DateValue, Value, parse_value  # DateValue used in doctests

__all__ = ["DataItem", "Triple"]


@dataclass(frozen=True, slots=True, order=True)
class DataItem:
    """A ``(subject, predicate)`` pair: one aspect of one entity."""

    subject: str
    predicate: str

    def canonical(self) -> str:
        return f"{self.subject}|{self.predicate}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.canonical()


class _KeyCache:
    """Slots for :class:`Triple`'s lazily filled canonical key and hash.

    They live on a base class, not as dataclass fields, so
    ``dataclasses.fields(Triple)`` stays ``(subject, predicate, obj)``:
    both the stock pickler (the slotted dataclass's ``__getstate__``)
    and the artifact pickler (``cls(*fields)``) ship the fields only.
    """

    __slots__ = ("_canonical", "_hash")


@dataclass(frozen=True, slots=True)
class Triple(_KeyCache):
    """An RDF-style knowledge triple.

    ``subject`` is an entity id (mid-style string), ``predicate`` a predicate
    id from the schema, and ``obj`` a typed :data:`~repro.kb.values.Value`.
    Triples are frozen and hashable so they can key dictionaries throughout
    the fusion pipeline.

    Key contract:

    - Ordering compares canonical strings, because the same data item can
      mix object kinds (an extractor's raw-string fallback next to a
      linked entity) and field-wise comparison would fail there.
      Equality stays field-wise.
    - The hash is ``hash((subject, predicate, obj))``, the number the
      stock dataclass hash gives, so set and dict iteration orders do not
      depend on the cache.  Like any ``str`` hash it is per-process; it is
      never pickled and is rebuilt on the other side of a process or
      artifact boundary.
    - Both are computed the first time they are asked for and cached on
      the instance.  They are filled lazily, not in ``__post_init__``, so
      construction costs what it did without a cache: building a
      ``small`` world constructs ~22k triples, hashes ~4k of them and
      sorts none, while the fusion rounds over a scenario's claims hash
      the same few thousand triples about a million times.
    """

    subject: str
    predicate: str
    obj: Value

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((self.subject, self.predicate, self.obj))
            object.__setattr__(self, "_hash", value)
            return value

    def __lt__(self, other: "Triple") -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return self.canonical() < other.canonical()

    def __le__(self, other: "Triple") -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return self.canonical() <= other.canonical()

    def __gt__(self, other: "Triple") -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return self.canonical() > other.canonical()

    def __ge__(self, other: "Triple") -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return self.canonical() >= other.canonical()

    @property
    def data_item(self) -> DataItem:
        return DataItem(self.subject, self.predicate)

    def canonical(self) -> str:
        try:
            return self._canonical
        except AttributeError:
            key = f"{self.subject}|{self.predicate}|{self.obj.canonical()}"
            object.__setattr__(self, "_canonical", key)
            return key

    @staticmethod
    def from_canonical(text: str) -> "Triple":
        """Inverse of :meth:`canonical`.

        >>> t = Triple("/m/07r1h", "people/person/birth_date", DateValue("1962-07-03"))
        >>> Triple.from_canonical(t.canonical()) == t
        True
        """
        parts = text.split("|", 2)
        if len(parts) != 3:
            raise ValueError(f"not a canonical triple string: {text!r}")
        subject, predicate, value_text = parts
        return Triple(subject, predicate, parse_value(value_text))

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.canonical()
