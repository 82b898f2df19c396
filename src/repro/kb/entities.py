"""Entities and the entity registry.

Entities carry mid-style identifiers (``/m/000042``), one or more Freebase
types, a canonical name, and aliases.  Aliases are what make entity linkage
hard: distinct entities may share a surface form ("Les Miserables" the
Broadway show vs. the novel), and the shared linkage components in
:mod:`repro.extract.linkage` resolve such forms — sometimes wrongly, which
is the paper's *entity-linkage* error class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError

__all__ = ["Entity", "EntityRegistry"]


@dataclass(frozen=True, slots=True)
class Entity:
    """An entity in the knowledge base.

    ``entity_id`` is the mid-style id; ``type_ids`` the (sorted) tuple of
    types it belongs to; ``name`` the canonical surface form; ``aliases``
    additional surface forms (possibly shared with other entities).
    """

    entity_id: str
    type_ids: tuple[str, ...]
    name: str
    aliases: tuple[str, ...] = ()

    @property
    def primary_type(self) -> str:
        return self.type_ids[0]

    def surface_forms(self) -> tuple[str, ...]:
        return (self.name, *self.aliases)


@dataclass
class EntityRegistry:
    """Registry of all entities, indexed by id, type, and surface form."""

    _by_id: dict[str, Entity] = field(default_factory=dict)
    _by_type: dict[str, list[str]] = field(default_factory=dict)
    _by_surface: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Memoised :meth:`of_type` results; :meth:`add` drops the entries
        # it makes stale.  Not a field, so the artifact pickler (fields
        # only) leaves it out of ``world.pkl``.
        self._of_type_cache: dict[str, tuple[Entity, ...]] = {}

    def add(self, entity: Entity) -> Entity:
        if entity.entity_id in self._by_id:
            raise SchemaError(f"duplicate entity {entity.entity_id}")
        if not entity.type_ids:
            raise SchemaError(f"entity {entity.entity_id} has no types")
        self._by_id[entity.entity_id] = entity
        for type_id in entity.type_ids:
            self._by_type.setdefault(type_id, []).append(entity.entity_id)
            self._of_type_cache.pop(type_id, None)
        for form in entity.surface_forms():
            bucket = self._by_surface.setdefault(form, [])
            if entity.entity_id not in bucket:
                bucket.append(entity.entity_id)
        return entity

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._by_id

    def __iter__(self):
        return iter(self._by_id.values())

    def get(self, entity_id: str) -> Entity:
        try:
            return self._by_id[entity_id]
        except KeyError:
            raise SchemaError(f"unknown entity {entity_id!r}") from None

    def ids(self) -> list[str]:
        """All entity ids in insertion order."""
        return list(self._by_id)

    def of_type(self, type_id: str) -> list[Entity]:
        """Entities belonging to ``type_id``, in insertion order."""
        members = self._of_type_cache.get(type_id)
        if members is None:
            members = tuple(self._by_id[eid] for eid in self._by_type.get(type_id, []))
            self._of_type_cache[type_id] = members
        return list(members)

    def candidates_for(self, surface: str) -> list[Entity]:
        """Entities whose name or alias equals ``surface``.

        This is the candidate set an entity linker must disambiguate; a
        surface form with more than one candidate is *ambiguous*.
        """
        return [self._by_id[eid] for eid in self._by_surface.get(surface, [])]

    def ambiguous_surfaces(self) -> list[str]:
        """All surface forms shared by at least two entities."""
        return sorted(
            form for form, eids in self._by_surface.items() if len(eids) > 1
        )
