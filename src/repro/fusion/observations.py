"""Fusion input: unique (triple, provenance) claims.

Raw extraction is many-to-many — the same extractor may extract the same
triple from the same page through two patterns, and certainly from many
pages.  Fusion operates on the deduplicated *claim* matrix: for every data
item, which provenances support which triple.  :class:`FusionInput` builds
and caches that matrix per granularity, so the same extraction run can be
fused under many configurations cheaply (the granularity sweep of
Figure 10 does exactly that).

Two views of the same matrix coexist:

- the **dict view** (``ClaimMatrix.items`` / ``prov_triples``), convenient
  for per-item logic and the MapReduce reducers;
- the **columnar view** (:class:`ColumnarClaims`, via
  :meth:`ClaimMatrix.columnar`), an int-coded CSR layout built once and
  cached, which the vectorized posterior kernels of
  :mod:`repro.fusion.kernels` consume.  A *row* is one unique
  ``(data item, triple)`` pair — and because a triple determines its data
  item, rows are exactly the unique triples; a *claim* is one
  ``(row, provenance)`` support edge.  Rows are grouped contiguously by
  item and claims contiguously by row, so every per-item and per-row
  aggregate is a ``np.add.reduceat`` over a pointer array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.extract.records import ExtractionRecord
from repro.fusion.provenance import Granularity, provenance_key
from repro.kb.triples import DataItem, Triple

__all__ = [
    "Claim",
    "ColumnarClaims",
    "FusionInput",
]

ProvKey = tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Claim:
    """One unique (triple, provenance) cell of the knowledge-fusion input."""

    triple: Triple
    provenance: ProvKey


@dataclass
class FusionInput:
    """Extraction records plus cached claim matrices per granularity."""

    records: list[ExtractionRecord]
    _cache: dict[Granularity, "ClaimMatrix"] = field(default_factory=dict, repr=False)

    def claims(self, granularity: Granularity) -> "ClaimMatrix":
        matrix = self._cache.get(granularity)
        if matrix is None:
            matrix = ClaimMatrix.build(self.records, granularity)
            self._cache[granularity] = matrix
        return matrix

    def unique_triples(self) -> list[Triple]:
        """All distinct extracted triples (the paper's 1.6B 'unique')."""
        return sorted({record.triple for record in self.records})

    def __len__(self) -> int:
        return len(self.records)


@dataclass(eq=False)  # ndarray fields: generated __eq__ would raise
class ColumnarClaims:
    """Int-coded CSR view of a claim matrix for the vectorized kernels.

    Index spaces (all contiguous, all sorted so the layout is canonical):

    - **item** ``j``: ``items[j]`` (sorted :class:`DataItem`);
    - **row** ``r``: one unique triple, ``triples[r]``; rows are grouped by
      item — item ``j`` owns rows ``item_ptr[j]:item_ptr[j+1]`` — and
      sorted canonically within the item;
    - **provenance** ``p``: ``provenances[p]`` (sorted tuples);
    - **claim** ``c``: one ``(row, provenance)`` support edge; claims are
      grouped by row — row ``r`` owns claims ``row_ptr[r]:row_ptr[r+1]``
      and ``claim_prov[c]`` is the supporting provenance.

    ``prov_rows``/``prov_ptr`` is the transposed CSR: provenance ``p``
    supports rows ``prov_rows[prov_ptr[p]:prov_ptr[p+1]]`` (the columnar
    form of ``ClaimMatrix.prov_triples``, feeding Stage II).
    """

    granularity: Granularity
    items: list[DataItem]
    triples: list[Triple]
    provenances: list[ProvKey]
    row_item: np.ndarray  # row -> item index
    item_ptr: np.ndarray  # item j rows: [item_ptr[j], item_ptr[j+1])
    claim_prov: np.ndarray  # claim -> provenance index
    row_ptr: np.ndarray  # row r claims: [row_ptr[r], row_ptr[r+1])
    prov_rows: np.ndarray  # concatenated row ids per provenance
    prov_ptr: np.ndarray  # prov p rows: [prov_ptr[p], prov_ptr[p+1])
    _canonical_rank: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_rows(self) -> int:
        return len(self.triples)

    @property
    def n_claims(self) -> int:
        return len(self.claim_prov)

    def item_claim_counts(self) -> np.ndarray:
        """Claims per item (the Stage-I reducer input sizes)."""
        claims_per_row = np.diff(self.row_ptr)
        if self.n_items == 0:
            return np.zeros(0, dtype=np.int64)
        return np.add.reduceat(claims_per_row, self.item_ptr[:-1])

    def prov_row_counts(self) -> np.ndarray:
        """Unique supported triples per provenance (Stage-II input sizes)."""
        return np.diff(self.prov_ptr)

    def canonical_rank(self) -> np.ndarray:
        """Rank of each row in the *global* canonical-triple ordering.

        Rows are laid out item-major (items sorted field-wise, triples
        sorted within each item), which is *not* the same as sorting all
        triples by canonical string — ``("a", "x") < ("ab", "y")`` as
        tuples but ``"a|x" > "ab|y"`` as strings, because ``"|"`` sorts
        after every alphanumeric.  Reducers that must sum floats in
        ``sorted(triples)`` order (the Stage-II mean, for bit-identity
        with the serial backend) therefore order rows by this rank, built
        once and cached.
        """
        if self._canonical_rank is None:
            order = sorted(
                range(len(self.triples)), key=lambda r: self.triples[r].canonical()
            )
            rank = np.empty(len(order), dtype=np.int64)
            rank[np.asarray(order, dtype=np.int64)] = np.arange(
                len(order), dtype=np.int64
            )
            self._canonical_rank = rank
        return self._canonical_rank

    @staticmethod
    def from_items(
        items_map: dict[DataItem, dict[Triple, set[ProvKey]]],
        granularity: Granularity = Granularity.EXTRACTOR_URL,
    ) -> "ColumnarClaims":
        """Build the columnar view from the dict view (sorted, canonical)."""
        items = sorted(items_map)
        provenances = sorted(
            {prov for triple_map in items_map.values() for provs in triple_map.values() for prov in provs}
        )
        prov_index = {prov: p for p, prov in enumerate(provenances)}

        triples: list[Triple] = []
        row_item: list[int] = []
        item_ptr = [0]
        row_ptr = [0]
        claim_prov: list[int] = []
        for j, item in enumerate(items):
            triple_map = items_map[item]
            for triple in sorted(triple_map):
                triples.append(triple)
                row_item.append(j)
                for prov in sorted(triple_map[triple]):
                    claim_prov.append(prov_index[prov])
                row_ptr.append(len(claim_prov))
            item_ptr.append(len(triples))

        claim_prov_arr = np.asarray(claim_prov, dtype=np.int64)
        row_ptr_arr = np.asarray(row_ptr, dtype=np.int64)
        # Transpose: claims sorted by (prov, row) give the per-prov row CSR.
        claim_row = np.repeat(
            np.arange(len(triples), dtype=np.int64), np.diff(row_ptr_arr)
        )
        order = np.argsort(claim_prov_arr, kind="stable")
        prov_rows = claim_row[order]
        prov_counts = np.bincount(claim_prov_arr, minlength=len(provenances))
        prov_ptr = np.zeros(len(provenances) + 1, dtype=np.int64)
        np.cumsum(prov_counts, out=prov_ptr[1:])

        return ColumnarClaims(
            granularity=granularity,
            items=items,
            triples=triples,
            provenances=provenances,
            row_item=np.asarray(row_item, dtype=np.int64),
            item_ptr=np.asarray(item_ptr, dtype=np.int64),
            claim_prov=claim_prov_arr,
            row_ptr=row_ptr_arr,
            prov_rows=prov_rows,
            prov_ptr=prov_ptr,
        )


@dataclass
class ClaimMatrix:
    """The deduplicated claim structure for one granularity.

    ``items``: data item -> {triple -> set of supporting provenances}.
    ``prov_triples``: provenance -> unique triples it supports.
    The columnar CSR view is built lazily by :meth:`columnar` and cached.
    """

    granularity: Granularity
    items: dict[DataItem, dict[Triple, set[ProvKey]]]
    prov_triples: dict[ProvKey, set[Triple]]
    _columnar: ColumnarClaims | None = field(default=None, repr=False, compare=False)

    @staticmethod
    def build(
        records: list[ExtractionRecord], granularity: Granularity
    ) -> "ClaimMatrix":
        items: dict[DataItem, dict[Triple, set[ProvKey]]] = {}
        prov_triples: dict[ProvKey, set[Triple]] = {}
        for record in records:
            key = provenance_key(record, granularity)
            triple_map = items.setdefault(record.triple.data_item, {})
            triple_map.setdefault(record.triple, set()).add(key)
            prov_triples.setdefault(key, set()).add(record.triple)
        return ClaimMatrix(
            granularity=granularity, items=items, prov_triples=prov_triples
        )

    def columnar(self) -> ColumnarClaims:
        """The cached int-coded CSR view (built on first use)."""
        if self._columnar is None:
            self._columnar = ColumnarClaims.from_items(self.items, self.granularity)
        return self._columnar

    def n_claims(self) -> int:
        return sum(
            len(provs)
            for triple_map in self.items.values()
            for provs in triple_map.values()
        )

    def provenance_support(self) -> dict[ProvKey, int]:
        """Unique-triple count per provenance (the coverage-filter signal)."""
        return {key: len(triples) for key, triples in self.prov_triples.items()}

    def claims_of_item(self, item: DataItem) -> dict[Triple, set[ProvKey]]:
        return self.items.get(item, {})

    def all_triples(self) -> list[Triple]:
        return sorted(
            triple
            for triple_map in self.items.values()
            for triple in triple_map
        )
