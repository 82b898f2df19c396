"""Out-of-core claim matrix: mapped columns and streaming accumulation.

The `web` scale tier never materialises extraction records or the dict
claim views for the whole corpus.  This module supplies the three pieces
that replace them:

- :class:`ClaimAccumulator` folds each extraction chunk straight into
  integer space (triple/provenance vocabularies plus ``(row, prov)``
  claim pairs) and emits a :class:`~repro.fusion.observations.ColumnarClaims`
  in exactly the canonical layout ``ColumnarClaims.from_items`` would
  have produced from the same records — field-for-field, so every
  downstream parity contract carries over unchanged.
- :class:`MappedColumnarClaims` is a ``ColumnarClaims`` whose numeric
  columns are read-only ``np.memmap`` views over a published column
  store (:func:`repro.artifacts.save_column_store`).  Pickling it ships
  only the ~300-byte :class:`~repro.artifacts.ColumnHandle`; a reader in
  another process re-maps the files, so the static columns are shared
  zero-copy through the page cache.  The object columns
  (``items``/``triples``/``provenances``) load lazily on first touch.
- :class:`ColumnarClaimMatrix` / :class:`ColumnarFusionInput` adapt a
  bare column set to the ``ClaimMatrix`` / ``FusionInput`` surface the
  fusion runner consumes, building the dict views lazily (the serial
  path) or never (the vectorized path).
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.artifacts import ColumnHandle, _dumps, save_column_store
from repro.extract.records import ExtractionRecord
from repro.fusion.observations import ColumnarClaims, ProvKey
from repro.fusion.provenance import Granularity, provenance_key
from repro.kb.triples import DataItem, Triple

__all__ = [
    "ClaimAccumulator",
    "ColumnarClaimMatrix",
    "ColumnarFusionInput",
    "MappedColumnarClaims",
    "persist_columns",
]

#: Numeric CSR columns, persisted one ``.npy`` each (plus the cached
#: canonical rank, so mapped columns never re-sort triples to build it).
NUMERIC_COLUMNS = (
    "row_item",
    "item_ptr",
    "claim_prov",
    "row_ptr",
    "prov_rows",
    "prov_ptr",
)
RANK_COLUMN = "canonical_rank"
_OBJECT_COLUMNS = ("items", "triples", "provenances")
_OBJECTS_FILE = "objects.pkl"


class MappedColumnarClaims(ColumnarClaims):
    """A ``ColumnarClaims`` whose numeric columns are memory-mapped.

    Constructed from a :class:`~repro.artifacts.ColumnHandle`; the
    numeric columns and the canonical rank open eagerly as read-only
    memmaps, while the object columns unpickle from ``objects.pkl`` on
    first attribute access (``__getattr__`` fires because the dataclass
    declares no class-level default for them).  ``__reduce__`` ships the
    handle only, so pickling an instance costs a few hundred bytes
    regardless of matrix size.
    """

    def __init__(self, handle: ColumnHandle) -> None:
        self.handle = handle
        self.granularity = Granularity(handle.granularity)
        for name in NUMERIC_COLUMNS:
            setattr(self, name, np.load(handle.path_of(f"{name}.npy"), mmap_mode="r"))
        # Eager: the class-level dataclass default (None) means
        # __getattr__ would never fire for this field, and canonical_rank()
        # must find the mapped cache, not re-sort a million triples.
        self._canonical_rank = np.load(
            handle.path_of(f"{RANK_COLUMN}.npy"), mmap_mode="r"
        )
        self._closed = False

    def __getattr__(self, name: str):
        if name in _OBJECT_COLUMNS:
            self._load_objects()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _load_objects(self) -> None:
        with open(self.handle.path_of(_OBJECTS_FILE), "rb") as fh:
            items, triples, provenances = pickle.load(fh)
        self.items = items
        self.triples = triples
        self.provenances = provenances

    def adopt_objects(
        self,
        items: list[DataItem],
        triples: list[Triple],
        provenances: list[ProvKey],
    ) -> None:
        """Seed the object columns from lists the caller already holds.

        Parent-side convenience after :func:`persist_columns`: avoids an
        immediate re-unpickle of what was just written.  Workers are
        unaffected — ``__reduce__`` ships the handle, never the lists.
        """
        self.items = items
        self.triples = triples
        self.provenances = provenances

    def objects_loaded(self) -> bool:
        return "triples" in self.__dict__

    def __reduce__(self):
        return (type(self), (self.handle,))

    def __repr__(self) -> str:  # the dataclass repr would force objects.pkl
        return (
            f"{type(self).__name__}(key={self.handle.key[:12]!r}, "
            f"n_rows={self.n_rows}, n_claims={self.n_claims}, "
            f"closed={self._closed})"
        )

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release every mapped view (and its file descriptor).

        The instance must not be used afterwards; the streaming pipeline
        calls this once fusion is done with the columns.
        """
        if self._closed:
            return
        for name in (*NUMERIC_COLUMNS, "_canonical_rank"):
            array = self.__dict__.get(name)
            mapped = getattr(array, "_mmap", None)
            if mapped is not None:
                try:
                    mapped.close()
                except BufferError:
                    # A live external view pins the buffer; dropping our
                    # reference still lets the GC reclaim the mapping.
                    pass
        self._closed = True


def persist_columns(
    cols: ColumnarClaims, cache_dir
) -> MappedColumnarClaims:
    """Publish ``cols`` to the column store and return the mapped view.

    The in-memory arrays are written once (content-addressed, atomic)
    and the returned instance maps them back read-only, with the object
    columns adopted from ``cols`` so the parent pays no re-unpickle.
    """
    arrays = {name: np.ascontiguousarray(getattr(cols, name)) for name in NUMERIC_COLUMNS}
    arrays[RANK_COLUMN] = np.ascontiguousarray(cols.canonical_rank())
    objects = _dumps((cols.items, cols.triples, cols.provenances))
    handle = save_column_store(cache_dir, cols.granularity.value, arrays, objects)
    mapped = MappedColumnarClaims(handle)
    mapped.adopt_objects(cols.items, cols.triples, cols.provenances)
    return mapped


class ColumnarClaimMatrix:
    """A ``ClaimMatrix``-shaped adapter over a bare column set.

    The vectorized fusion path is column-native; this adapter lets it
    run without a record-built ``ClaimMatrix``.  The dict views
    (``items`` / ``prov_triples``) build lazily from the columns —
    bit-identical to the record-built dicts because the columnar layout
    is canonical (sorted items, sorted triples per item, sorted
    provenances per row) — so the serial/mapreduce path (including the
    vectorized sampling fallback) still works, while the vectorized path
    never touches them at all.
    """

    def __init__(self, cols: ColumnarClaims) -> None:
        self._cols = cols
        self.granularity = cols.granularity
        self._items: dict[DataItem, dict[Triple, set[ProvKey]]] | None = None
        self._prov_triples: dict[ProvKey, set[Triple]] | None = None

    def columnar(self) -> ColumnarClaims:
        return self._cols

    @property
    def items(self) -> dict[DataItem, dict[Triple, set[ProvKey]]]:
        if self._items is None:
            cols = self._cols
            item_ptr = cols.item_ptr
            row_ptr = cols.row_ptr
            claim_prov = cols.claim_prov
            provenances = cols.provenances
            triples = cols.triples
            items: dict[DataItem, dict[Triple, set[ProvKey]]] = {}
            for j, item in enumerate(cols.items):
                triple_map: dict[Triple, set[ProvKey]] = {}
                for r in range(int(item_ptr[j]), int(item_ptr[j + 1])):
                    triple_map[triples[r]] = {
                        provenances[p]
                        for p in claim_prov[int(row_ptr[r]) : int(row_ptr[r + 1])].tolist()
                    }
                items[item] = triple_map
            self._items = items
        return self._items

    @property
    def prov_triples(self) -> dict[ProvKey, set[Triple]]:
        if self._prov_triples is None:
            cols = self._cols
            prov_ptr = cols.prov_ptr
            prov_rows = cols.prov_rows
            triples = cols.triples
            self._prov_triples = {
                prov: {
                    triples[r]
                    for r in prov_rows[int(prov_ptr[p]) : int(prov_ptr[p + 1])].tolist()
                }
                for p, prov in enumerate(cols.provenances)
            }
        return self._prov_triples

    def n_claims(self) -> int:
        return self._cols.n_claims

    def provenance_support(self) -> dict[ProvKey, int]:
        counts = self._cols.prov_row_counts()
        return {
            prov: int(counts[p]) for p, prov in enumerate(self._cols.provenances)
        }

    def claims_of_item(self, item: DataItem) -> dict[Triple, set[ProvKey]]:
        return self.items.get(item, {})

    def all_triples(self) -> list[Triple]:
        return sorted(self._cols.triples)


class ColumnarFusionInput:
    """A ``FusionInput``-shaped wrapper over one prebuilt column set.

    The streaming pipeline builds columns directly (no record list), so
    ``claims()`` serves the one granularity the columns were built at
    and refuses others — a granularity sweep needs the record path.
    """

    def __init__(self, cols: ColumnarClaims) -> None:
        self._matrix = ColumnarClaimMatrix(cols)

    def claims(self, granularity: Granularity) -> ColumnarClaimMatrix:
        if granularity != self._matrix.granularity:
            raise ValueError(
                f"columns were accumulated at granularity "
                f"{self._matrix.granularity.value!r}; re-extract to fuse at "
                f"{granularity.value!r}"
            )
        return self._matrix

    def unique_triples(self) -> list[Triple]:
        return sorted(self._matrix.columnar().triples)

    def __len__(self) -> int:
        return self._matrix.columnar().n_claims


class ClaimAccumulator:
    """Fold extraction chunks into claim columns without keeping records.

    ``add_records`` interns each record's triple and provenance key and
    appends one integer ``(row, prov)`` pair per record; ``build``
    dedupes the pairs, permutes rows into the canonical item-major
    layout and emits a ``ColumnarClaims`` equal field-for-field to
    ``ClaimMatrix.build(all_records, granularity).columnar()`` — the
    property the streaming parity tests pin.  Peak state is the two
    vocabularies plus ~16 bytes per raw claim.
    """

    def __init__(self, granularity: Granularity) -> None:
        self.granularity = granularity
        self._row_of: dict[Triple, int] = {}
        self._row_items: list[DataItem] = []
        self._prov_of: dict[ProvKey, int] = {}
        self._pairs: list[np.ndarray] = []
        self.n_records = 0

    def add_records(self, records: list[ExtractionRecord]) -> None:
        if not records:
            return
        row_of = self._row_of
        prov_of = self._prov_of
        pairs = np.empty((len(records), 2), dtype=np.int64)
        for i, record in enumerate(records):
            triple = record.triple
            row = row_of.get(triple)
            if row is None:
                row = len(row_of)
                row_of[triple] = row
                self._row_items.append(triple.data_item)
            key = provenance_key(record, self.granularity)
            prov = prov_of.get(key)
            if prov is None:
                prov = len(prov_of)
                prov_of[key] = prov
            pairs[i, 0] = row
            pairs[i, 1] = prov
        self._pairs.append(pairs)
        self.n_records += len(records)

    @property
    def n_rows(self) -> int:
        return len(self._row_of)

    def unique_triples(self) -> list[Triple]:
        return sorted(self._row_of)

    def build(self) -> ColumnarClaims:
        n_rows = len(self._row_of)
        arrival_triples = list(self._row_of)
        row_items = self._row_items
        # Canonical row order: items sorted field-wise, triples sorted
        # within each item — tuple comparison gives exactly the
        # from_items() nesting order.
        order = sorted(
            range(n_rows), key=lambda r: (row_items[r], arrival_triples[r])
        )
        row_remap = np.empty(n_rows, dtype=np.int64)
        row_remap[np.asarray(order, dtype=np.int64)] = np.arange(
            n_rows, dtype=np.int64
        )
        triples = [arrival_triples[r] for r in order]

        items: list[DataItem] = []
        row_item = np.empty(n_rows, dtype=np.int64)
        for new_row, r in enumerate(order):
            item = row_items[r]
            if not items or item != items[-1]:
                items.append(item)
            row_item[new_row] = len(items) - 1
        item_ptr = np.zeros(len(items) + 1, dtype=np.int64)
        if n_rows:
            counts = np.bincount(row_item, minlength=len(items))
            np.cumsum(counts, out=item_ptr[1:])

        provenances = sorted(self._prov_of)
        prov_remap = np.empty(len(provenances), dtype=np.int64)
        for new_prov, key in enumerate(provenances):
            prov_remap[self._prov_of[key]] = new_prov

        if self._pairs:
            raw = np.concatenate(self._pairs)
            new_rows = row_remap[raw[:, 0]]
            new_provs = prov_remap[raw[:, 1]]
            # Dedup + sort by (row, prov) in one encoded key: claims land
            # grouped by row with provenances ascending — CSR order, and
            # prov-id order is sorted-ProvKey order by construction.
            n_provs = len(provenances)
            combined = np.unique(new_rows * np.int64(n_provs) + new_provs)
            claim_row = combined // n_provs
            claim_prov = combined % n_provs
        else:
            claim_row = np.zeros(0, dtype=np.int64)
            claim_prov = np.zeros(0, dtype=np.int64)

        row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
        if n_rows:
            claim_counts = np.bincount(claim_row, minlength=n_rows)
            np.cumsum(claim_counts, out=row_ptr[1:])

        # Transpose: claims sorted by (prov, row) give the per-prov CSR.
        transpose = np.argsort(claim_prov, kind="stable")
        prov_rows = claim_row[transpose]
        prov_counts = np.bincount(claim_prov, minlength=len(provenances))
        prov_ptr = np.zeros(len(provenances) + 1, dtype=np.int64)
        np.cumsum(prov_counts, out=prov_ptr[1:])

        return ColumnarClaims(
            granularity=self.granularity,
            items=items,
            triples=triples,
            provenances=provenances,
            row_item=row_item,
            item_ptr=item_ptr,
            claim_prov=claim_prov,
            row_ptr=row_ptr,
            prov_rows=prov_rows,
            prov_ptr=prov_ptr,
        )

    def release(self) -> None:
        """Drop the accumulation state (vocabularies + pair chunks)."""
        self._row_of = {}
        self._row_items = []
        self._prov_of = {}
        self._pairs = []
