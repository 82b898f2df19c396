"""Pluggable execution backends for the MapReduce engine.

The engine's dataflow contract (map → deterministic grouped shuffle →
sorted-key reduce with per-key sampling) is fixed; *where* the reduce work
runs is an :class:`Executor` policy:

- :class:`SerialExecutor` — everything in-process, keys reduced in sorted
  order.  The default, and the reference behaviour.
- :class:`ParallelExecutor` — map and shuffle stay in-process; the grouped
  keys are sharded by a *stable* hash (crc32 of ``repr(key)``, immune to
  ``PYTHONHASHSEED``) and each shard's reduce runs in a
  ``concurrent.futures.ProcessPoolExecutor`` worker.  Workers return
  ``(key, outputs)`` pairs and the parent re-emits them in globally sorted
  key order, so the output sequence — and the deterministic per-key
  sampling, which depends only on ``(seed, job name, key)`` — is
  bit-identical to the serial backend.

Bit-identity across start methods requires reducers whose float summation
order does not depend on hash randomization: a reducer that sums a set in
iteration order gives ``PYTHONHASHSEED``-dependent last-ulp results, and a
``spawn`` worker draws its own hash seed.  The fusion reducers therefore
sum in canonical (sorted) order, which makes serial, ``fork``-parallel and
``spawn``-parallel output bit-identical; pools default to ``fork`` where
available (cheapest state inheritance) and accept an explicit
``start_method`` otherwise.

Reducers shipped to workers must be picklable (module-level functions or
dataclasses; the fusion stages satisfy this).  When a reducer cannot be
pickled — e.g. the closure-based reducers third-party extensions may pass —
the parallel executor transparently falls back to in-process reduction and
counts the event in ``fallbacks_unpicklable``; jobs too small for dispatch
overhead to pay off are counted in ``fallbacks_tiny`` (``fallbacks`` sums
both).

Besides the keyed map-reduce contract, executors also run *map-only* jobs
(:class:`ShardedMapJob`): an order-insensitive map over keyed items,
sharded by the same stable key hash, with outputs re-emitted in the input
order.  This is the protocol the extraction stage runs on — each shard of
pages is extracted in a worker and the parent reassembles the corpus-order
record stream, bit-identical to the serial loop.

**Pool-resident worker state.**  Heavyweight invariant objects (the
extraction stage's 12-extractor fleet) are *installed* on an executor via
:meth:`install_state` and cross the process boundary exactly once per
pool — through the pool initializer, on both ``fork`` and ``spawn`` —
instead of once per shard task.  Shard callables
fetch them back with :func:`worker_state`, which also resolves in-process
(serial execution and fallback paths) because installs mirror into the
parent's registry.  Installing new state after the pool has started
restarts the pool (once per pipeline stage, not per job); see
``mapreduce/README.md`` for the full protocol.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Protocol, runtime_checkable

import numpy as np

from repro.mapreduce.codec import WireCodec
from repro.rng import split_seed

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ShardedMapJob",
    "shard_for_key",
    "map_serial",
    "reduce_serial",
    "sample_positions",
    "worker_state",
]


# ---------------------------------------------------------------------------
# Pool-resident worker state
# ---------------------------------------------------------------------------
# One process-wide registry.  In a worker it is filled exactly once, by the
# pool initializer; in the parent it mirrors whatever the executors running
# in this process have installed, so the same shard callables work on the
# serial path and on the parallel fallback paths.  Keys are namespaced by
# producer (e.g. "extract.fleet"); later installs win.

_WORKER_STATE: dict[str, Any] = {}


def _init_worker_state(blobs: dict[str, bytes]) -> None:
    """Pool initializer: unpickle each installed state once per worker."""
    for key, blob in blobs.items():
        _WORKER_STATE[key] = pickle.loads(blob)


def worker_state(key: str) -> Any:
    """Fetch pool-resident state installed under ``key``.

    Works in workers (filled by the pool initializer) and in the parent
    (filled directly by :meth:`SerialExecutor.install_state` /
    :meth:`ParallelExecutor.install_state`), so shard callables are
    agnostic to where they run.
    """
    try:
        return _WORKER_STATE[key]
    except KeyError:
        raise RuntimeError(
            f"no pool-resident state installed under {key!r}; call "
            "executor.install_state(key, value) before running the job"
        ) from None


def _release_parent_state(installed: dict[str, Any], key: str) -> None:
    """Remove one executor's parent-side registry entry for ``key``.

    Guarded by identity: if another executor has since installed its own
    value under the same key (later installs win), that live value is
    left untouched — only our own is withdrawn.
    """
    if key not in installed:
        return
    value = installed.pop(key)
    if key in _WORKER_STATE and _WORKER_STATE[key] is value:
        del _WORKER_STATE[key]


def map_and_shuffle(records: Iterable[Any], mapper: Callable) -> dict[Any, list]:
    """The map phase plus grouping (insertion-ordered value lists)."""
    groups: dict[Any, list] = {}
    for record in records:
        for key, value in mapper(record):
            groups.setdefault(key, []).append(value)
    return groups


def sample_positions(
    n_values: int, key: Any, name: str, sample_limit: int | None, seed: int
) -> list[int] | None:
    """The deterministic position draw behind reducer-input sampling (L).

    Returns the ascending positions to keep out of ``n_values`` ordered
    values, or None when sampling does not engage.  The draw depends only
    on ``(seed, name, repr(key))`` and ``n_values`` — never on where the
    values live — so any backend that can enumerate a key's values *in the
    same order* reproduces the same subset bit-for-bit.  The fusion stages
    pin that order to the canonical (sorted) one via ``sample_key``.
    """
    if sample_limit is None or n_values <= sample_limit:
        return None
    rng = np.random.default_rng(split_seed(seed, name, repr(key)))
    picked = rng.choice(n_values, size=sample_limit, replace=False)
    return sorted(int(x) for x in picked)


def sample_values(
    values: list,
    key: Any,
    name: str,
    sample_limit: int | None,
    seed: int,
    sample_key: Callable[[Any], Any] | None = None,
) -> list:
    """Deterministic per-key sample of reducer input (the paper's L).

    Without ``sample_key`` the sample depends on ``(seed, name, key)`` and
    the *value order* — historically the scalar dataflow's arrival order,
    which no sharded backend can reproduce.  With ``sample_key`` the values
    are put in canonical order before the positional draw, making the
    sampled subset a property of the key's value *set*: any backend that
    enumerates the same values canonically picks the identical subset.
    """
    positions = sample_positions(len(values), key, name, sample_limit, seed)
    if positions is None:
        return values
    if sample_key is not None:
        values = sorted(values, key=sample_key)
    return [values[i] for i in positions]


def shard_for_key(key: Any, n_shards: int) -> int:
    """Stable shard assignment: crc32 of ``repr(key)``, not ``hash()``."""
    return zlib.crc32(repr(key).encode("utf-8")) % n_shards


@dataclass(frozen=True)
class _ReduceSpec:
    """The picklable slice of a job a reduce worker needs."""

    name: str
    reducer: Callable
    sample_limit: int | None
    seed: int
    sample_key: Callable | None = None


def _reduce_shard(
    spec_bytes: bytes, items: list[tuple[Any, list]]
) -> list[tuple[Any, list]]:
    """Worker body: sample + reduce each key of one shard.

    In-shard order is irrelevant — the parent re-emits outputs in global
    sorted-key order, and sampling depends only on ``(seed, name, key)``.
    The spec arrives pre-pickled so the parent serializes it exactly once
    per job instead of once per shard.
    """
    spec: _ReduceSpec = pickle.loads(spec_bytes)
    outputs: list[tuple[Any, list]] = []
    for key, values in items:
        sampled = sample_values(
            values, key, spec.name, spec.sample_limit, spec.seed, spec.sample_key
        )
        outputs.append((key, list(spec.reducer(key, sampled))))
    return outputs


@dataclass(frozen=True)
class ShardedMapJob:
    """A map-only job: order-insensitive work over keyed items.

    ``map_shard(items)`` processes one shard's items (in the order given)
    and returns exactly one output per item; the executor re-emits outputs
    in the original input order, so serial and parallel execution are
    indistinguishable.  The map must be *order-insensitive*: an item's
    output may depend only on the item itself (the extraction stage
    satisfies this — every noisy draw derives from the page URL).

    ``key_fn`` yields the stable shard key for an item (hashed with
    :func:`shard_for_key`; it runs only in the parent and need not
    pickle).  ``map_shard`` and the optional wire codec must be picklable
    for the parallel backend; ``encode`` compacts each output in the
    worker before it crosses the process boundary and ``decode`` restores
    it in the parent — the extraction stage uses this to ship records as
    compact tuples instead of full pickled dataclass lists.  A
    :class:`~repro.mapreduce.codec.WireCodec` can be passed as ``codec``
    instead of the two callables (the shared codec-layer spelling); the
    two forms are mutually exclusive.
    """

    name: str
    map_shard: Callable[[list], list]
    key_fn: Callable[[Any], Any]
    encode: Callable[[Any], Any] | None = None
    decode: Callable[[Any], Any] | None = None
    codec: WireCodec | None = None

    def __post_init__(self) -> None:
        if self.codec is not None:
            if self.encode is not None or self.decode is not None:
                raise ValueError(
                    f"job {self.name}: pass either codec= or encode=/decode=, "
                    "not both"
                )
            object.__setattr__(self, "encode", self.codec.encode)
            object.__setattr__(self, "decode", self.codec.decode)


def _map_shard_worker(
    spec_bytes: bytes, indexed_items: list[tuple[int, Any]]
) -> list[tuple[int, Any]]:
    """Worker body for one :class:`ShardedMapJob` shard.

    Returns ``(input_index, encoded_output)`` pairs; the parent slots each
    output back at its input index, restoring the serial emission order.
    """
    map_shard, encode = pickle.loads(spec_bytes)
    outputs = map_shard([item for _index, item in indexed_items])
    if len(outputs) != len(indexed_items):
        raise ValueError(
            f"map_shard returned {len(outputs)} outputs for "
            f"{len(indexed_items)} items; the contract is one per item"
        )
    if encode is not None:
        outputs = [encode(output) for output in outputs]
    return [(index, output) for (index, _item), output in zip(indexed_items, outputs)]


def map_serial(items: list, job: ShardedMapJob) -> list:
    """The reference map-only path: one in-process pass, no wire codec."""
    outputs = list(job.map_shard(items))
    if len(outputs) != len(items):
        raise ValueError(
            f"job {job.name}: map_shard returned {len(outputs)} outputs "
            f"for {len(items)} items; the contract is one per item"
        )
    return outputs


def reduce_serial(groups: dict[Any, list], job) -> list[Any]:
    """The reference reduce: sorted keys, per-key sampling, in-process."""
    sample_key = getattr(job, "sample_key", None)
    outputs: list[Any] = []
    for key in sorted(groups):
        sampled = sample_values(
            groups[key], key, job.name, job.sample_limit, job.seed, sample_key
        )
        outputs.extend(job.reducer(key, sampled))
    return outputs


@runtime_checkable
class Executor(Protocol):
    """Execution policy: run one job over records, return reducer outputs.

    ``run`` executes a keyed map-reduce job; ``run_map`` a map-only
    :class:`ShardedMapJob` (outputs in input order).  ``install_state``
    makes a heavyweight invariant object available to shard callables via
    :func:`worker_state` (crossing the process boundary once per pool, or
    not at all for in-process execution).  ``close()`` releases any held
    resources (worker pools, installed state); it must be safe to call
    repeatedly and on executors that never ran a job.
    """

    def run(self, records: Iterable[Any], job) -> list[Any]: ...

    def run_map(self, items: Iterable[Any], job: ShardedMapJob) -> list[Any]: ...

    def install_state(self, key: str, value: Any) -> None: ...

    def uninstall_state(self, key: str) -> None: ...

    def close(self) -> None: ...


class SerialExecutor:
    """In-process map, shuffle, and sorted-key reduce (reference behaviour)."""

    name = "serial"

    def __init__(self) -> None:
        self._installed: dict[str, Any] = {}

    def run(self, records: Iterable[Any], job) -> list[Any]:
        return reduce_serial(map_and_shuffle(records, job.mapper), job)

    def run_map(self, items: Iterable[Any], job: ShardedMapJob) -> list[Any]:
        return map_serial(list(items), job)

    def install_state(self, key: str, value: Any) -> None:
        """Register ``value`` for :func:`worker_state` lookup (in-process)."""
        _WORKER_STATE[key] = value
        self._installed[key] = value

    def uninstall_state(self, key: str) -> None:
        """Drop ``key`` from the registry (no-op if absent)."""
        _release_parent_state(self._installed, key)

    def close(self) -> None:
        for key in list(self._installed):
            _release_parent_state(self._installed, key)

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class ParallelExecutor:
    """Process-pool reduce, sharded by stable key hash.

    ``max_workers`` defaults to the CPU count (minimum 2, so the backend is
    exercised even on single-core hosts); ``min_keys`` is the group-count
    threshold below which dispatch overhead cannot pay off and the reduce
    runs in-process.  ``start_method`` pins the multiprocessing start
    method (``"fork"``/``"spawn"``/``"forkserver"``; None prefers fork
    where available — cheapest pool start, and installed state is
    inherited by memory copy).  The pool is created lazily and reused
    across jobs (one extraction run dispatches many chunks); call
    :meth:`close` or use the executor as a context manager to release it.

    State installed with :meth:`install_state` reaches workers through the
    pool initializer; installing *after* the pool has started restarts it
    so new workers see the full registry — once per pipeline stage, never
    per shard.
    """

    name = "parallel"

    def __init__(
        self,
        max_workers: int | None = None,
        min_keys: int = 2,
        start_method: str | None = None,
    ) -> None:
        self.max_workers = max_workers or max(2, os.cpu_count() or 1)
        self.min_keys = min_keys
        self.start_method = start_method
        self.fallbacks_tiny = 0  # jobs too small for dispatch to pay off
        self.fallbacks_unpicklable = 0  # jobs whose work unit cannot pickle
        self.state_bytes_shipped = 0  # cumulative pickled install payloads
        self._pool: ProcessPoolExecutor | None = None
        self._state_blobs: dict[str, bytes] = {}
        self._installed: dict[str, Any] = {}
        self._unpicklable_state: set[str] = set()

    @property
    def fallbacks(self) -> int:
        """Total degraded events despite the parallel backend: jobs that
        ran in-process (tiny or unpicklable)."""
        return self.fallbacks_tiny + self.fallbacks_unpicklable

    def install_state(self, key: str, value: Any) -> None:
        """Make ``value`` pool-resident under ``key``.

        The value is pickled once, here; workers unpickle it once each, in
        the pool initializer.  It is also registered in the parent so
        :func:`worker_state` resolves on the in-process fallback paths.
        Reinstalling an identical value is a no-op; new state after the
        pool has started triggers one pool restart.

        A value that cannot pickle is registered parent-side only and the
        executor degrades to in-process execution (counted per job in
        ``fallbacks_unpicklable``) until the key is replaced or
        uninstalled — the same graceful path an unpicklable work unit
        takes.
        """
        self._installed[key] = value
        _WORKER_STATE[key] = value
        try:
            blob = pickle.dumps(value)
        except Exception:
            self._unpicklable_state.add(key)
            self._state_blobs.pop(key, None)
            return
        self._unpicklable_state.discard(key)
        if self._state_blobs.get(key) == blob:
            return
        self._state_blobs[key] = blob
        self.state_bytes_shipped += len(blob)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def uninstall_state(self, key: str) -> None:
        """Drop ``key``: future pools will not carry it (no-op if absent).

        Already-running workers keep their copy — harmless dead weight —
        but the next pool (re)start omits it, so a later stage's
        ``install_state`` does not re-ship state only an earlier stage
        needed.
        """
        _release_parent_state(self._installed, key)
        self._state_blobs.pop(key, None)
        self._unpicklable_state.discard(key)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            method = self.start_method
            if method is None:
                method = (
                    "fork"
                    if "fork" in multiprocessing.get_all_start_methods()
                    else None
                )
            mp_context = (
                multiprocessing.get_context(method) if method is not None else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=mp_context,
                initializer=_init_worker_state if self._state_blobs else None,
                initargs=(dict(self._state_blobs),) if self._state_blobs else (),
            )
        return self._pool

    def run(self, records: Iterable[Any], job) -> list[Any]:
        groups = map_and_shuffle(records, job.mapper)
        sorted_keys = sorted(groups)
        if len(sorted_keys) < self.min_keys:
            self.fallbacks_tiny += 1
            return reduce_serial(groups, job)
        if self._unpicklable_state:
            # Installed state never reached the workers; the parent-side
            # registry still resolves, so run the job in-process.
            self.fallbacks_unpicklable += 1
            return reduce_serial(groups, job)
        spec = _ReduceSpec(
            name=job.name,
            reducer=job.reducer,
            sample_limit=job.sample_limit,
            seed=job.seed,
            sample_key=getattr(job, "sample_key", None),
        )
        try:
            spec_bytes = pickle.dumps(spec)
        except Exception:
            self.fallbacks_unpicklable += 1
            return reduce_serial(groups, job)

        n_shards = min(self.max_workers * 4, len(sorted_keys))
        shards: list[list[tuple[Any, list]]] = [[] for _ in range(n_shards)]
        for key in sorted_keys:
            shards[shard_for_key(key, n_shards)].append((key, groups[key]))

        pool = self._ensure_pool()
        futures = [
            pool.submit(_reduce_shard, spec_bytes, shard) for shard in shards if shard
        ]
        by_key: dict[Any, list] = {}
        for future in futures:
            for key, outputs in future.result():
                by_key[key] = outputs
        # Re-emit in global sorted-key order: bit-identical to serial.
        return [output for key in sorted_keys for output in by_key[key]]

    def run_map(self, items: Iterable[Any], job: ShardedMapJob) -> list[Any]:
        """Run a map-only job over a process pool, outputs in input order."""
        items = list(items)
        if len(items) < self.min_keys:
            self.fallbacks_tiny += 1
            return map_serial(items, job)
        if self._unpicklable_state:
            # Installed state never reached the workers; the parent-side
            # registry still resolves, so run the job in-process.
            self.fallbacks_unpicklable += 1
            return map_serial(items, job)
        try:
            spec_bytes = pickle.dumps((job.map_shard, job.encode))
        except Exception:
            self.fallbacks_unpicklable += 1
            return map_serial(items, job)

        n_shards = min(self.max_workers * 4, len(items))
        shards: list[list[tuple[int, Any]]] = [[] for _ in range(n_shards)]
        for index, item in enumerate(items):
            shards[shard_for_key(job.key_fn(item), n_shards)].append((index, item))

        pool = self._ensure_pool()
        futures = [
            pool.submit(_map_shard_worker, spec_bytes, shard)
            for shard in shards
            if shard
        ]
        outputs: list[Any] = [None] * len(items)
        for future in futures:
            for index, output in future.result():
                outputs[index] = job.decode(output) if job.decode else output
        return outputs

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for key in list(self._installed):
            _release_parent_state(self._installed, key)
        self._state_blobs.clear()
        self._unpicklable_state.clear()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
