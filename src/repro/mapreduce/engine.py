"""Map-shuffle-reduce with deterministic ordering and reducer sampling.

The engine is deliberately faithful to the MapReduce contract the paper's
implementation relies on:

- the **mapper** turns each input record into zero or more ``(key, value)``
  pairs;
- the **shuffle** groups values by key; reducers see keys in sorted order,
  so runs are reproducible regardless of input order;
- the **reducer** sees ``(key, values)`` and emits zero or more outputs;
- when a key's value list exceeds ``sample_limit`` (the paper's ``L``,
  §4.1: "we sample L triples each time instead of using all triples"), a
  deterministic per-key sample is taken before reducing — the skew-taming
  trick the paper uses against 2.7M-claim data items.

*Where* the reduce runs is delegated to an executor
(:mod:`repro.mapreduce.executors`): the default
:class:`~repro.mapreduce.executors.SerialExecutor` reduces in-process;
:class:`~repro.mapreduce.executors.ParallelExecutor` shards the shuffle by
stable key hash across a process pool while preserving sorted-key output
order and per-key sampling, so both backends produce identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.errors import FusionError
from repro.mapreduce.executors import (
    Executor,
    SerialExecutor,
    map_and_shuffle,
    reduce_serial,
    sample_values,
)

__all__ = ["MapReduceJob", "MapReduceEngine"]

Mapper = Callable[[Any], Iterable[tuple[Any, Any]]]
Reducer = Callable[[Any, list], Iterable[Any]]


@dataclass(frozen=True)
class MapReduceJob:
    """One map+reduce stage.

    ``sample_limit`` bounds the number of values any reducer sees for one
    key (None = unbounded); sampling is deterministic in ``seed`` and the
    key, so re-running the job reproduces the result exactly.

    ``sample_key`` opts the job into the *canonical-order sampling
    contract*: when sampling engages for a key, its values are first
    sorted by this key, so the sampled subset is a function of the value
    *set* rather than the arrival order.  Jobs whose sampled subsets must
    not depend on record order — the fusion stages — must set it;
    ``None`` keeps the legacy value-order draw.  The callable must be
    picklable (module-level) so parallel reduce shards can apply it in
    workers.
    """

    name: str
    mapper: Mapper
    reducer: Reducer
    sample_limit: int | None = None
    seed: int = 0
    sample_key: Callable[[Any], Any] | None = None

    def __post_init__(self) -> None:
        if self.sample_limit is not None and self.sample_limit < 1:
            raise FusionError(
                f"job {self.name}: sample_limit must be >= 1 or None, "
                f"got {self.sample_limit}"
            )


class MapReduceEngine:
    """In-process engine running one job at a time through an executor."""

    def __init__(self, executor: Executor | None = None) -> None:
        self.executor: Executor = executor if executor is not None else SerialExecutor()

    def run(self, records: Iterable[Any], job: MapReduceJob) -> list[Any]:
        """Execute ``job`` over ``records`` and return all reducer outputs."""
        return self.executor.run(records, job)

    def map_and_shuffle(
        self, records: Iterable[Any], mapper: Mapper
    ) -> dict[Any, list]:
        """The map phase plus grouping; exposed for tests and diagnostics."""
        return map_and_shuffle(records, mapper)

    def reduce(self, groups: dict[Any, list], job: MapReduceJob) -> list[Any]:
        """The reduce phase over pre-grouped data, keys in sorted order."""
        return reduce_serial(groups, job)

    @staticmethod
    def sample_values(values: list, key: Any, job: MapReduceJob) -> list:
        """Deterministic per-key sample of reducer input (the paper's L)."""
        return sample_values(
            values, key, job.name, job.sample_limit, job.seed, job.sample_key
        )
