"""Local MapReduce engine.

The paper scales fusion with a three-stage MapReduce pipeline (Figure 8).
This package provides the same dataflow semantics — map, shuffle (grouped,
deterministically ordered), reduce, with per-reducer input *sampling*
(the paper's ``L``) and multi-stage iteration with forced termination
(the paper's ``R``) — as an in-process engine suitable for laptop scale.
Execution is pluggable: the reduce phase runs through an
:class:`~repro.mapreduce.executors.Executor` — serial in-process by
default, or sharded across a process pool by
:class:`~repro.mapreduce.executors.ParallelExecutor` with bit-identical
output.  Executors also run map-only jobs
(:class:`~repro.mapreduce.executors.ShardedMapJob`, key-hash-sharded with
outputs in input order) — the protocol the extraction stage scales on.
"""

from repro.mapreduce.codec import WireCodec
from repro.mapreduce.engine import MapReduceEngine, MapReduceJob
from repro.mapreduce.executors import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    ShardedMapJob,
    worker_state,
)
from repro.mapreduce.job import IterativeJob, run_iterative

__all__ = [
    "MapReduceEngine",
    "MapReduceJob",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ShardedMapJob",
    "WireCodec",
    "worker_state",
    "IterativeJob",
    "run_iterative",
]
