"""Unit tests for the execution backends of the MapReduce engine."""

import pytest

from repro.mapreduce.codec import WireCodec, scan_payload_types
from repro.mapreduce.engine import MapReduceEngine, MapReduceJob
from repro.mapreduce.executors import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    ShardedMapJob,
    shard_for_key,
    worker_state,
)

pytestmark = pytest.mark.parallel_backend


def _split_mapper(text):
    return [(word, 1) for word in text.split()]


def _count_reducer(word, ones):
    return [(word, sum(ones))]


def _tuple_reducer(key, values):
    return [(key, tuple(values))]


def word_count_job(sample_limit=None, seed=0):
    return MapReduceJob(
        name="wordcount",
        mapper=_split_mapper,
        reducer=_count_reducer,
        sample_limit=sample_limit,
        seed=seed,
    )


CORPUS = ["a b a", "b c", "d e f g a", "c c c"]


@pytest.fixture(scope="module")
def parallel():
    with ParallelExecutor(max_workers=2) as executor:
        yield executor


class TestProtocol:
    def test_executors_satisfy_protocol(self):
        assert isinstance(SerialExecutor(), Executor)
        assert isinstance(ParallelExecutor(), Executor)

    def test_engine_defaults_to_serial(self):
        assert isinstance(MapReduceEngine().executor, SerialExecutor)


class TestParallelMatchesSerial:
    def test_word_count_identical(self, parallel):
        job = word_count_job()
        serial_out = SerialExecutor().run(CORPUS, job)
        parallel_out = parallel.run(CORPUS, job)
        assert parallel_out == serial_out
        assert parallel.fallbacks == 0

    def test_output_key_order_is_sorted(self, parallel):
        job = word_count_job()
        keys = [key for key, _count in parallel.run(CORPUS, job)]
        assert keys == sorted(keys)

    def test_sampling_identical_across_backends(self, parallel):
        data = [f"k{i % 7} v{i}" for i in range(300)]
        job = MapReduceJob(
            name="pick",
            mapper=_split_mapper,
            reducer=_tuple_reducer,
            sample_limit=5,
            seed=42,
        )
        assert parallel.run(data, job) == SerialExecutor().run(data, job)

    def test_engine_with_parallel_executor(self, parallel):
        engine = MapReduceEngine(parallel)
        assert dict(engine.run(["a b a", "b c"], word_count_job())) == {
            "a": 2,
            "b": 2,
            "c": 1,
        }


class TestFallbacks:
    def test_unpicklable_reducer_falls_back_to_serial(self, parallel):
        job = MapReduceJob(
            name="closure",
            mapper=_split_mapper,
            reducer=lambda key, values: [(key, sum(values))],  # not picklable
        )
        before = parallel.fallbacks_unpicklable
        before_tiny = parallel.fallbacks_tiny
        out = parallel.run(CORPUS, job)
        assert parallel.fallbacks_unpicklable == before + 1
        assert parallel.fallbacks_tiny == before_tiny
        assert out == SerialExecutor().run(CORPUS, job)

    def test_tiny_group_count_falls_back(self):
        with ParallelExecutor(max_workers=2, min_keys=100) as executor:
            out = executor.run(CORPUS, word_count_job())
            assert executor.fallbacks_tiny == 1
            assert executor.fallbacks_unpicklable == 0
            assert out == SerialExecutor().run(CORPUS, word_count_job())

    def test_fallbacks_sums_all_counters(self):
        executor = ParallelExecutor(max_workers=2)
        executor.fallbacks_tiny = 2
        executor.fallbacks_unpicklable = 3
        assert executor.fallbacks == 5


def _square_shard(items):
    return [item * item for item in items]


def _identity_key(item):
    return item


def _encode_out(value):
    return ("wire", value)


def _decode_out(wire):
    tag, value = wire
    assert tag == "wire"
    return value


def square_map_job(encode=None, decode=None):
    return ShardedMapJob(
        name="square",
        map_shard=_square_shard,
        key_fn=_identity_key,
        encode=encode,
        decode=decode,
    )


class TestShardedMap:
    ITEMS = list(range(37))

    def test_serial_preserves_input_order(self):
        assert SerialExecutor().run_map(self.ITEMS, square_map_job()) == [
            i * i for i in self.ITEMS
        ]

    def test_parallel_identical_to_serial(self, parallel):
        job = square_map_job()
        assert parallel.run_map(self.ITEMS, job) == SerialExecutor().run_map(
            self.ITEMS, job
        )
        assert parallel.fallbacks_tiny == 0

    def test_wire_codec_round_trips(self, parallel):
        job = square_map_job(encode=_encode_out, decode=_decode_out)
        assert parallel.run_map(self.ITEMS, job) == [i * i for i in self.ITEMS]

    def test_serial_path_skips_wire_codec(self):
        # In-process there is no boundary to cross; encode/decode must not run.
        def boom(_value):
            raise AssertionError("codec ran in-process")

        job = square_map_job(encode=boom, decode=boom)
        assert SerialExecutor().run_map(self.ITEMS, job) == [
            i * i for i in self.ITEMS
        ]

    def test_tiny_item_count_falls_back(self):
        with ParallelExecutor(max_workers=2, min_keys=100) as executor:
            out = executor.run_map(self.ITEMS, square_map_job())
            assert out == [i * i for i in self.ITEMS]
            assert executor.fallbacks_tiny == 1

    def test_unpicklable_map_falls_back(self, parallel):
        job = ShardedMapJob(
            name="closure",
            map_shard=lambda items: [i * i for i in items],  # not picklable
            key_fn=_identity_key,
        )
        before = parallel.fallbacks_unpicklable
        assert parallel.run_map(self.ITEMS, job) == [i * i for i in self.ITEMS]
        assert parallel.fallbacks_unpicklable == before + 1

    def test_wrong_output_arity_rejected(self):
        job = ShardedMapJob(
            name="dropper",
            map_shard=lambda items: items[:-1],
            key_fn=_identity_key,
        )
        with pytest.raises(ValueError):
            SerialExecutor().run_map(self.ITEMS, job)


def _offset_shard(items):
    """A shard body that depends on pool-resident state."""
    offset = worker_state("test.offset")
    return [item + offset for item in items]


def offset_map_job():
    return ShardedMapJob(
        name="offset", map_shard=_offset_shard, key_fn=_identity_key
    )


class TestWorkerState:
    ITEMS = list(range(23))

    def test_serial_install_and_cleanup(self):
        executor = SerialExecutor()
        executor.install_state("test.offset", 100)
        assert executor.run_map(self.ITEMS, offset_map_job()) == [
            i + 100 for i in self.ITEMS
        ]
        executor.close()
        with pytest.raises(RuntimeError, match="test.offset"):
            worker_state("test.offset")

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_parallel_state_reaches_workers(self, start_method):
        with ParallelExecutor(max_workers=2, start_method=start_method) as executor:
            executor.install_state("test.offset", 1000)
            assert executor.run_map(self.ITEMS, offset_map_job()) == [
                i + 1000 for i in self.ITEMS
            ]
            assert executor.fallbacks == 0

    def test_missing_state_raises_with_hint(self):
        with pytest.raises(RuntimeError, match="install_state"):
            worker_state("test.never-installed")

    def test_reinstalling_identical_state_keeps_pool(self):
        with ParallelExecutor(max_workers=2) as executor:
            executor.install_state("test.offset", 7)
            executor.run_map(self.ITEMS, offset_map_job())
            pool = executor._pool
            assert pool is not None
            executor.install_state("test.offset", 7)
            assert executor._pool is pool

    def test_new_state_restarts_pool_once(self):
        with ParallelExecutor(max_workers=2) as executor:
            executor.install_state("test.offset", 7)
            executor.run_map(self.ITEMS, offset_map_job())
            first_pool = executor._pool
            executor.install_state("test.offset", 8)
            assert executor._pool is None  # restarted lazily
            assert executor.run_map(self.ITEMS, offset_map_job()) == [
                i + 8 for i in self.ITEMS
            ]
            assert executor._pool is not first_pool

    def test_state_resolves_on_in_process_fallback(self):
        # min_keys forces the tiny fallback: the shard body must still
        # find the state through the parent-side registry.
        with ParallelExecutor(max_workers=2, min_keys=100) as executor:
            executor.install_state("test.offset", 5)
            assert executor.run_map(self.ITEMS, offset_map_job()) == [
                i + 5 for i in self.ITEMS
            ]
            assert executor.fallbacks_tiny == 1

    def test_close_uninstalls_parallel_state(self):
        executor = ParallelExecutor(max_workers=2)
        executor.install_state("test.offset", 7)
        executor.close()
        with pytest.raises(RuntimeError):
            worker_state("test.offset")

    def test_unpicklable_state_degrades_to_in_process(self):
        """State that will not pickle never reaches workers; jobs run
        in-process against the parent registry and are counted, exactly
        like an unpicklable work unit."""
        with ParallelExecutor(max_workers=2) as executor:
            executor.install_state("test.offset", 10)  # lambda-free baseline
            unpicklable = {"offset": 10, "hook": lambda: None}
            executor.install_state("test.unpicklable", unpicklable)
            assert executor.run_map(self.ITEMS, offset_map_job()) == [
                i + 10 for i in self.ITEMS
            ]
            assert executor.fallbacks_unpicklable == 1
            # Replacing the bad state restores real dispatch.
            executor.install_state("test.unpicklable", {"offset": 10})
            assert executor.run_map(self.ITEMS, offset_map_job()) == [
                i + 10 for i in self.ITEMS
            ]
            assert executor.fallbacks_unpicklable == 1

    def test_uninstall_state_drops_key_from_future_pools(self):
        with ParallelExecutor(max_workers=2) as executor:
            executor.install_state("test.offset", 3)
            executor.install_state("test.extra", "heavy")
            executor.uninstall_state("test.extra")
            assert "test.extra" not in executor._state_blobs
            with pytest.raises(RuntimeError):
                worker_state("test.extra")
            assert executor.run_map(self.ITEMS, offset_map_job()) == [
                i + 3 for i in self.ITEMS
            ]

    def test_close_leaves_another_executors_state_alone(self):
        """Later installs win; an earlier executor's close must not tear
        down the value a live executor has since installed."""
        first = SerialExecutor()
        second = SerialExecutor()
        try:
            first.install_state("test.offset", 1)
            second.install_state("test.offset", 2)
            first.close()
            assert worker_state("test.offset") == 2
        finally:
            second.close()


class TestWireCodecLayer:
    def test_job_accepts_codec_object(self, parallel):
        codec = WireCodec(encode=_encode_out, decode=_decode_out)
        job = ShardedMapJob(
            name="square", map_shard=_square_shard, key_fn=_identity_key,
            codec=codec,
        )
        assert parallel.run_map(TestShardedMap.ITEMS, job) == [
            i * i for i in TestShardedMap.ITEMS
        ]

    def test_codec_and_callables_mutually_exclusive(self):
        codec = WireCodec(encode=_encode_out, decode=_decode_out)
        with pytest.raises(ValueError, match="not both"):
            ShardedMapJob(
                name="square", map_shard=_square_shard, key_fn=_identity_key,
                codec=codec, encode=_encode_out,
            )

    def test_scan_payload_types_sees_through_containers(self):
        import numpy as np

        class Marker:
            pass

        payload = {"a": [(1, Marker()), np.arange(3)], ("k",): {2.0}}
        types = scan_payload_types(payload)
        assert Marker in types
        assert int in types and float in types

    def test_scan_payload_types_descends_into_dataclasses(self):
        from dataclasses import dataclass

        class Marker:
            pass

        @dataclass(frozen=True)
        class Spec:
            inner: object

        assert Marker in scan_payload_types(Spec(inner=(Marker(),)))


class TestSharding:
    def test_shard_assignment_is_stable(self):
        keys = ["alpha", ("a", "b"), ("a", "b", "c"), "omega"]
        assignments = [shard_for_key(key, 8) for key in keys]
        assert assignments == [shard_for_key(key, 8) for key in keys]
        assert all(0 <= shard < 8 for shard in assignments)

    def test_all_keys_survive_sharding(self, parallel):
        data = [f"w{i}" for i in range(200)]
        job = MapReduceJob(
            name="identity", mapper=lambda r: [(r, r)], reducer=_tuple_reducer
        )
        # Lambda mapper is fine (maps in-process); reducer must pickle.
        out = dict(parallel.run(data, job))
        assert set(out) == set(data)
