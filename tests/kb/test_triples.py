"""Unit tests for triples and data items."""

import json
import os
import pickle
import pickletools
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.artifacts import _dumps, _fast_fields
from repro.kb.triples import DataItem, Triple
from repro.kb.values import DateValue, EntityRef, NumberValue, StringValue


@pytest.fixture
def triple():
    return Triple("/m/07r1h", "people/person/birth_date", DateValue("1962-07-03"))


class TestTriple:
    def test_data_item(self, triple):
        assert triple.data_item == DataItem("/m/07r1h", "people/person/birth_date")

    def test_canonical_roundtrip(self, triple):
        assert Triple.from_canonical(triple.canonical()) == triple

    def test_from_canonical_rejects_malformed(self):
        with pytest.raises(ValueError):
            Triple.from_canonical("only|two")

    def test_hashable(self, triple):
        clone = Triple.from_canonical(triple.canonical())
        assert len({triple, clone}) == 1

    def test_ordering_handles_mixed_value_kinds(self):
        a = Triple("/m/1", "p", EntityRef("/m/2"))
        b = Triple("/m/1", "p", StringValue("raw"))
        assert sorted([b, a]) == sorted([a, b])

    def test_ordering_is_canonical_order(self):
        a = Triple("/m/1", "p", StringValue("a"))
        b = Triple("/m/1", "p", StringValue("b"))
        assert a < b
        assert b > a
        assert a <= a and a >= a

    def test_comparison_with_non_triple_raises(self, triple):
        with pytest.raises(TypeError):
            _ = triple < 42


def _all_kinds() -> list[Triple]:
    return [
        Triple("/m/1", "p", EntityRef("/m/2")),
        Triple("/m/1", "p", StringValue("raw")),
        Triple("/m/1", "p", NumberValue(1986.5)),
        Triple("/m/1", "p", DateValue("1962-07-03")),
    ]


# Runs in a child process under another PYTHONHASHSEED: loads the stock
# and the artifact pickles, the latter with ``__setstate__`` disabled so
# only the constructor reduction can rebuild it, and probes dicts keyed
# both ways with freshly built equal triples.
_CHILD = """
import json, pickle, sys
from repro.kb.triples import Triple

stock, artifact, parent_hashes = sys.argv[1:4]
with open(stock, "rb") as f:
    from_stock = pickle.load(f)

def no_setstate(self, state):
    raise AssertionError("artifact load fell back to __setstate__")

Triple.__setstate__ = no_setstate
with open(artifact, "rb") as f:
    from_artifact = pickle.load(f)

report = {"hash_moved": [], "found": []}
with open(parent_hashes) as f:
    hashes = json.load(f)
for loaded, parent_hash in zip(from_stock + from_artifact, hashes + hashes):
    fresh = Triple(loaded.subject, loaded.predicate, loaded.obj)
    report["hash_moved"].append(hash(fresh) != parent_hash)
    report["found"].append(
        {fresh: 1}.get(loaded) == 1 and {loaded: 1}.get(fresh) == 1
    )
print(json.dumps(report))
"""


class TestKeyCachePickling:
    """The cached hash is per-process and must never cross a pickle."""

    def _warm(self) -> list[Triple]:
        warm = _all_kinds()
        for triple in warm:
            hash(triple)
            triple.canonical()
            _ = triple < warm[0]
        return warm

    def test_caches_do_not_change_pickled_bytes(self):
        warm, cold = self._warm(), _all_kinds()
        assert pickle.dumps(warm) == pickle.dumps(cold)
        assert _dumps(warm) == _dumps(cold)

    def test_loaded_triple_rebuilds_its_caches(self):
        for payload in (pickle.dumps(self._warm()), _dumps(self._warm())):
            for triple in pickle.loads(payload):
                assert not hasattr(triple, "_hash")
                assert not hasattr(triple, "_canonical")

    def test_artifact_pickle_stays_on_the_constructor_path(self, monkeypatch):
        assert _fast_fields(Triple) == ("subject", "predicate", "obj")
        payload = _dumps(self._warm())
        # Stock pickling of a slotted dataclass rebuilds it with a BUILD
        # opcode (``__setstate__``); the artifact pickler must not.
        opcodes = {op.name for op, _, _ in pickletools.genops(payload)}
        assert "BUILD" not in opcodes

        def no_setstate(self, state):
            raise AssertionError("artifact load fell back to __setstate__")

        monkeypatch.setattr(Triple, "__setstate__", no_setstate)
        assert pickle.loads(payload) == _all_kinds()

    def test_loads_under_another_hash_seed(self, tmp_path):
        warm = self._warm()
        (tmp_path / "stock.pkl").write_bytes(pickle.dumps(warm))
        (tmp_path / "artifact.pkl").write_bytes(_dumps(warm))
        (tmp_path / "hashes.json").write_text(json.dumps([hash(t) for t in warm]))
        seed = os.environ.get("PYTHONHASHSEED", "")
        child_seed = str(int(seed) + 1) if seed.isdigit() else "1"
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(
            os.environ,
            PYTHONHASHSEED=child_seed,
            PYTHONPATH=os.pathsep.join(
                [src, *filter(None, [os.environ.get("PYTHONPATH")])]
            ),
        )
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                _CHILD,
                str(tmp_path / "stock.pkl"),
                str(tmp_path / "artifact.pkl"),
                str(tmp_path / "hashes.json"),
            ],
            env=env,
            capture_output=True,
            text=True,
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
        report = json.loads(completed.stdout)
        # Different hash seeds: a pickled parent hash would be stale here.
        assert all(report["hash_moved"])
        assert all(report["found"])


class TestDataItem:
    def test_canonical(self):
        assert DataItem("/m/1", "p").canonical() == "/m/1|p"

    def test_ordering(self):
        assert DataItem("/m/1", "a") < DataItem("/m/1", "b") < DataItem("/m/2", "a")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DataItem("/m/1", "p").subject = "/m/2"
