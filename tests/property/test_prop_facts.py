"""Property tests for the string wrong-value peer selection.

``World._string_peer`` replaces a scan of every truth in the world with a
per-world index.  The scan it replaced is kept here as the reference: for
any truth set and any excluded text, both must agree on the number of
peers and, for every draw ``k``, on the peer chosen.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kb.entities import EntityRegistry
from repro.kb.triples import DataItem
from repro.kb.values import NumberValue, StringValue
from repro.world.facts import World

TEXTS = ("alpha", "beta", "gamma", "delta")

value = st.one_of(
    st.sampled_from(TEXTS).map(StringValue),
    st.integers(0, 9).map(lambda n: NumberValue(float(n))),
)
truth_lists = st.lists(st.lists(value, min_size=1, max_size=4), max_size=12)


def make_world(values_per_item) -> World:
    truths = {
        DataItem(f"/m/{index:03d}", "p/q/r"): tuple(values)
        for index, values in enumerate(values_per_item)
    }
    return World(
        config=None,
        master_seed=0,
        schema=None,
        specs=(),
        entities=EntityRegistry(),
        hierarchy=None,
        truths=truths,
        popularity={},
    )


def reference_peers(world: World, text: str) -> list:
    """The O(|truths|) comprehension the index replaced."""
    return [
        v
        for vs in world.truths.values()
        for v in vs
        if isinstance(v, StringValue) and v.text != text
    ]


class FixedDraw:
    """A stand-in generator whose ``integers`` returns a chosen ``k``."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.bounds: list[int] = []

    def integers(self, n: int) -> int:
        self.bounds.append(n)
        return self.k


class TestStringPeer:
    @given(truth_lists, st.sampled_from(TEXTS))
    @example([[StringValue("alpha")], [StringValue("alpha"), NumberValue(1.0)]], "alpha")
    @example([[NumberValue(2.0)]], "alpha")
    @settings(max_examples=200, deadline=None)
    def test_every_draw_selects_the_reference_peer(self, values_per_item, text):
        world = make_world(values_per_item)
        peers = reference_peers(world, text)
        if not peers:
            draw = FixedDraw(0)
            assert world._string_peer(text, draw) == StringValue(text + "s")
            assert draw.bounds == []
            return
        for k in range(len(peers)):
            draw = FixedDraw(k)
            assert world._string_peer(text, draw) is peers[k]
            assert draw.bounds == [len(peers)]

    @given(truth_lists, st.sampled_from(TEXTS), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_generator_stream_matches_reference(self, values_per_item, text, seed):
        world = make_world(values_per_item)
        peers = reference_peers(world, text)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            got = world._string_peer(text, ours)
            want = peers[int(theirs.integers(len(peers)))] if peers else StringValue(text + "s")
            assert got == want
        assert ours.random() == theirs.random()
