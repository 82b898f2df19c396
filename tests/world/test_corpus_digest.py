"""Golden corpus digests and the streaming parity anchor.

Page generation is a long chain of seeded draws; any change to how a
draw is made (a cache, an index, a reordered loop) may move every later
page without failing a structural test.  These digests freeze, for a
``tiny`` and the ``small`` seed-0 scenario, a SHA-256 over every page's
``(url, site, category, assertions, elements)`` and over the Freebase
snapshot in insertion order.  A speed-up to worldgen must leave them
unchanged; an intended change to the corpus definition re-derives them
with :func:`corpus_digests` and says so in the commit message.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.datasets import small_config, tiny_config
from repro.world.facts import build_freebase_snapshot
from repro.world.webgen import generate_corpus, stream_corpus
from repro.world.worldgen import generate_world

#: ``(pages, freebase)`` SHA-256 hex digests per ``(preset, seed)``.
GOLDEN = {
    ("tiny", 7): (
        "31a4fce9261004900d2e9856d2e952337cea5ea955857369b0b13b233785a959",
        "a928437d008ce5fe9c251bed40658e17030783a071e0da7d06a5ecf6d53ba09f",
    ),
    ("small", 0): (
        "cd21eb484a135a8fe4f066de8eb51389bbc650e6a48d6d1d55807c8e79df5919",
        "661bda1dc69911a933d7a90f840ac645392c2cb6c9b957fbbe68aec317b44149",
    ),
}

_PRESETS = {"tiny": tiny_config, "small": small_config}


def page_digest(pages) -> str:
    digest = hashlib.sha256()
    for page in pages:
        material = (page.url, page.site, page.category, page.assertions, page.elements)
        digest.update(repr(material).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def freebase_digest(snapshot) -> str:
    digest = hashlib.sha256()
    for item in snapshot.data_items():
        for triple in snapshot.triples_for(item):
            digest.update(triple.canonical().encode())
            digest.update(b"\n")
    return digest.hexdigest()


def corpus_digests(preset: str, seed: int) -> tuple[str, str]:
    """Build the scenario's world, Freebase snapshot and corpus, as
    :func:`repro.artifacts.setup_worldgen` does, and digest them."""
    config = _PRESETS[preset](seed)
    world = generate_world(config.world, seed)
    freebase = build_freebase_snapshot(world)
    corpus = generate_corpus(world, config.web, seed)
    return page_digest(corpus.pages), freebase_digest(freebase)


@pytest.mark.parametrize("preset,seed", sorted(GOLDEN))
def test_corpus_and_freebase_digests_frozen(preset, seed):
    pages, freebase = corpus_digests(preset, seed)
    assert (pages, freebase) == GOLDEN[(preset, seed)]


@pytest.mark.parametrize("chunk_pages", [7, 32])
def test_unbounded_stream_equals_generated_corpus(chunk_pages):
    config = tiny_config(seed=7)
    world = generate_world(config.world, config.seed)
    expected = generate_corpus(world, config.web, config.seed).pages
    chunks = list(
        stream_corpus(
            world, config.web, config.seed, chunk_pages=chunk_pages, copy_window=None
        )
    )
    assert all(len(chunk) == chunk_pages for chunk in chunks[:-1])
    assert 0 < len(chunks[-1]) <= chunk_pages
    assert [page for chunk in chunks for page in chunk] == expected
