"""Property-based v3 (memory-mapped) round trips across every codec.

The mapped battery's core invariant: writing random posting sets in the
v3 segment layout and reopening them via ``mmap`` must be **bit-exact**
against independent references —

* the original in-memory arrays (the numpy differential oracle);
* the cache-aware served decode path (``decode_term``) of the same
  store held in memory, mapped vs not;
* a store written in the retired v1/v2 per-term layouts and migrated.

Codecs sweep the whole registry plus ``Adaptive``, so all 24 wire
formats parse off an aligned zero-copy view.  A second suite checks the
zero-copy claim itself: no per-term Python parsing at open (open cost
is independent of term count) and decoded arrays never alias writable
mapped memory.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import all_codec_names
from repro.core.decode import decode
from repro.core.registry import get_codec
from repro.core.serialize import dumps
from repro.store.mapped import (
    MappedIntegerSet,
    MappedPostings,
    MappedSegment,
    write_mapped_segment,
)
from repro.store.store import PostingStore, migrate_store
from tests.store.legacy_store import save_legacy

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

UNIVERSE = 1 << 14

ALL_CODECS = sorted(all_codec_names()) + ["Adaptive"]


@st.composite
def posting_tables(draw):
    """term → sorted unique ids, with adversarial shapes mixed in."""
    n_terms = draw(st.integers(1, 6))
    table = {}
    for i in range(n_terms):
        shape = draw(st.sampled_from(["sparse", "dense_run", "edge"]))
        if shape == "sparse":
            vals = draw(
                st.lists(
                    st.integers(0, UNIVERSE - 1),
                    min_size=1,
                    max_size=60,
                    unique=True,
                )
            )
        elif shape == "dense_run":
            start = draw(st.integers(0, UNIVERSE - 200))
            vals = list(range(start, start + draw(st.integers(1, 150))))
        else:
            vals = draw(
                st.sampled_from([[0], [UNIVERSE - 1], [0, UNIVERSE - 1]])
            )
        table[f"term{i:02d}"] = np.array(sorted(vals), dtype=np.int64)
    return table


def _build_store(codec: str, table) -> PostingStore:
    store = PostingStore()
    store.create_shard("s0", codec=codec, universe=UNIVERSE)
    for term, vals in table.items():
        store.add_list("s0", term, vals)
    return store


@pytest.mark.parametrize("codec", ALL_CODECS)
@SETTINGS
@given(table=posting_tables())
def test_mapped_store_is_bit_exact_for_every_codec(codec, table, tmp_path_factory):
    """v3 load == in-memory store == original arrays, for all 24 codecs
    + Adaptive."""
    tmp = tmp_path_factory.mktemp("mapped")
    store = _build_store(codec, table)
    store.save(tmp / "v3")

    mapped = PostingStore.load(tmp / "v3")
    assert isinstance(mapped.shard("s0").postings, MappedPostings)

    for term, vals in table.items():
        off_map = mapped.decode_term("s0", term)
        in_heap = store.decode_term("s0", term)
        assert np.array_equal(off_map, vals), (codec, term)
        assert np.array_equal(off_map, in_heap), (codec, term)

    # Aggregate metadata answers off the entry table, not per-term parses.
    assert mapped.shard("s0").n_postings == store.shard("s0").n_postings
    assert mapped.shard("s0").size_bytes == store.shard("s0").size_bytes


@pytest.mark.parametrize("codec", ["Roaring", "WAH", "GroupVB", "Adaptive"])
@SETTINGS
@given(table=posting_tables(), version=st.sampled_from([1, 2]))
def test_migration_preserves_every_list(codec, table, version, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("migrate")
    store = _build_store(codec, table)
    save_legacy(store, tmp, version=version)
    summary = migrate_store(tmp)
    assert not summary["already_mapped"]
    assert summary["terms"] == len(table)
    assert summary["removed_files"] == len(table)

    reopened = PostingStore.load(tmp)
    assert isinstance(reopened.shard("s0").postings, MappedPostings)
    for term, vals in table.items():
        assert np.array_equal(reopened.decode_term("s0", term), vals)
        # Bit-exact: the migrated blob is the one the codec produced.
        mapped_cs = reopened.shard("s0").postings[term]
        assert bytes(mapped_cs.raw_blob) == dumps(
            store.shard("s0").postings[term], aligned=True
        )


@pytest.mark.parametrize("codec", ALL_CODECS)
def test_migration_is_bit_exact_for_every_codec(codec, tmp_path):
    table = {
        "dense": np.arange(100, 2_100, dtype=np.int64),
        "sparse": np.arange(0, UNIVERSE, 97, dtype=np.int64),
        "edge": np.array([0, UNIVERSE - 1], dtype=np.int64),
    }
    store = _build_store(codec, table)
    save_legacy(store, tmp_path)
    migrate_store(tmp_path)
    reopened = PostingStore.load(tmp_path)
    for term, vals in table.items():
        assert np.array_equal(reopened.decode_term("s0", term), vals), term
        assert bytes(reopened.shard("s0").postings[term].raw_blob) == dumps(
            store.shard("s0").postings[term], aligned=True
        ), term


def test_legacy_store_is_rejected_outside_migration(tmp_path):
    """Every reader but migrate_store refuses v1/v2 and names the fix."""
    from repro.api import connect
    from repro.core.errors import ReproError
    from repro.store.segments import WritablePostingStore

    for version in (1, 2):
        directory = tmp_path / f"v{version}"
        save_legacy(_build_store("Roaring", {"t": np.arange(5)}), directory, version=version)
        for opener in (
            PostingStore.load,
            connect,
            lambda d: connect(d, writable=True),
            WritablePostingStore.open,
        ):
            with pytest.raises(ReproError, match="migrate") as info:
                opener(str(directory))
            assert "python -m repro.store migrate" in str(info.value)
        # Nothing was converted or deleted on the way.
        assert json.loads((directory / "manifest.json").read_text())["version"] == version
        assert (directory / "s0" / "000000.rpro").exists()
        assert not list(directory.rglob("*.rpro3"))
        assert migrate_store(directory)["terms"] == 1


# ----------------------------------------------------------------------
# Zero-copy contract
# ----------------------------------------------------------------------
def _segment_for(codec_name: str, table, path) -> MappedSegment:
    codec = get_codec(codec_name)
    items = [
        (t, codec.compress(v, universe=UNIVERSE)) for t, v in table.items()
    ]
    write_mapped_segment(path, items)
    return MappedSegment.open(path)


def test_materialized_sets_are_views_over_the_map(tmp_path):
    table = {"a": np.arange(0, 500, 3), "b": np.array([7, 9, UNIVERSE - 1])}
    seg = _segment_for("EWAH", table, tmp_path / "seg.rpro3")
    mp = MappedPostings(seg)
    cs = mp["a"]
    assert isinstance(cs, MappedIntegerSet)
    assert cs.source is seg
    # Payload arrays are zero-copy: read-only views, not heap copies.
    words = cs.payload
    assert isinstance(words, np.ndarray)
    assert not words.flags.owndata
    assert not words.flags.writeable
    # ...but the decode chokepoint hands out an owned array, so results
    # outlive the segment unconditionally.
    out = decode(cs)
    assert out.flags.owndata or out.base is None
    assert np.array_equal(out, table["a"])


def test_open_does_no_per_term_parsing(tmp_path):
    """Opening must not materialise terms; only access does."""
    table = {
        f"t{i:04d}": np.sort(
            np.random.default_rng(i).choice(UNIVERSE, size=50, replace=False)
        )
        for i in range(200)
    }
    seg = _segment_for("Roaring", table, tmp_path / "big.rpro3")
    mp = MappedPostings(seg)
    assert len(mp._materialized) == 0  # nothing parsed at open
    mp["t0100"]
    assert len(mp._materialized) == 1  # exactly the accessed term
    assert mp.total_postings() == 200 * 50  # aggregates stay lazy too
    assert len(mp._materialized) == 1


def test_term_lookup_is_sorted_binary_search(tmp_path):
    """Names are sorted by UTF-8 encoding; find() honours that order."""
    names = ["aa", "ab", "z", "éclair", "中文", "0", "~"]
    table = {n: np.array([1, 2, 3]) for n in names}
    seg = _segment_for("List", table, tmp_path / "names.rpro3")
    stored = [seg.term_at(i) for i in range(seg.term_count)]
    assert stored == sorted(names, key=lambda s: s.encode("utf-8"))
    for n in names:
        assert seg.find(n) is not None, n
    assert seg.find("missing") is None


def test_rewrite_fast_path_is_byte_identical(tmp_path):
    """Copying a mapped term into a new segment reuses the raw blob."""
    table = {"x": np.arange(100), "y": np.array([5, 10, 15])}
    seg = _segment_for("BBC", table, tmp_path / "one.rpro3")
    mp = MappedPostings(seg)
    write_mapped_segment(tmp_path / "two.rpro3", mp.items())
    seg2 = MappedSegment.open(tmp_path / "two.rpro3")
    for term in table:
        a, b = seg.find(term), seg2.find(term)
        assert bytes(seg.raw_blob(a)) == bytes(seg2.raw_blob(b))


def test_mapped_shard_rejects_mutation(tmp_path):
    from repro.store.errors import MappedSegmentError

    seg = _segment_for("WAH", {"a": np.array([1])}, tmp_path / "ro.rpro3")
    mp = MappedPostings(seg)
    with pytest.raises(MappedSegmentError):
        mp["b"] = mp["a"]
    with pytest.raises(MappedSegmentError):
        del mp["a"]


def test_migration_folds_pending_wal_and_is_idempotent(tmp_path):
    """A legacy writable store closed mid-stream keeps every logged op:
    migration replays the WAL over the migrated base, then compacts."""
    from repro.store.wal import OP_ADD, OP_DELETE, WriteAheadLog

    save_legacy(_build_store("WAH", {"t": np.arange(0, 100, 10)}), tmp_path)
    wal = WriteAheadLog(tmp_path / "wal-000001.log")
    wal.append({"op": OP_ADD, "shard": "s0", "term": "t", "values": [5, 95]})
    wal.append({"op": OP_DELETE, "shard": "s0", "term": "t", "values": [0]})
    wal.append({"op": OP_ADD, "shard": "s0", "term": "fresh", "values": [3]})
    wal.close()

    summary = migrate_store(tmp_path)
    assert not summary["already_mapped"]
    assert summary["terms"] == 2 and summary["removed_files"] == 1
    assert not (tmp_path / "wal-000001.log").exists()  # folded, then truncated
    assert not list(tmp_path.rglob("*.rpro"))

    store = PostingStore.load(tmp_path)
    expected = sorted({*range(10, 100, 10), 5, 95})
    assert store.decode_term("s0", "t").tolist() == expected
    assert store.decode_term("s0", "fresh").tolist() == [3]

    again = migrate_store(tmp_path)
    assert again["already_mapped"] and again["terms"] == 2
    assert PostingStore.load(tmp_path).decode_term("s0", "t").tolist() == expected


def test_resave_into_the_directory_it_was_loaded_from(tmp_path):
    """``load(d).save(d)`` rewrites segments its own postings still view;
    the writer replaces the file by rename, never truncating it in place."""
    table = {"a": np.arange(0, 5_000, 3), "b": np.arange(7, 9_000, 11)}
    _build_store("Roaring", table).save(tmp_path)
    loaded = PostingStore.load(tmp_path)
    held = {t: loaded.shard("s0").postings[t] for t in table}  # live views
    loaded.save(tmp_path)
    for term, vals in table.items():
        assert np.array_equal(decode(held[term]), vals)
        assert np.array_equal(PostingStore.load(tmp_path).decode_term("s0", term), vals)
    assert not list(tmp_path.rglob("*.tmp"))
