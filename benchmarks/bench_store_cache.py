"""Store decode-cache benchmark: warm hits must crush cold decodes.

Tracks the serving-layer win in the perf trajectory: a repeated query
served from the :class:`repro.store.DecodeCache` skips decompression
entirely, so its latency is bounded by merge work, not codec speed.
The assertion test pins the acceptance bar (warm ≥ 5× faster than cold
decode) with plain timing so it runs even without pytest-benchmark;
the ``benchmark``-fixture cases feed the longitudinal numbers.

Every benchmark row carries ``store_backing`` in its ``extra_info``:
the original cases serve from the in-memory posting table, and the
``_mapped`` variants serve the same lists saved to disk and reopened off
a memory-mapped v3 segment, so the longitudinal report can compare the two read paths
directly (cold decodes run off the map zero-copy; warm hits are
identical by construction — the cache holds heap copies either way).
"""

import numpy as np
import pytest

from repro.bench.timing import measure
from repro.datagen import uniform_list
from repro.store import And, DecodeCache, Or, PostingStore, QueryEngine

DOMAIN = 2**21 - 1
LIST_SIZE = 120_000
SEED = 20170514

#: One run-length bitmap, one block list — the two decode profiles.
CODECS = ("WAH", "SIMDBP128*")


def _make_store(codec_name: str) -> PostingStore:
    store = PostingStore()
    shard = store.create_shard("bench", codec=codec_name, universe=DOMAIN)
    rng = np.random.default_rng(SEED)
    shard.add("hot", uniform_list(LIST_SIZE, DOMAIN, rng=rng))
    shard.add("also", uniform_list(LIST_SIZE // 4, DOMAIN, rng=rng))
    return store


def _make_engine(codec_name: str, tmp_path=None, *, mapped: bool = False) -> QueryEngine:
    store = _make_store(codec_name)
    if mapped:
        store.save(tmp_path / "mapped")
        store = PostingStore.load(tmp_path / "mapped")
    return QueryEngine(store, cache=DecodeCache(), cache_probes=True)


def _chill(engine: QueryEngine) -> None:
    """Make the next query fully cold: drop decoded leaves AND cached
    plan results (a plan-cache hit would skip decode entirely)."""
    engine.cache.clear()
    if engine.plan_cache is not None:
        engine.plan_cache.clear()


@pytest.mark.parametrize("codec_name", CODECS)
def test_warm_cache_speedup_at_least_5x(codec_name):
    """Acceptance bar: warm repeated query ≥ 5× faster than cold decode."""
    engine = _make_engine(codec_name)

    def cold():
        _chill(engine)
        assert engine.execute("hot").ok

    def warm():
        assert engine.execute("hot").ok

    cold_s = measure(cold, repeat=3, warmup=1)
    warm()  # populate the cache
    warm_s = measure(warm, repeat=3, warmup=1)
    assert warm_s * 5 <= cold_s, (
        f"{codec_name}: warm {warm_s * 1e3:.3f}ms vs cold {cold_s * 1e3:.3f}ms "
        f"({cold_s / warm_s:.1f}x) — expected >= 5x"
    )


@pytest.mark.parametrize("codec_name", CODECS)
def test_cold_single_term_query(benchmark, codec_name):
    engine = _make_engine(codec_name)

    def cold():
        _chill(engine)
        return engine.execute("hot")

    result = benchmark(cold)
    benchmark.extra_info["n_results"] = int(result.values.size)
    benchmark.extra_info["store_backing"] = "in-heap"


@pytest.mark.parametrize("codec_name", CODECS)
def test_warm_single_term_query(benchmark, codec_name):
    engine = _make_engine(codec_name)
    engine.execute("hot")
    result = benchmark(engine.execute, "hot")
    benchmark.extra_info["n_results"] = int(result.values.size)
    benchmark.extra_info["cache_hit_rate"] = engine.cache.stats().hit_rate
    benchmark.extra_info["store_backing"] = "in-heap"


@pytest.mark.parametrize("codec_name", CODECS)
def test_warm_expression_query(benchmark, codec_name):
    """(hot ∪ also) ∩ hot with every leaf cached: pure merge cost."""
    engine = _make_engine(codec_name)
    expr = And(Or("hot", "also"), "hot")
    engine.execute(expr)
    result = benchmark(engine.execute, expr)
    benchmark.extra_info["n_results"] = int(result.values.size)
    benchmark.extra_info["store_backing"] = "in-heap"


@pytest.mark.parametrize("codec_name", CODECS)
def test_cold_single_term_query_mapped(benchmark, codec_name, tmp_path):
    """Cold decode straight off the v3 map — codec parse on a zero-copy
    view, decoded result defensively copied to the heap."""
    engine = _make_engine(codec_name, tmp_path, mapped=True)

    def cold():
        _chill(engine)
        return engine.execute("hot")

    result = benchmark(cold)
    benchmark.extra_info["n_results"] = int(result.values.size)
    benchmark.extra_info["store_backing"] = "mapped"


@pytest.mark.parametrize("codec_name", CODECS)
def test_warm_single_term_query_mapped(benchmark, codec_name, tmp_path):
    engine = _make_engine(codec_name, tmp_path, mapped=True)
    engine.execute("hot")
    result = benchmark(engine.execute, "hot")
    benchmark.extra_info["n_results"] = int(result.values.size)
    benchmark.extra_info["cache_hit_rate"] = engine.cache.stats().hit_rate
    benchmark.extra_info["store_backing"] = "mapped"


@pytest.mark.parametrize("codec_name", CODECS)
def test_mapped_matches_in_heap_results(codec_name, tmp_path):
    """The two backings must serve identical values — the bench compares
    latency of equal work, never different answers."""
    heap_engine = _make_engine(codec_name)
    mapped_engine = _make_engine(codec_name, tmp_path, mapped=True)
    expr = And(Or("hot", "also"), "hot")
    a, b = heap_engine.execute(expr), mapped_engine.execute(expr)
    assert a.ok and b.ok
    assert np.array_equal(a.values, b.values)
