"""The generators are pure functions of the seed."""

import numpy as np

from perfbench import gen


def _same_lists(x, y) -> bool:
    return x.keys() == y.keys() and all(
        x[s].keys() == y[s].keys() and all(np.array_equal(x[s][t], y[s][t]) for t in x[s])
        for s in x
    )


def test_codec_inputs_deterministic_per_seed():
    a, b, c = gen.codec_inputs(3, n=400), gen.codec_inputs(3, n=400), gen.codec_inputs(4, n=400)
    assert len(a) == len(gen.DISTRIBUTIONS) * len(gen.DENSITIES)
    for x, y in zip(a, b):
        assert np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b)
    assert any(not np.array_equal(x.a, z.a) for x, z in zip(a, c))
    for cell in a:
        assert cell.a.size == 400 and np.all(np.diff(cell.a) > 0) and cell.a[-1] < cell.domain


def test_web_inputs_deterministic_per_seed():
    pool1, logs1 = gen.web_queries(5, 300, 3)
    assert (pool1, logs1) == gen.web_queries(5, 300, 3)
    assert (pool1, logs1) != gen.web_queries(6, 300, 3)
    assert len(logs1) == 3
    for log in logs1:
        assert len(log) == 300 and all(0 <= i < len(pool1) for i in log)
    # The most popular query is replayed equally often in every log.
    head = gen.web_popularity(pool1)[0]
    assert len({log.count(head) for log in logs1}) == 1
    assert len({gen.canonical(q) for q in pool1}) == len(pool1)


def test_web_lists_deterministic_and_doc_ranged():
    x, y = gen.web_lists(2), gen.web_lists(2)
    assert _same_lists(x, y)
    assert len(x) == gen.WEB_SHARDS
    for k, terms in enumerate(x.values()):
        assert len(terms) == gen.WEB_VOCAB
        top = terms[gen.web_term(1)]
        assert top[0] >= k * gen.WEB_SHARD_DOCS and top[-1] < (k + 1) * gen.WEB_SHARD_DOCS


def test_churn_inputs_deterministic_and_disjoint_writers():
    lists = gen.churn_lists(9)
    assert _same_lists(lists, gen.churn_lists(9))
    ops1 = gen.churn_ops(9, 200, lists)
    assert ops1 == gen.churn_ops(9, 200, lists)
    assert ops1 != gen.churn_ops(10, 200, lists)
    for c, ops in enumerate(ops1):
        kinds = [op.kind for op in ops]
        assert kinds.count("ingest") == len(ops) // gen.CHURN_INGEST_EVERY
        for op in ops:
            for _kind, shard, term, values in op.batch:
                assert term.startswith(f"c{c}w")
                k = int(shard.removeprefix("shard"))
                assert all(k * gen.CHURN_SHARD_DOCS <= v < (k + 1) * gen.CHURN_SHARD_DOCS for v in values)


def test_replay_counts_exact_zipf():
    counts = gen.replay_counts(1000, 50, 1.0)
    assert counts.sum() == 1000
    assert np.all(np.diff(counts) <= 0)


def test_query_mix_is_fixed_across_seeds():
    pool1, pool2 = gen.web_pool(1), gen.web_pool(2)
    assert [q[0] for q in pool1] == [q[0] for q in pool2]
    assert gen.web_popularity(pool1) == gen.web_popularity(pool2)
    assert sorted(gen.web_popularity(pool1)) == list(range(len(pool1)))
    for q in pool1:
        terms = [q[1], q[2]] if q[0] == "or" or isinstance(q[1], str) else [*q[1][1:], q[2]]
        assert len(set(terms)) == len(terms)
