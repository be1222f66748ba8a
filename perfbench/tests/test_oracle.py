"""The oracles on tiny hand-checked inputs."""

import numpy as np

from perfbench.oracle import (
    SetOracle,
    digest,
    evaluate,
    evaluate_sharded,
    intersect_sorted,
    union_sorted,
)

A = np.array([1, 3, 5, 7])
B = np.array([3, 4, 5])
C = np.array([5, 7, 9])


def test_sorted_set_ops():
    assert intersect_sorted(A, B).tolist() == [3, 5]
    assert intersect_sorted(B, A).tolist() == [3, 5]
    assert union_sorted(A, B).tolist() == [1, 3, 4, 5, 7]
    empty = np.empty(0, dtype=np.int64)
    assert intersect_sorted(A, empty).tolist() == []
    assert union_sorted(empty, B).tolist() == [3, 4, 5]
    assert intersect_sorted(np.array([9]), np.array([1, 2])).tolist() == []


def test_evaluate_tuple_queries():
    lists = {"a": A, "b": B, "c": C}
    assert evaluate("a", lists).tolist() == [1, 3, 5, 7]
    assert evaluate("zzz", lists).tolist() == []
    assert evaluate(("and", "a", "b"), lists).tolist() == [3, 5]
    assert evaluate(("or", "b", "c"), lists).tolist() == [3, 4, 5, 7, 9]
    assert evaluate(("and", ("or", "b", "c"), "a"), lists).tolist() == [3, 5, 7]


def test_evaluate_sharded_unions_shards():
    shards = {"s0": {"a": A, "b": B}, "s1": {"a": np.array([100, 101]), "b": np.array([101])}}
    assert evaluate_sharded(("and", "a", "b"), shards).tolist() == [3, 5, 101]
    assert evaluate_sharded("b", shards).tolist() == [3, 4, 5, 101]


def test_digest():
    assert digest([3, 4, 10]) == (3, 17, 3, 10)
    assert digest(np.array([3, 4, 10])) == (3, 17, 3, 10)
    assert digest([]) == (0, 0, -1, -1)
    assert digest(None) == (-1, 0, -1, -1)


def test_set_oracle_applies_acked_ops_in_order():
    oracle = SetOracle({"s0": {"t": np.array([1, 2, 3])}}, [("s0", "t")])
    oracle.apply([("add", "s0", "t", (4, 5)), ("del", "s0", "t", (1, 5))])
    oracle.apply([("add", "s0", "new", (7,))])
    assert oracle.expected("s0", "t").tolist() == [2, 3, 4]
    assert oracle.expected("s0", "new").tolist() == [7]
    assert oracle.expected("s0", "absent").tolist() == []
