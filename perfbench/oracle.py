"""Reference answers the workloads check the program against.

All checks run off the clock.  The served oracles compare a cheap
digest — count, sum, first and last value — rather than whole value
lists, so checking a 750k-value answer costs a few milliseconds.
"""

from __future__ import annotations

import numpy as np


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted, duplicate-free arrays (binary search)."""
    if a.size > b.size:
        a, b = b, a
    if a.size == 0:
        return a[:0]
    idx = np.minimum(np.searchsorted(b, a), b.size - 1)
    return a[b[idx] == a]


def union_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union of two sorted, duplicate-free arrays.

    The stable sort of two concatenated sorted runs is a linear merge.
    """
    merged = np.concatenate((a, b))
    merged.sort(kind="stable")
    if merged.size < 2:
        return merged
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def evaluate(query, lists: dict[str, np.ndarray]) -> np.ndarray:
    """Evaluate a tuple query over one shard's term -> sorted array map.

    A term the shard lacks is empty, matching the store's convention.
    """
    if isinstance(query, str):
        return lists.get(query, np.empty(0, dtype=np.int64))
    op, *children = query
    parts = [evaluate(c, lists) for c in children]
    combine = intersect_sorted if op == "and" else union_sorted
    out = parts[0]
    for p in parts[1:]:
        out = combine(out, p)
    return out


def evaluate_sharded(query, shards: dict[str, dict[str, np.ndarray]]) -> np.ndarray:
    """The store's cross-shard answer: the union of per-shard answers."""
    out = np.empty(0, dtype=np.int64)
    for lists in shards.values():
        out = union_sorted(out, evaluate(query, lists).astype(np.int64))
    return out


def digest(values) -> tuple[int, int, int, int]:
    """(count, sum, first, last) of a sorted value sequence."""
    if values is None:
        return (-1, 0, -1, -1)
    n = len(values)
    if n == 0:
        return (0, 0, -1, -1)
    if isinstance(values, np.ndarray):
        total = int(values.sum(dtype=np.int64))
    else:
        total = sum(values)
    return (n, total, int(values[0]), int(values[-1]))


class SetOracle:
    """dict-of-sets model of acknowledged ingest ops."""

    def __init__(self, lists: dict[str, dict[str, np.ndarray]], keys) -> None:
        self.sets = {(s, t): set(lists[s][t].tolist()) for s, t in keys}

    def apply(self, batch) -> None:
        for kind, shard, term, values in batch:
            target = self.sets.setdefault((shard, term), set())
            if kind == "add":
                target.update(values)
            else:
                target.difference_update(values)

    def expected(self, shard: str, term: str) -> np.ndarray:
        return np.array(sorted(self.sets.get((shard, term), ())), dtype=np.int64)


def codec_result_ok(got, want: np.ndarray) -> bool:
    """Exact equality of a codec op's output with the numpy reference."""
    got = np.asarray(got)
    return got.shape == want.shape and bool(np.array_equal(got, want))
