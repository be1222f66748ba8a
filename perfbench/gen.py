"""Seeded input generators for the three workloads.

Everything here is a pure function of the seed: the same seed gives the
same lists, query pools and op sequences, so two runs of one seed do the
same work.  Queries are plain nested tuples (``("and", a, b)``,
``("or", a, b)``, bare term strings) so the generators and the oracles
can be tested without the library; the workloads turn them into the
library's query AST at send time.

Inputs are built from :mod:`repro.datagen` and
:func:`repro.datasets.web.term_document_frequency`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.datagen import list_pair, uniform_list
from repro.datasets.web import term_document_frequency

# ----------------------------------------------------------------------
# paper-codecs
# ----------------------------------------------------------------------
#: Values per list.  Each (distribution, density) cell is one list pair.
CODEC_LIST_SIZE = 3_000
DISTRIBUTIONS = ("uniform", "zipf", "markov")
#: n/d per density: sparse is the paper's inverted-list regime, dense is
#: past its bitmap-wins crossover of n/d = 1/5.
DENSITIES = (("sparse", 50), ("dense", 4))


@dataclass(frozen=True)
class CodecInput:
    distribution: str
    density: str
    domain: int
    a: np.ndarray
    b: np.ndarray


def codec_inputs(seed: int, n: int = CODEC_LIST_SIZE) -> list[CodecInput]:
    """One list pair per (distribution, density) cell."""
    out = []
    for i, dist in enumerate(DISTRIBUTIONS):
        for j, (density, inverse) in enumerate(DENSITIES):
            rng = np.random.default_rng([seed, 1, i, j])
            domain = n * inverse
            a, b = list_pair(dist, n, 1, domain, rng=rng)
            out.append(CodecInput(dist, density, domain, a, b))
    return out


# ----------------------------------------------------------------------
# served-web
# ----------------------------------------------------------------------
WEB_DOCS = 2**21
WEB_SHARDS = 4
WEB_SHARD_DOCS = WEB_DOCS // WEB_SHARDS
#: Terms per shard: the (shard, term) working set is 16x the server's
#: 256-entry decode cache.
WEB_VOCAB = 1_000
#: Document share of the rank-1 term.  Above the Adaptive codec's 1/5
#: density cut, so shard 0's most frequent web list is stored as Roaring
#: and every other list as a SIMD inverted list.
DF_MAX_FRACTION = 0.25
WEB_POOL = 600
WEB_POPULARITY_SKEW = 1.0
#: The query mix (shapes, rank slices, popularity order) is drawn from
#: this fixed stream, so every seed does comparable work; the seed
#: jitters ranks, draws every term's documents and orders the log.
WEB_MIX_SEED = 20170514


def web_term(rank: int) -> str:
    return f"t{rank:04d}"


def shard_name(k: int) -> str:
    return f"shard{k}"


def web_shard_df(rank: int) -> int:
    """Documents of one shard holding the term of this Zipf rank."""
    return term_document_frequency(
        rank, WEB_SHARD_DOCS, df_max_fraction=DF_MAX_FRACTION
    )


def web_lists(seed: int) -> dict[str, dict[str, np.ndarray]]:
    """shard -> term -> sorted global doc ids, over doc-range shards."""
    out: dict[str, dict[str, np.ndarray]] = {}
    for k in range(WEB_SHARDS):
        rng = np.random.default_rng([seed, 2, k])
        base = k * WEB_SHARD_DOCS
        out[shard_name(k)] = {
            web_term(r): uniform_list(web_shard_df(r), WEB_SHARD_DOCS, rng=rng) + base
            for r in range(1, WEB_VOCAB + 1)
        }
    return out


def canonical(query) -> str:
    """Order-insensitive identity of a tuple query (for dedup)."""
    if isinstance(query, str):
        return query
    parts = sorted(canonical(c) for c in query[1:])
    return f"({query[0]} {' '.join(parts)})"


def web_pool(seed: int, size: int = WEB_POOL) -> list:
    """Distinct And / Or / And(Or, t) queries over log-uniform ranks.

    Query ``k`` has shape ``k mod 3``; term slot ``j`` of the ``size``
    queries takes one rank from each of ``size`` equal slices of the
    log-rank range, in an order fixed by ``WEB_MIX_SEED``.  The seed
    jitters each rank within its slice.  A rank repeated inside a query,
    or a query repeated in the pool, moves its last term to the next
    unused rank.
    """
    mix = np.random.default_rng(WEB_MIX_SEED)
    rng = np.random.default_rng([seed, 3])
    log_v = math.log(WEB_VOCAB)
    slots = []
    for _ in range(3):
        u = (mix.permutation(size) + rng.random(size)) / size
        slots.append(np.clip(np.exp(u * log_v).astype(np.int64), 1, WEB_VOCAB))
    pool: list = []
    seen: set[str] = set()
    for k in range(size):
        ranks = [int(s[k]) for s in slots]
        while True:
            for j in (1, 2):
                while ranks[j] in ranks[:j]:
                    ranks[j] = ranks[j] % WEB_VOCAB + 1
            a, b, c = (web_term(r) for r in ranks)
            query = (("and", a, b), ("or", a, b), ("and", ("or", a, b), c))[k % 3]
            key = canonical(query)
            if key not in seen:
                break
            last = 1 if k % 3 < 2 else 2
            ranks[last] = ranks[last] % WEB_VOCAB + 1
        seen.add(key)
        pool.append(query)
    return pool


def web_popularity(pool: list) -> list[int]:
    """Pool indices in popularity order (most popular first).

    The order is a fixed permutation, independent of result size: each
    popularity rank lands on the same query slot for every seed, so
    every seed puts its replays on queries of comparable size.
    """
    return [int(i) for i in np.random.default_rng([WEB_MIX_SEED, 1]).permutation(len(pool))]


def replay_counts(n_ops: int, n_items: int, skew: float) -> np.ndarray:
    """Zipf replay counts summing to ``n_ops`` (largest remainder)."""
    weights = 1.0 / np.arange(1, n_items + 1) ** skew
    exact = n_ops * weights / weights.sum()
    counts = np.floor(exact).astype(np.int64)
    short = n_ops - int(counts.sum())
    counts[np.argsort(-(exact - counts), kind="stable")[:short]] += 1
    return counts


def web_queries(seed: int, n_ops: int, n_logs: int) -> tuple[list, list[list[int]]]:
    """The pool and ``n_logs`` replay logs of ``n_ops`` queries each.

    Popularity rank ``r`` is replayed ``replay_counts`` times over all
    logs — exact Zipf counts rather than i.i.d. draws.  The replays,
    ordered by popularity, are dealt round-robin to the logs, so every
    log gets the same share of each head query and its own slice of the
    tail; each log is then shuffled by the seed.
    """
    pool = web_pool(seed)
    counts = replay_counts(n_ops * n_logs, len(pool), WEB_POPULARITY_SKEW)
    replays = np.repeat(np.array(web_popularity(pool), dtype=np.int64), counts)
    logs = []
    for k in range(n_logs):
        log = replays[k::n_logs].copy()
        np.random.default_rng([seed, 5, k]).shuffle(log)
        logs.append([int(i) for i in log])
    return pool, logs


# ----------------------------------------------------------------------
# cluster-churn
# ----------------------------------------------------------------------
CHURN_SHARDS = 4
CHURN_SHARD_DOCS = 2**16
#: Base terms per shard, plus CHURN_OWN written terms per client per
#: shard: 4 x (48 + 2 x 6) = 240 (shard, term) pairs, inside the
#: 256-entry decode cache.
CHURN_BASE_TERMS = 48
CHURN_OWN = 6
CHURN_CLIENTS = 2
CHURN_INGEST_EVERY = 4
CHURN_OPS_PER_BATCH = 2
CHURN_VALUES_PER_OP = 32


def churn_own_term(client: int, j: int) -> str:
    return f"c{client}w{j}"


def churn_lists(seed: int) -> dict[str, dict[str, np.ndarray]]:
    """The small base store: Zipf base terms plus pre-existing own terms."""
    out: dict[str, dict[str, np.ndarray]] = {}
    for k in range(CHURN_SHARDS):
        rng = np.random.default_rng([seed, 6, k])
        base = k * CHURN_SHARD_DOCS
        terms = {}
        for r in range(1, CHURN_BASE_TERMS + 1):
            df = term_document_frequency(r, CHURN_SHARD_DOCS, df_max_fraction=DF_MAX_FRACTION)
            terms[web_term(r)] = uniform_list(df, CHURN_SHARD_DOCS, rng=rng) + base
        for c in range(CHURN_CLIENTS):
            for j in range(CHURN_OWN):
                n = int(rng.integers(200, 2_000))
                terms[churn_own_term(c, j)] = (
                    uniform_list(n, CHURN_SHARD_DOCS, rng=rng) + base
                )
        out[shard_name(k)] = terms
    return out


@dataclass(frozen=True)
class ChurnOp:
    """One client op: a query (tuple AST) or an ingest batch."""

    kind: str  # "query" | "ingest"
    query: object = None
    #: For queries: True when every term is a base term no client
    #: writes, so the result is checkable against the static oracle.
    static: bool = False
    batch: tuple = ()  # ((op, shard, term, values), ...)


def churn_ops(
    seed: int, n_ops: int, lists: dict[str, dict[str, np.ndarray]]
) -> list[list[ChurnOp]]:
    """Per-client op sequences; one op in four is an ingest batch.

    Each client writes only its own terms, so the final state of every
    written (shard, term) is independent of how the clients interleave.
    Deletes pick values the client's own simulated state holds, so they
    remove real postings.
    """
    base_terms = [web_term(r) for r in range(1, CHURN_BASE_TERMS + 1)]
    per_client = []
    for c in range(CHURN_CLIENTS):
        rng = np.random.default_rng([seed, 7, c])
        state = {
            (s, churn_own_term(c, j)): set(lists[s][churn_own_term(c, j)].tolist())
            for s in lists
            for j in range(CHURN_OWN)
        }
        ops: list[ChurnOp] = []
        for i in range(n_ops // CHURN_CLIENTS):
            if i % CHURN_INGEST_EVERY == CHURN_INGEST_EVERY - 1:
                batch = []
                for _ in range(CHURN_OPS_PER_BATCH):
                    k = int(rng.integers(CHURN_SHARDS))
                    shard = shard_name(k)
                    term = churn_own_term(c, int(rng.integers(CHURN_OWN)))
                    current = state[(shard, term)]
                    if rng.random() < 0.3 and len(current) > CHURN_VALUES_PER_OP:
                        held = np.array(sorted(current))
                        vals = np.sort(rng.choice(held, CHURN_VALUES_PER_OP, replace=False))
                        kind = "del"
                        current.difference_update(vals.tolist())
                    else:
                        vals = np.unique(
                            rng.integers(0, CHURN_SHARD_DOCS, CHURN_VALUES_PER_OP)
                            + k * CHURN_SHARD_DOCS
                        )
                        kind = "add"
                        current.update(vals.tolist())
                    batch.append((kind, shard, term, tuple(int(v) for v in vals)))
                ops.append(ChurnOp("ingest", batch=tuple(batch)))
                continue
            terms = [base_terms[int(t)] for t in rng.choice(len(base_terms), 3, replace=False)]
            static = bool(rng.random() < 0.5)
            if not static:
                terms[0] = churn_own_term(c, int(rng.integers(CHURN_OWN)))
            shape = int(rng.integers(4))
            if shape == 0:
                query = terms[0]
            elif shape == 1:
                query = ("or", terms[0], terms[1])
            elif shape == 2:
                query = ("and", terms[0], terms[1])
            else:
                query = ("and", ("or", terms[0], terms[1]), terms[2])
            ops.append(ChurnOp("query", query=query, static=static))
        per_client.append(ops)
    return per_client
