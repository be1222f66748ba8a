"""served-web: a closed loop of 2 HTTP clients against ``python -m repro.server``.

The server runs with its shipped defaults over a saved, read-only v3
store: 4 doc-range shards of a 2^21-document Zipf web corpus, about
1,000 terms each, compressed with the ``Adaptive`` codec.  The query
log replays a pool of distinct And / Or / And(Or, t) queries with Zipf
popularity, so the plan-result cache sees repeats while the
(shard, term) working set far exceeds the 256-entry decode cache.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
from repro.api import connect
from repro.server.protocol import QueryResponse, response_from_result
from repro.store.plan import And, Or, Term, canonicalize, compile_shard_plan, parse_query
from repro.store.store import PostingStore

from perfbench import gen
from perfbench.common import (
    Processes,
    Record,
    median,
    percentile,
    ratio,
    save_v3,
    scratch_dir,
)
from perfbench.oracle import digest, evaluate_sharded

#: Queries per second of ``--seconds``.  At ``--seconds 15`` that is
#: five passes, 1,000 queries, so ``query_p99_ms`` has ten samples
#: beyond it; the passes take about 20 s on a 2-core x86 box.
OPS_PER_SECOND = 67
#: Queries per pass.  A run sends one untimed warm-up pass and then
#: ``round(seconds * OPS_PER_SECOND / PASS_OPS)`` measured passes.
PASS_OPS = 200
SETUP_REPEATS = 3
CLIENTS = 2
CLIENT_TIMEOUT_S = 60.0
OPEN_REPEATS = 5
#: The served stores' codec: the paper's density rule per list.
CODEC = "Adaptive"
#: Per-layer metrics this workload measures in a traced run.
LAYERS = frozenset(
    (
        "plan.compile_ms", "engine.execute_ms", "protocol.response_ms",
        "protocol.encode_ms", "client.decode_ms", "wire.bytes_per_value",
        "server.outside_engine_ms", "cache.decode_hit_ratio", "cache.plan_hit_ratio",
        "cache.evictions_per_query", "exec.compressed_ratio", "mapped.open_ms",
        "store.compress_s", "trace.overhead_ms", "query_samples", "error_rate",
    )
)


def to_ast(query):
    """Tuple query -> the library's AST."""
    if isinstance(query, str):
        return Term(query)
    cls = And if query[0] == "and" else Or
    return cls(*(to_ast(c) for c in query[1:]))


def build_store(lists, shard_docs: int):
    """Compress every list under ``CODEC`` into a fresh store; (store, seconds).

    Shard ``k`` holds global doc ids in ``[k, k + 1) * shard_docs`` and
    is created with that range's end as its universe.
    """
    t0 = time.perf_counter()
    store = PostingStore()
    for k, (shard, terms) in enumerate(lists.items()):
        sh = store.create_shard(shard, codec=CODEC, universe=(k + 1) * shard_docs)
        for term, values in terms.items():
            sh.add(term, values)
    return store, time.perf_counter() - t0


def store_bits_per_int(store) -> float:
    stats = store.stats()
    postings = sum(s["postings"] for s in stats["shards"].values())
    return 8 * stats["total_size_bytes"] / postings


def closed_loop(url: str, per_client: list[list], send, check, rec: Record):
    """Run each client's op list on its own thread and connection.

    ``send(target, op)`` returns ``(kind, ok, n_values, response)``;
    ``check(op, response)`` runs off the clock.  Returns the samples as
    ``(kind, client_ms, n_values, response_latency_ms)`` and the loop's
    wall time.  No retries: every failure counts.
    """
    lock = threading.Lock()
    samples: list[tuple[str, float, int, float]] = []
    errors: list[BaseException] = []

    def client(ops) -> None:
        try:
            with connect(url, max_retries=0, timeout_s=CLIENT_TIMEOUT_S) as target:
                for op in ops:
                    t0 = time.perf_counter()
                    try:
                        kind, ok, n, resp = send(target, op)
                    except Exception as exc:  # a failed op, not a crash
                        kind, ok, n, resp = "error", False, 0, None
                        with lock:
                            rec.detail.setdefault("errors", []).append(
                                f"{type(exc).__name__}: {exc}"
                            )
                    ms = (time.perf_counter() - t0) * 1e3
                    if ok:
                        check(op, resp)
                    server_ms = getattr(resp, "latency_ms", 0.0) if resp else 0.0
                    with lock:
                        rec.attempted += 1
                        rec.failed += 0 if ok else 1
                        samples.append((kind, ms, n, server_ms))
        except BaseException as exc:  # surfaced by the caller
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(ops,)) for ops in per_client]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return samples, wall


def split(log: list) -> list[list]:
    """Deal a log round-robin to the clients."""
    return [log[c::CLIENTS] for c in range(CLIENTS)]


def loop_metrics(samples, wall: float) -> dict[str, float]:
    """Query latency and throughput of one closed-loop pass."""
    queries = [s for s in samples if s[0] == "query"]
    ms = [s[1] for s in queries]
    return {
        "query_p50_ms": percentile(ms, 50),
        "query_p99_ms": percentile(ms, 99),
        "query_qps": len(queries) / wall,
        "values_per_s": sum(s[2] for s in queries) / wall,
        "server.outside_engine_ms": median(s[1] - s[3] for s in queries),
    }


def pass_metrics(rec: Record, per_pass) -> None:
    """Each loop metric is the median over passes, so a pass that ran
    while the machine was busy with other work does not set it.
    ``query_p99_ms`` is taken over all passes' samples pooled, so it
    keeps at least ten samples beyond it."""
    by_pass = [loop_metrics(samples, wall) for samples, wall in per_pass]
    for name in by_pass[0]:
        rec.metrics[name] = median(p[name] for p in by_pass)
    pooled = [s[1] for samples, _ in per_pass for s in samples if s[0] == "query"]
    rec.metrics["query_p99_ms"] = percentile(pooled, 99)
    rec.metrics["query_samples"] = len(pooled)
    rec.detail["passes"] = by_pass
    rec.detail["loop_s"] = sum(wall for _, wall in per_pass)


def cache_metrics(rec: Record, snaps: list[dict]) -> None:
    """Decode/plan cache and exec-op ratios summed over server snapshots."""

    def total(section: str, key: str) -> int:
        return sum((s.get(section) or {}).get(key, 0) for s in snaps)

    queries = total("queries", "total")
    m = rec.metrics
    m["cache.decode_hit_ratio"] = ratio(
        total("cache", "hits"), total("cache", "hits") + total("cache", "misses")
    )
    m["cache.plan_hit_ratio"] = ratio(
        total("plan_cache", "hits"),
        total("plan_cache", "hits") + total("plan_cache", "misses"),
    )
    m["cache.evictions_per_query"] = ratio(total("cache", "evictions"), queries)
    compressed, decoded = total("exec_ops", "compressed"), total("exec_ops", "decoded")
    m["exec.compressed_ratio"] = ratio(compressed, compressed + decoded)


class QueryTracer:
    """Runs queries in process through the layers a served query crosses.

    ``timed`` records, per query, the plan compile (``parse_query`` +
    ``canonicalize`` + ``compile_shard_plan`` on every shard),
    ``QueryEngine.execute``, ``response_from_result``, the wire encode
    (``to_body`` + JSON) and the client decode (JSON +
    ``QueryResponse.from_body``).  ``untimed`` makes the same calls with
    no clock reads between them (see :func:`paired`).
    """

    STAGES = ("compile", "execute", "response", "encode", "decode")

    def __init__(self, engine) -> None:
        self.engine = engine
        self.shards = engine.store.shard_names()
        self.stages: dict[str, list[float]] = {k: [] for k in self.STAGES}
        self.wire_bytes = 0
        self.wire_values = 0

    def untimed(self, ast) -> None:
        node = canonicalize(parse_query(ast))
        for shard in self.shards:
            compile_shard_plan(self.engine.store, shard, node)
        resp = response_from_result(self.engine.execute(ast))
        QueryResponse.from_body(json.loads(json.dumps(resp.to_body()).encode("utf-8")))

    def timed(self, ast) -> None:
        clock = time.perf_counter
        t0 = clock()
        node = canonicalize(parse_query(ast))
        for shard in self.shards:
            compile_shard_plan(self.engine.store, shard, node)
        t1 = clock()
        result = self.engine.execute(ast)
        t2 = clock()
        resp = response_from_result(result)
        t3 = clock()
        body = json.dumps(resp.to_body()).encode("utf-8")
        t4 = clock()
        QueryResponse.from_body(json.loads(body))
        t5 = clock()
        for key, dt in zip(self.STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
            self.stages[key].append(dt * 1e3)
        self.wire_bytes += len(body)
        self.wire_values += resp.n_results or 0

    def report(self, rec: Record, wire: bool) -> None:
        m = rec.metrics
        m["plan.compile_ms"] = median(self.stages["compile"])
        m["engine.execute_ms"] = median(self.stages["execute"])
        if wire:
            m["protocol.response_ms"] = median(self.stages["response"])
            m["protocol.encode_ms"] = median(self.stages["encode"])
            m["client.decode_ms"] = median(self.stages["decode"])
            m["wire.bytes_per_value"] = ratio(self.wire_bytes, self.wire_values)
        rec.detail["stage_p99_ms"] = {k: percentile(v, 99) for k, v in self.stages.items()}


def paired(plain, traced, ops, step) -> float:
    """Median tracing overhead per op, in ms.

    ``step(runner, op, timed)`` runs one op on one of two identical
    in-process stacks: untimed on ``plain``, timed on ``traced``.  Each op
    runs on both, back to back, in alternating order, so the difference
    of a pair is the timers' cost and not the machine's mood.
    """
    clock = time.perf_counter
    diffs = []
    for i, op in enumerate(ops):
        order = ((plain, False), (traced, True)) if i % 2 else ((traced, True), (plain, False))
        spent = {}
        for runner, timed in order:
            t0 = clock()
            step(runner, op, timed)
            spent[timed] = clock() - t0
        diffs.append((spent[True] - spent[False]) * 1e3)
    return median(diffs)


def replay(store_dir: str, warm: list, asts: list, rec: Record) -> None:
    """Replay the log in process on two fresh engines opened with the
    shipped defaults: the per-layer stage times, and the tracing
    overhead from the untimed twin."""
    with connect(store_dir) as plain_target, connect(store_dir) as traced_target:
        plain = QueryTracer(plain_target.engine)
        traced = QueryTracer(traced_target.engine)
        for ast in warm:
            plain.untimed(ast)
            traced.untimed(ast)

        def step(tracer, ast, timed):
            (tracer.timed if timed else tracer.untimed)(ast)

        rec.metrics["trace.overhead_ms"] = paired(plain, traced, asts, step)
    traced.report(rec, wire=True)


def run(seed: int, seconds: int, trace: bool) -> Record:
    rec = Record("served-web", seed, trace)
    lists = gen.web_lists(seed)
    passes = max(1, round(seconds * OPS_PER_SECOND / PASS_OPS))
    pool, logs = gen.web_queries(seed, PASS_OPS, passes + 1)
    warmup, measured = logs[0], logs[1:]
    pool_asts = [to_ast(q) for q in pool]
    m = rec.metrics
    with scratch_dir("served-web-") as work, Processes() as procs:
        setups, compress_s = [], []
        for i in range(SETUP_REPEATS):
            store_dir = work / f"store{i}"
            t0 = time.perf_counter()
            store, c_s = build_store(lists, gen.WEB_SHARD_DOCS)
            save_v3(store, store_dir)
            proc = procs.spawn("repro.server", "--store", str(store_dir), "--port", "0")
            url = procs.wait_ready(proc)
            setups.append(time.perf_counter() - t0)
            compress_s.append(c_s)
            if i < SETUP_REPEATS - 1:
                procs.stop(proc)
        m["setup_s"] = median(setups)
        m["bits_per_int"] = store_bits_per_int(store)
        del store

        # The oracle digest of every pool query the log sends (off the clock).
        want = {
            i: digest(evaluate_sharded(pool[i], lists))
            for i in sorted({i for log in logs for i in log})
        }

        def send(target, i):
            resp = target.query(pool_asts[i])
            return "query", resp.status == "ok", resp.n_results or 0, resp

        def check(i, resp) -> None:
            got = digest(resp.values)
            if resp.n_results != want[i][0] or got != want[i]:
                rec.mismatch(f"query {pool[i]}: got {got}, want {want[i]}")

        # A warm-up pass, untimed but checked and counted, then the
        # measured passes.
        closed_loop(url, split(warmup), send, check, rec)
        per_pass = [closed_loop(url, split(log), send, check, rec) for log in measured]
        pass_metrics(rec, per_pass)
        m["peak_rss_mb"] = procs.peak_rss_mb()
        if trace:
            with connect(url, max_retries=0, timeout_s=CLIENT_TIMEOUT_S) as target:
                cache_metrics(rec, [target.metrics()])
        procs.stop_all()

        if trace:
            opens = []
            for _ in range(OPEN_REPEATS):
                t0 = time.perf_counter()
                PostingStore.load(str(store_dir))
                opens.append((time.perf_counter() - t0) * 1e3)
            m["mapped.open_ms"] = median(opens)
            m["store.compress_s"] = median(compress_s)
            warm_asts = [pool_asts[i] for i in warmup]
            asts = [pool_asts[i] for log in measured for i in log]
            replay(str(store_dir), warm_asts, asts, rec)
            m["error_rate"] = ratio(rec.failed, rec.attempted)
    return rec
