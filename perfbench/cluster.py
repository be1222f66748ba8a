"""cluster-churn: reads beside writes through ``python -m repro.cluster``.

A router at replication 2 fronts 2 ``python -m repro.server --writable``
backends, each on its own copy of a small store whose working set fits
the decode cache.  Two closed-loop clients each send queries and, one op
in four, an ``/ingest`` batch that adds or deletes values of terms only
that client writes.  Every acknowledged write bumps the store's read
version, so the plan-result cache is defeated although the data fits.

After the loop the run waits for replication and compaction to settle,
reads every written (shard, term) back through the router and compares
it with a dict-of-sets model of the acknowledged ops.
"""

from __future__ import annotations

import threading
import time

import numpy as np
from repro.api import ServerUnavailableError, connect
from repro.store.plan import Term
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
from perfbench.oracle import SetOracle, digest, evaluate_sharded
from perfbench.served import (
    CLIENT_TIMEOUT_S,
    QueryTracer,
    build_store,
    cache_metrics,
    closed_loop,
    pass_metrics,
    paired,
    store_bits_per_int,
    to_ast,
)

#: Ops (queries and ingest batches) per second of ``--seconds`` on a
#: 2-core x86 box, so a run measures about that long.
OPS_PER_SECOND = 150
#: The op streams are cut into this many consecutive passes.
PASSES = 5
SETUP_REPEATS = 3
BACKENDS = 2
REPLICATION = 2
SETTLE_TIMEOUT_S = 60.0
#: Queries sent both through the router and straight to a backend.
OVERHEAD_PROBES = 60
#: In the traced replay, compact after this many ingest batches.
REPLAY_COMPACT_EVERY = 8
#: Per-layer metrics this workload measures in a traced run.
LAYERS = frozenset(
    (
        "ingest_p50_ms", "ingest_p95_ms", "segments.ingest_ms", "segments.compact_ms",
        "segments.compactions", "wal.syncs_per_ingest", "wal.bytes_per_op",
        "router.overhead_ms", "router.fanout_per_query", "router.hedge_rate",
        "router.hedge_win_ratio", "router.max_staleness_ms", "plan.compile_ms",
        "engine.execute_ms", "cache.decode_hit_ratio", "cache.plan_hit_ratio",
        "cache.evictions_per_query", "exec.compressed_ratio", "store.compress_s",
        "server.outside_engine_ms", "trace.overhead_ms", "query_samples", "error_rate",
    )
)


def chunk(ops: list, p: int) -> list:
    """Pass ``p`` of a client's op stream: its ``p``-th consecutive slice."""
    n = len(ops)
    return ops[p * n // PASSES : (p + 1) * n // PASSES]


def start_cluster(store, work, procs: Processes, tag: str):
    """Save one copy per backend, start the backends, then the router."""
    dirs = [work / f"{tag}-b{b}" for b in range(BACKENDS)]
    for d in dirs:
        save_v3(store, d)
    backends = [
        procs.spawn("repro.server", "--writable", str(d), "--port", "0") for d in dirs
    ]
    backend_urls = [procs.wait_ready(p) for p in backends]
    args = []
    for url in backend_urls:
        args += ["--backend", url.removeprefix("http://")]
    router = procs.spawn(
        "repro.cluster", *args, "--replication", str(REPLICATION), "--port", "0"
    )
    return procs.wait_ready(router), backend_urls, dirs


def wait_until(predicate, what: str) -> None:
    deadline = time.monotonic() + SETTLE_TIMEOUT_S
    while not predicate():
        if time.monotonic() > deadline:
            raise RuntimeError(f"timed out waiting for {what}")
        time.sleep(0.05)


def read_metrics(url: str, rec: Record) -> dict:
    """GET /metrics, asking again when the server drops the request.

    These are control-plane reads, not workload ops.  A writable
    server's /metrics can race its compactor: ``write_stats`` flushes a
    WAL file that compaction has just closed, and the server drops the
    connection.  Each drop is recorded and printed with the result.
    """
    deadline = time.monotonic() + SETTLE_TIMEOUT_S
    while True:
        try:
            with connect(url, max_retries=0, timeout_s=CLIENT_TIMEOUT_S) as target:
                return target.metrics()
        except ServerUnavailableError as exc:
            rec.detail.setdefault("metrics_drops", []).append(f"{url}: {exc}")
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


def written_keys(lists) -> list[tuple[str, str]]:
    return [
        (s, gen.churn_own_term(c, j))
        for s in lists
        for c in range(gen.CHURN_CLIENTS)
        for j in range(gen.CHURN_OWN)
    ]


def verify_written(router_url: str, oracle: SetOracle, keys, rec: Record) -> None:
    """Every written (shard, term), read through the router, equals the model."""
    with connect(router_url, max_retries=0, timeout_s=CLIENT_TIMEOUT_S) as target:
        for shard, term in keys:
            resp = target.query(Term(term), shards=[shard])
            want = oracle.expected(shard, term)
            got = np.asarray(resp.values if resp.values is not None else [], dtype=np.int64)
            if resp.status != "ok" or not np.array_equal(got, want):
                rec.mismatch(
                    f"written {shard}/{term}: status {resp.status}, "
                    f"got {digest(got)}, want {digest(want)}"
                )


def router_overhead_ms(router_url: str, backend_url: str, asts) -> float:
    """Median latency of the same queries via the router minus direct."""
    via, direct = [], []
    with connect(router_url, max_retries=0, timeout_s=CLIENT_TIMEOUT_S) as r, connect(
        backend_url, max_retries=0, timeout_s=CLIENT_TIMEOUT_S
    ) as b:
        for ast in asts:
            for target, out in ((r, via), (b, direct)):
                t0 = time.perf_counter()
                target.query(ast)
                out.append((time.perf_counter() - t0) * 1e3)
    return median(via) - median(direct)


class WriteTracer:
    """One in-process writable stack for the traced replay.

    ``step`` applies one op.  Timed, it records ``ingest_batch`` (with
    its WAL sync), ``compact`` every ``REPLAY_COMPACT_EVERY`` batches, the
    WAL counters of ``write_stats``, and the query stages of
    :class:`QueryTracer`.
    """

    def __init__(self, engine) -> None:
        self.store = engine.store
        self.queries = QueryTracer(engine)
        self.ingest_ms: list[float] = []
        self.compact_ms: list[float] = []
        self.batches = self.syncs = self.wal_bytes = self.ops_logged = 0

    def step(self, op, timed: bool) -> None:
        if op.kind == "query":
            (self.queries.timed if timed else self.queries.untimed)(to_ast(op.query))
            return
        self.batches += 1
        compact = self.batches % REPLAY_COMPACT_EVERY == 0
        if not timed:
            self.store.ingest_batch(op.batch)
            if compact:
                self.store.compact()
            return
        clock = time.perf_counter
        before = self.store.write_stats()
        t0 = clock()
        self.store.ingest_batch(op.batch)
        self.ingest_ms.append((clock() - t0) * 1e3)
        after = self.store.write_stats()
        self.syncs += after["wal_syncs"] - before["wal_syncs"]
        self.wal_bytes += after["wal_bytes"] - before["wal_bytes"]
        self.ops_logged += len(op.batch)
        if compact:
            t0 = clock()
            self.store.compact()
            self.compact_ms.append((clock() - t0) * 1e3)

    def report(self, rec: Record) -> None:
        m = rec.metrics
        self.queries.report(rec, wire=False)
        m["segments.ingest_ms"] = median(self.ingest_ms)
        m["segments.compact_ms"] = median(self.compact_ms)
        m["wal.syncs_per_ingest"] = ratio(self.syncs, self.batches)
        m["wal.bytes_per_op"] = ratio(self.wal_bytes, self.ops_logged)


def replay(store, work, per_client, rec: Record) -> None:
    """Replay both clients' ops, interleaved, on two in-process writable
    copies of the store: timed on one, untimed on the other."""
    for tag in ("plain", "traced"):
        save_v3(store, work / f"replay-{tag}")
    ops = [op for pair in zip(*per_client) for op in pair]
    with connect(str(work / "replay-plain"), writable=True) as p, connect(
        str(work / "replay-traced"), writable=True
    ) as t:
        plain, traced = WriteTracer(p.engine), WriteTracer(t.engine)
        rec.metrics["trace.overhead_ms"] = paired(
            plain, traced, ops, lambda runner, op, timed: runner.step(op, timed)
        )
    traced.report(rec)


def run(seed: int, seconds: int, trace: bool) -> Record:
    rec = Record("cluster-churn", seed, trace)
    lists = gen.churn_lists(seed)
    per_client = gen.churn_ops(seed, OPS_PER_SECOND * seconds, lists)
    keys = written_keys(lists)
    oracle = SetOracle(lists, keys)
    oracle_lock = threading.Lock()
    static_want: dict[object, tuple] = {}
    for ops in per_client:
        for op in ops:
            if op.kind == "query" and op.static and op.query not in static_want:
                static_want[op.query] = digest(evaluate_sharded(op.query, lists))
    max_staleness = [0.0]
    m = rec.metrics
    with scratch_dir("cluster-churn-") as work, Processes() as procs:
        setups, compress_s = [], []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            store, c_s = build_store(lists, gen.CHURN_SHARD_DOCS)
            router_url, backend_urls, dirs = start_cluster(store, work, procs, f"set{i}")
            setups.append(time.perf_counter() - t0)
            compress_s.append(c_s)
            if i < SETUP_REPEATS - 1:
                procs.stop_all()
        m["setup_s"] = median(setups)

        def send(target, op):
            if op.kind == "ingest":
                resp = target.ingest(list(op.batch))
                return "ingest", resp.status == "ok", 0, resp
            resp = target.query(to_ast(op.query))
            staleness = (resp.detail or {}).get("max_staleness_ms", 0.0)
            if staleness > max_staleness[0]:
                max_staleness[0] = staleness
            return "query", resp.status == "ok", resp.n_results or 0, resp

        def check(op, resp) -> None:
            if op.kind == "ingest":
                with oracle_lock:
                    oracle.apply(op.batch)
            elif op.static:
                got = digest(resp.values)
                if got != static_want[op.query]:
                    rec.mismatch(f"query {op.query}: got {got}, want {static_want[op.query]}")

        per_pass = [
            closed_loop(router_url, [chunk(ops, p) for ops in per_client], send, check, rec)
            for p in range(PASSES)
        ]
        pass_metrics(rec, per_pass)
        ingest = [s[1] for samples, _ in per_pass for s in samples if s[0] == "ingest"]
        m["ingest_p50_ms"] = percentile(ingest, 50)
        m["ingest_p95_ms"] = percentile(ingest, 95)
        m["router.max_staleness_ms"] = max_staleness[0]

        # Settle: followers caught up and every delta compacted; then the
        # written terms must read back as the model says.
        wait_until(
            lambda: read_metrics(router_url, rec)["replication"]["max_staleness_ms"] == 0,
            "replication to drain",
        )
        wait_until(
            lambda: all(
                read_metrics(u, rec)["write_path"]["pending_ops"] == 0 for u in backend_urls
            ),
            "the final compaction",
        )
        verify_written(router_url, oracle, keys, rec)
        m["bits_per_int"] = store_bits_per_int(PostingStore.load(str(dirs[0])))
        m["peak_rss_mb"] = procs.peak_rss_mb()

        if trace:
            router = read_metrics(router_url, rec)
            backends = [read_metrics(u, rec) for u in backend_urls]
            fanout = router["fanout"]
            queries = sum(router["queries"].values())
            m["router.fanout_per_query"] = ratio(fanout["requests"], queries)
            m["router.hedge_rate"] = ratio(fanout["hedged"], fanout["requests"])
            m["router.hedge_win_ratio"] = ratio(fanout["hedge_wins"], fanout["hedged"])
            m["segments.compactions"] = sum(b["write_path"]["compactions"] for b in backends)
            cache_metrics(rec, backends)
            probes = [
                to_ast(op.query) for op in per_client[0] if op.kind == "query" and op.static
            ][:OVERHEAD_PROBES]
            m["router.overhead_ms"] = router_overhead_ms(router_url, backend_urls[0], probes)
        procs.stop_all()

        if trace:
            m["store.compress_s"] = median(compress_s)
            replay(store, work, per_client, rec)
            m["error_rate"] = ratio(rec.failed, rec.attempted)
    return rec
