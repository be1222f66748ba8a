"""Every metric the benchmark emits: name, unit, direction, and what it moves.

``END_TO_END`` metrics are what a user of the library sees; every
workload reports all of them in an untraced run.  ``PER_LAYER`` metrics
come from the traced run; a layer a workload bypasses reports 0 there.
Each per-layer entry names the end-to-end metric it should move and the
workload on which it should move it; ``BENCHMARK.json`` mirrors the
names, units and directions (a test keeps the two in step).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end metrics: allowed worsening as a share of the median.
    bound: float | None = None
    #: Per-layer metrics: "<end-to-end metric> on <workload>" it moves.
    moves: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("query_p50_ms", "ms", "lower", bound=0.25),
    Metric("query_p99_ms", "ms", "lower", bound=0.25),
    Metric("query_qps", "1/s", "higher", bound=0.25),
    Metric("values_per_s", "1/s", "higher", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.15),
    Metric("bits_per_int", "bits", "lower", bound=0.05),
)

PER_LAYER = (
    # The paper's four measures plus space, per codec family.
    *(
        Metric(f"{fam}.{m}", unit, "lower", moves=moves)
        for fam, extra in (
            ("bitmaps", ""),
            ("invlists", "; decode also query_p50_ms on served-web"),
            ("hybrid", "; decode also query_p50_ms on served-web"),
        )
        for m, unit, moves in (
            ("compress_ns_per_int", "ns", "values_per_s on paper-codecs"),
            ("decode_ns_per_int", "ns", f"values_per_s on paper-codecs{extra}"),
            ("intersect_ns_per_int", "ns", "query_p50_ms, query_qps on paper-codecs"),
            ("union_ns_per_int", "ns", "query_p50_ms, query_qps on paper-codecs"),
            ("bits_per_int", "bits", "bits_per_int on paper-codecs"),
        )
    ),
    # The paper's four measures over all codecs: only paper-codecs runs
    # them, so they cannot be end-to-end metrics of every workload.
    Metric("compress_ns_per_int", "ns", "lower", moves="values_per_s on paper-codecs"),
    Metric("decode_ns_per_int", "ns", "lower", moves="values_per_s on paper-codecs"),
    Metric("intersect_ns_per_int", "ns", "lower", moves="query_qps on paper-codecs"),
    Metric("union_ns_per_int", "ns", "lower", moves="query_qps on paper-codecs"),
    # Query path, replayed in process.
    Metric("plan.compile_ms", "ms", "lower",
           moves="query_p50_ms on served-web and cluster-churn"),
    Metric("engine.execute_ms", "ms", "lower",
           moves="query_p50_ms on served-web and cluster-churn"),
    Metric("protocol.response_ms", "ms", "lower",
           moves="query_p99_ms, values_per_s on served-web"),
    Metric("protocol.encode_ms", "ms", "lower",
           moves="query_p99_ms, values_per_s on served-web"),
    Metric("client.decode_ms", "ms", "lower",
           moves="query_p99_ms, values_per_s on served-web"),
    Metric("wire.bytes_per_value", "B", "lower",
           moves="query_p99_ms, values_per_s on served-web"),
    Metric("server.outside_engine_ms", "ms", "lower",
           moves="query_p50_ms, query_p99_ms on served-web"),
    # Server counters from GET /metrics.
    Metric("cache.decode_hit_ratio", "ratio", "higher",
           moves="query_p50_ms, query_qps on served-web; stays low on cluster-churn"),
    Metric("cache.plan_hit_ratio", "ratio", "higher",
           moves="query_p50_ms, query_qps on served-web; stays low on cluster-churn"),
    Metric("cache.evictions_per_query", "count", "lower",
           moves="query_p50_ms, query_qps on served-web"),
    Metric("exec.compressed_ratio", "ratio", "higher",
           moves="query_p50_ms, query_qps on served-web"),
    # Write path.
    # Client-seen ingest latency: end to end, but only cluster-churn
    # writes, and every end-to-end metric must exist on every workload.
    Metric("ingest_p50_ms", "ms", "lower", moves="itself, on cluster-churn"),
    Metric("ingest_p95_ms", "ms", "lower", moves="itself, on cluster-churn"),
    Metric("segments.ingest_ms", "ms", "lower",
           moves="ingest_p50_ms, ingest_p95_ms on cluster-churn"),
    Metric("segments.compact_ms", "ms", "lower",
           moves="ingest_p95_ms, query_p99_ms on cluster-churn"),
    Metric("segments.compactions", "count", "lower",
           moves="query_p99_ms on cluster-churn"),
    Metric("wal.syncs_per_ingest", "count", "lower",
           moves="ingest_p50_ms on cluster-churn"),
    Metric("wal.bytes_per_op", "B", "lower", moves="ingest_p50_ms on cluster-churn"),
    # Router.
    Metric("router.overhead_ms", "ms", "lower",
           moves="query_p50_ms, query_p99_ms on cluster-churn"),
    Metric("router.fanout_per_query", "count", "lower",
           moves="query_p50_ms on cluster-churn"),
    Metric("router.hedge_rate", "ratio", "lower", moves="query_p99_ms on cluster-churn"),
    Metric("router.hedge_win_ratio", "ratio", "higher", moves="query_p99_ms on cluster-churn"),
    Metric("router.max_staleness_ms", "ms", "lower", moves="query_p99_ms on cluster-churn"),
    # Set-up.
    Metric("mapped.open_ms", "ms", "lower", moves="setup_s on served-web"),
    Metric("store.compress_s", "s", "lower", moves="setup_s on served-web and cluster-churn"),
    # Accounting.
    # 0 on a healthy run, so not an end-to-end metric; the result line's
    # attempted / failed carry it on every run.
    Metric("error_rate", "ratio", "lower", moves="failed / attempted of every workload"),
    Metric("query_samples", "count", "higher", moves="the sample base of query_p99_ms"),
    Metric("trace.overhead_ms", "ms", "lower", moves="nothing: cost of the traced replay"),
)

ALL = {m.name: m for m in (*END_TO_END, *PER_LAYER)}


def names(trace: bool) -> list[str]:
    return [m.name for m in (PER_LAYER if trace else END_TO_END)]
