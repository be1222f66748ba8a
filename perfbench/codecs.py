"""paper-codecs: the paper's own measurement, in process, single thread.

Every registered codec plus ``Adaptive`` compresses, decompresses,
intersects and unions one list pair per (distribution, density) cell.
The 24 registered codecs go through the ``repro.api`` facade; the
facade's registry lookup does not know the unregistered ``Adaptive``
meta-codec, so it is driven through :class:`repro.hybrid.AdaptiveCodec`.

Each call is repeated ``reps`` times in rep-major order, so its repeats
are spread over the run, and timed on its own; a call's time is its
fastest repeat (see :meth:`Sweep.fastest`).  The per-int figures
are summed call time over integers processed, so they weigh codecs by
what a reproducer waits for.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
from repro import api
from repro.hybrid import AdaptiveCodec

from perfbench import gen
from perfbench.common import Record, child_env, median, percentile, ratio, self_peak_rss_mb
from perfbench.oracle import codec_result_ok

OPS = ("compress", "decode", "intersect", "union")
QUERY_OPS = ("intersect", "union")
#: One sweep's wall time on a 2-core x86 box; ``--seconds`` buys
#: ``round(seconds / SWEEP_SECONDS)`` repeats of every call.
SWEEP_SECONDS = 1.2
SETUP_REPEATS = 5
#: Per-layer metrics this workload measures in a traced run.
LAYERS = frozenset(
    [
        f"{prefix}{op}_ns_per_int"
        for prefix in ("bitmaps.", "invlists.", "hybrid.", "")
        for op in OPS
    ]
    + [f"{fam}.bits_per_int" for fam in ("bitmaps", "invlists", "hybrid")]
    + ["query_samples", "error_rate"]
)
_SETUP_SNIPPET = (
    "from repro import api; from repro.hybrid import AdaptiveCodec; "
    "[api.get_codec(n) for n in api.all_codec_names()]; AdaptiveCodec()"
)


def codec_names() -> list[str]:
    return [*api.all_codec_names(), "Adaptive"]


def family_of(name: str) -> str:
    if name == "Adaptive":
        return "hybrid"
    return {"bitmap": "bitmaps", "invlist": "invlists"}[api.get_codec(name).family]


def codec_calls(name: str):
    """(compress, decompress, intersect, union) callables for one codec."""
    if name == "Adaptive":
        codec = AdaptiveCodec()
        return (
            lambda v, u: codec.compress(v, universe=u),
            codec.decompress,
            codec.intersect,
            codec.union,
        )
    return (
        lambda v, u: api.compress(v, name, universe=u),
        api.decompress,
        api.intersect,
        api.union,
    )


def measure_setup() -> float:
    """Median wall time for a fresh interpreter to import the library and
    build every codec — what an in-process user pays before the first
    call."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_SNIPPET], env=child_env(), check=True
        )
        times.append(time.perf_counter() - t0)
    return median(times)


class Sweep:
    """Per-call timings of one run, keyed ``(codec, cell, op, operand)``.

    ``ints`` counts the integers a call processes (its input lists);
    ``out`` the integers it delivers (the list for compress and decode,
    the result for intersect and union).  A call that raises is a failed
    op: counted, recorded, and the rest of its cell is skipped.
    """

    def __init__(self, rec: Record) -> None:
        self.rec = rec
        self.times: dict[tuple, list[float]] = {}
        self.sizes: dict[tuple, tuple[int, int]] = {}
        self.space: dict[tuple, int] = {}

    def call(self, key: tuple, ints: int, fn, *args):
        self.rec.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # the codec failed this op
            self.rec.failed += 1
            self.rec.detail.setdefault("errors", []).append(
                f"{key}: {type(exc).__name__}: {exc}"
            )
            return None
        self.times.setdefault(key, []).append(time.perf_counter() - t0)
        self.sizes[key] = (ints, ints if key[2] in ("compress", "decode") else len(out))
        return out

    def cell(self, name: str, ci: int, cell, want_and, want_or) -> None:
        compress, decompress, intersect, union = codec_calls(name)
        where = f"{name} on {cell.distribution}/{cell.density}"
        pair = []
        for j, lst in enumerate((cell.a, cell.b)):
            cs = self.call((name, ci, "compress", j), lst.size, compress, lst, cell.domain)
            if cs is None:
                return
            pair.append(cs)
        self.space[(name, ci)] = sum(cs.size_bytes for cs in pair)
        for j, (lst, cs) in enumerate(zip((cell.a, cell.b), pair)):
            got = self.call((name, ci, "decode", j), lst.size, decompress, cs)
            if got is not None and not codec_result_ok(got, lst):
                self.rec.mismatch(f"{where}: decompress differs from the input")
        both = cell.a.size + cell.b.size
        for op, fn, want in (("intersect", intersect, want_and), ("union", union, want_or)):
            got = self.call((name, ci, op, 0), both, fn, *pair)
            if got is not None and not codec_result_ok(got, want):
                self.rec.mismatch(f"{where}: {op} differs from numpy")

    def fastest(self) -> dict[tuple, tuple[float, int, int]]:
        """key -> (fastest repeat in seconds, ints, out).

        A call is deterministic work, so time above its fastest repeat is
        other work on the machine; on a shared host that interference
        moves a call's median by a fifth from run to run and its fastest
        repeat by a fiftieth.
        """
        return {key: (min(ts), *self.sizes[key]) for key, ts in self.times.items()}


def sweep(inputs, names, reps: int, rec: Record) -> Sweep:
    """Run every call ``reps`` times, rep-major, so a call's repeats are
    spread over the run, and on each allowed CPU in turn: on a shared
    host, other tenants slow one CPU at a time, so the fastest repeat
    comes from whichever CPU was free."""
    refs = [(np.intersect1d(c.a, c.b), np.union1d(c.a, c.b)) for c in inputs]
    out = Sweep(rec)
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    try:
        for rep in range(reps):
            os.sched_setaffinity(0, {cpus[rep % len(cpus)]})
            for name in names:
                for ci, cell in enumerate(inputs):
                    out.cell(name, ci, cell, *refs[ci])
    finally:
        os.sched_setaffinity(0, allowed)
    return out


def run(seed: int, seconds: int, trace: bool) -> Record:
    rec = Record("paper-codecs", seed, trace)
    setup_s = measure_setup()
    inputs = gen.codec_inputs(seed)
    names = codec_names()
    reps = max(1, round(seconds / SWEEP_SECONDS))
    done = sweep(inputs, names, reps, rec)
    calls, space = done.fastest(), done.space

    query_s = [t for k, (t, _, _) in calls.items() if k[2] in QUERY_OPS]
    total_s = sum(t for t, _, _ in calls.values())
    m = rec.metrics
    m["setup_s"] = setup_s
    m["query_p50_ms"] = percentile(query_s, 50) * 1e3
    m["query_p99_ms"] = percentile(query_s, 99) * 1e3
    m["query_qps"] = len(query_s) / sum(query_s)
    m["values_per_s"] = sum(out for _, _, out in calls.values()) / total_s
    m["peak_rss_mb"] = self_peak_rss_mb()
    stored = sum(space.values())
    m["bits_per_int"] = 8 * stored / sum(
        inputs[ci].a.size + inputs[ci].b.size for _name, ci in space
    )
    if not trace:
        return rec

    # Per-layer: the four measures and space, per codec, family and overall.
    rows = {}
    for name in names:
        row = {"family": family_of(name)}
        mine = [(k, v) for k, v in calls.items() if k[0] == name]
        for op in OPS:
            row[op] = (
                sum(t for k, (t, _, _) in mine if k[2] == op),
                sum(n for k, (_, n, _) in mine if k[2] == op),
            )
        cells = [ci for n, ci in space if n == name]
        row["bytes"] = sum(space[(name, ci)] for ci in cells)
        row["ints"] = sum(inputs[ci].a.size + inputs[ci].b.size for ci in cells)
        rows[name] = row
    for fam in ("bitmaps", "invlists", "hybrid", None):
        members = [r for r in rows.values() if fam is None or r["family"] == fam]
        prefix = f"{fam}." if fam else ""
        for op in OPS:
            t = sum(r[op][0] for r in members)
            n = sum(r[op][1] for r in members)
            m[f"{prefix}{op}_ns_per_int"] = ratio(t * 1e9, n)
        if fam:
            m[f"{prefix}bits_per_int"] = ratio(
                8 * sum(r["bytes"] for r in members), sum(r["ints"] for r in members)
            )
    rec.detail["codecs"] = {
        name: {
            "family": r["family"],
            **{f"{op}_ns_per_int": ratio(r[op][0] * 1e9, r[op][1]) for op in OPS},
            "bits_per_int": ratio(8 * r["bytes"], r["ints"]),
        }
        for name, r in rows.items()
    }
    m["query_samples"] = len(query_s)
    m["error_rate"] = ratio(rec.failed, rec.attempted)
    return rec
