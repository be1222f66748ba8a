"""Wire v3 and the array contract of ``QueryResponse.values``.

v3 answers ``/query`` with a length-prefixed JSON header followed by the
values as little-endian uint32.  Hostile frames must fail loudly: a
:class:`ProtocolError` from the client, a
:class:`BackendUnavailableError` from a router leg (so the router fails
over), never a crash or a silently wrong array.
"""

import asyncio
import http.server
import json
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.api.errors import BackendUnavailableError, ProtocolError
from repro.cluster import Backend, ClusterRouter, ShardMap
from repro.cluster.router import merge_group_values
from repro.server.app import encode_query_answer
from repro.server.protocol import (
    JSON_CONTENT_TYPE,
    V3_CONTENT_TYPE,
    WIRE_VERSION,
    QueryRequest,
    QueryResponse,
    decode_query_response,
    decode_v3,
    encode_v3,
    response_from_result,
)
from repro.store import QueryEngine
from repro.store.cache import DecodeCache
from repro.store.engine import QueryResult
from repro.store.plan import Query, Term

from tests.server.conftest import make_store


def _response(values, **kwargs):
    return QueryResponse(
        status="ok",
        values=values,
        n_results=len(values) if values is not None else None,
        latency_ms=1.0,
        **kwargs,
    )


def _frame(header: dict | bytes, blob: bytes = b"") -> bytes:
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    return struct.pack("<I", len(raw)) + raw + blob


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "values", [[], [0], [1, 5, 9], [0, 2**31 - 1], [2**32 - 1]], ids=str
)
def test_v3_round_trip_is_exact(values):
    response = _response(values, query_id="q", detail={"k": 1})
    decoded = decode_v3(encode_v3(response))
    assert decoded == response
    assert decoded.values.dtype == np.int64
    assert not decoded.values.flags.writeable


def test_v3_carries_a_null_answer():
    response = QueryResponse(
        status="failed", values=None, n_results=None, latency_ms=2.0, error="boom"
    )
    frame = encode_v3(response)
    assert decode_v3(frame) == response
    assert len(frame) == 4 + struct.unpack_from("<I", frame)[0]  # no blob


def test_v3_layout_is_prefix_header_then_uint32_values():
    frame = encode_v3(_response([3, 70_000]))
    (header_len,) = struct.unpack_from("<I", frame)
    header = json.loads(frame[4 : 4 + header_len])
    assert "values" not in header
    assert header["n_results"] == 2
    assert frame[4 + header_len :] == np.array([3, 70_000], "<u4").tobytes()


@pytest.mark.parametrize("bad", [-1, 2**32], ids=["negative", "past-uint32"])
def test_out_of_range_value_is_an_encode_error(bad):
    response = _response([1, bad] if bad > 0 else [bad, 1])
    with pytest.raises(ProtocolError, match="outside the v3 value domain"):
        encode_v3(response)
    # The HTTP answer says so as a failed response instead of truncating.
    status, answer = encode_query_answer(response, WIRE_VERSION)
    assert status == "failed"
    head, _, payload = answer.partition(b"\r\n\r\n")
    assert b"500 Internal Server Error" in head
    failed = decode_v3(payload)
    assert failed.status == "failed" and failed.values is None
    assert "outside the v3 value domain" in failed.error
    # The v2 JSON form has no such limit.
    status, answer = encode_query_answer(response, 2)
    assert status == "ok"
    assert json.loads(answer.partition(b"\r\n\r\n")[2])["values"] == response.values.tolist()


def test_server_answers_an_unencodable_result_as_failed(live_server):
    engine = QueryEngine(make_store())
    engine.execute = lambda query, timeout_s=None: QueryResult(
        query_id="", values=np.array([1, 2**32], dtype=np.int64), latency_ms=0.1
    )
    server = live_server(engine)
    with connect(f"http://127.0.0.1:{server.port}", max_retries=0) as target:
        response = target.query("a")
    assert response.status == "failed" and response.values is None
    assert "outside the v3 value domain" in response.error


#: (frame, message fragment) per hostile case.
HOSTILE = {
    "short-body": (b"\x07\x00", "shorter than its 4-byte length prefix"),
    "header-past-end": (struct.pack("<I", 1_000) + b"{}", "runs past the end"),
    "blob-not-4n": (
        _frame({"status": "ok", "n_results": 3}, b"\x00" * 8),
        "expected 4 x 3",
    ),
    "non-json-header": (_frame(b"nope!"), "not valid JSON"),
    "non-object-header": (_frame([1, 2]), "must be a JSON object"),
    "blob-without-count": (
        _frame({"status": "failed", "n_results": None}, b"\x00" * 4),
        "no n_results",
    ),
    "negative-count": (_frame({"status": "ok", "n_results": -1}), "non-negative"),
    "bad-header-field": (
        _frame({"status": "ok", "n_results": 0, "latency_ms": "slow"}),
        "malformed query response body",
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_frames_raise_protocol_error(case):
    frame, message = HOSTILE[case]
    with pytest.raises(ProtocolError, match=message):
        decode_query_response(frame, V3_CONTENT_TYPE)


def test_json_answers_with_non_integer_values_are_rejected():
    for values in ([1.5], ["a"], [True], [[1]], [2**70], 7):
        body = json.dumps({"status": "ok", "values": values}).encode()
        with pytest.raises(ProtocolError):
            decode_query_response(body, JSON_CONTENT_TYPE)


class _CannedBackend:
    """A loopback HTTP server answering every POST with fixed bytes."""

    def __init__(self, payload: bytes, content_type: str) -> None:
        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 (stdlib hook name)
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self.httpd.server_address[1]
        self._thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self.httpd.shutdown()
        self.httpd.server_close()


HOSTILE_ANSWERS = {
    **{name: (frame, V3_CONTENT_TYPE) for name, (frame, _) in HOSTILE.items()},
    "json-value-out-of-int64": (
        json.dumps({"status": "ok", "values": [2**70], "n_results": 1}).encode(),
        JSON_CONTENT_TYPE,
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_ANSWERS))
def test_client_raises_protocol_error_on_a_hostile_answer(case):
    payload, content_type = HOSTILE_ANSWERS[case]
    with _CannedBackend(payload, content_type) as backend:
        with connect(f"http://127.0.0.1:{backend.port}", max_retries=0) as target:
            with pytest.raises(ProtocolError):
                target.query("a")


@pytest.mark.parametrize("case", sorted(HOSTILE_ANSWERS))
def test_router_leg_turns_a_hostile_answer_into_backend_unavailable(case):
    payload, content_type = HOSTILE_ANSWERS[case]
    with _CannedBackend(payload, content_type) as backend:
        shardmap = ShardMap(
            (Backend(backend_id="b0", host="127.0.0.1", port=backend.port),),
            ("s0",),
            replication=1,
        )
        router = ClusterRouter(shardmap)
        request = QueryRequest(query=Term("a"))
        with pytest.raises(BackendUnavailableError) as excinfo:
            asyncio.run(router._fetch_group("b0", ("s0",), request, None))
    assert excinfo.value.backend_id == "b0"
    assert router.metrics.backend("b0").failures == 1


# ----------------------------------------------------------------------
# The array contract
# ----------------------------------------------------------------------
def test_response_from_result_views_the_engine_array_without_copying():
    engine_values = np.arange(0, 100, 7, dtype=np.int64)
    result = QueryResult(query_id="", values=engine_values, latency_ms=0.1)
    values = response_from_result(result).values
    assert np.shares_memory(values, engine_values)
    assert not values.flags.writeable
    assert engine_values.flags.writeable  # the engine's own array is untouched


def test_a_rejected_write_leaves_the_plan_cache_answer_intact():
    engine = QueryEngine(make_store(2), cache=DecodeCache(max_entries=16))
    query = Query(expression=Term("a"), shards=("s0",))
    want = np.arange(0, 10_000, 2)
    with connect(engine) as target:
        first = target.query(query.expression, shards=query.shards)
        with pytest.raises(ValueError):
            first.values[0] = 999_999
        with pytest.raises(ValueError):
            first.values.sort(kind="stable")  # in-place ops are refused too
        hits = engine.plan_cache.stats().hits
        again = target.query(query.expression, shards=query.shards)
    assert engine.plan_cache.stats().hits == hits + 1
    assert np.array_equal(first.values, want)
    assert np.array_equal(again.values, want)


def test_response_equality_compares_values_by_content():
    assert _response([1, 2]) == _response(np.array([1, 2], dtype=np.uint32))
    assert _response([1, 2]) != _response([1, 3])
    assert _response([1, 2]) != _response(None)
    assert _response([]) != _response([1])


_sorted_sets = st.one_of(
    st.none(),
    st.sets(st.integers(0, 2**31 - 1), max_size=40).map(
        lambda s: np.array(sorted(s), dtype=np.int64)
    ),
)


@settings(max_examples=200, deadline=None)
@given(groups=st.lists(_sorted_sets, max_size=6))
def test_router_merge_matches_an_oracle_union(groups):
    oracle = sorted(set().union(*(g.tolist() for g in groups if g is not None)))
    merged = merge_group_values(groups)
    assert merged.dtype == np.int64
    assert merged.tolist() == oracle
