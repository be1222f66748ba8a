"""``connect()`` is transport-transparent.

The same query against the same logical data must return bit-identical
values whether the target is a local store directory, one HTTP server,
or a replicated cluster behind the router — the same read-only int64
array on all three, and the same values as a JSON list for a v2 client.
"""

import http.client
import json

import numpy as np
import pytest

from repro.api import connect
from repro.store import QueryEngine
from repro.store.plan import And, Or, parse_query

from tests.server.conftest import make_store

QUERIES = [
    "a",
    "b",
    And("a", "b"),
    Or("a", "c"),
    And(Or("a", "b"), "c"),
]


@pytest.fixture
def three_targets(tmp_path, cluster_factory):
    """local dir / single server / 3x2 cluster over the same store."""
    make_store(4).save(tmp_path / "store")
    cluster = cluster_factory(n_backends=3, replication=2)
    single = cluster_factory(n_backends=1, replication=1)
    local = connect(str(tmp_path / "store"))
    yield {
        "local": local,
        # The single "cluster" degenerates to one plain StoreServer hop.
        "server": connect(f"http://127.0.0.1:{single.backend_bgs[0].port}"),
        "cluster": connect(f"http://127.0.0.1:{cluster.port}"),
    }
    local.close()


@pytest.mark.parametrize("query", QUERIES, ids=[str(q) for q in QUERIES])
def test_values_are_bit_identical_across_targets(three_targets, query):
    answers = {
        name: target.query(query) for name, target in three_targets.items()
    }
    assert all(r.status == "ok" for r in answers.values()), {
        name: r.status for name, r in answers.items()
    }
    values = {name: r.values for name, r in answers.items()}
    _assert_identical(values)
    assert values["local"].size, "queries must be non-trivial to be evidence"


def test_shard_subset_is_also_transport_transparent(three_targets):
    engine = QueryEngine(make_store(4))
    shard = sorted(engine.store.shard_names())[1]
    values = {
        name: target.query("a", shards=[shard]).values
        for name, target in three_targets.items()
    }
    _assert_identical(values)


def test_values_refuse_writes_on_every_target(three_targets):
    for name, target in three_targets.items():
        values = target.query("a").values
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 12345
        assert target.query("a").values[0] == values[0] == 0, name


def _assert_identical(values):
    for name, array in values.items():
        assert array.dtype == np.int64, name
        assert not array.flags.writeable, name
    assert np.array_equal(values["local"], values["server"])
    assert np.array_equal(values["local"], values["cluster"])


@pytest.mark.parametrize("query", QUERIES, ids=[str(q) for q in QUERIES])
def test_v2_json_clients_get_the_same_values_as_a_list(three_targets, query):
    want = three_targets["local"].query(query).values.tolist()
    body = json.dumps({"v": 2, "query": parse_query(query).to_json()}).encode()
    for name in ("server", "cluster"):
        client = three_targets[name].client
        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.request("POST", "/query", body=body)
            resp = conn.getresponse()
            assert resp.getheader("Content-Type") == "application/json", name
            parsed = json.loads(resp.read())
        finally:
            conn.close()
        assert parsed["values"] == want, name
