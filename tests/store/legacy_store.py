"""Test-only writer for the retired per-term store layouts (manifest v1/v2).

The program no longer writes these layouts; :func:`repro.store.migrate_store`
is their only reader.  Migration and rejection tests build their inputs
with :func:`save_legacy`: one ``serialize.dump``\\ ed ``.rpro`` file per
term plus a JSON manifest, exactly as the v2 writer laid them out.
"""

from __future__ import annotations

import json
import os

from repro.core.serialize import dump
from repro.store import PostingStore


def save_legacy(
    store: PostingStore, directory: str | os.PathLike, *, version: int = 2
) -> None:
    """Write *store* under *directory* in the v1 or v2 per-term layout.

    v1 manifests carry neither codec ``params`` nor a ``generation``.
    """
    assert version in (1, 2), version
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    shards = {}
    for name in store.shard_names():
        shard = store.shard(name)
        os.makedirs(os.path.join(directory, name), exist_ok=True)
        terms = {}
        for i, (term, cs) in enumerate(sorted(shard.postings.items())):
            rel = os.path.join(name, f"{i:06d}.rpro")
            dump(cs, os.path.join(directory, rel))
            terms[term] = rel
        spec = {"codec": shard.codec.name, "universe": shard.universe, "terms": terms}
        if version == 2:
            spec["params"] = shard.codec.params()
        shards[name] = spec
    manifest = {"version": version, "shards": shards}
    if version == 2:
        manifest["generation"] = store.generation
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
