"""Test helper: damage one term's payload inside a saved v3 segment."""

from __future__ import annotations

import json
import os

from repro.store.mapped import MappedIntegerSet, MappedSegment, write_mapped_segment


def truncate_term_blob(directory: str | os.PathLike, shard: str, term: str) -> None:
    """Cut *term*'s serialized blob in half inside *shard*'s segment.

    The segment is rewritten with its CRCs computed over the damaged
    blob, so it opens clean and the damage surfaces only when the term
    is parsed: a strict read raises a ``MappedSegmentError`` caused by
    the codec's ``CorruptPayloadError``, a lenient read degrades the
    term.
    """
    directory = os.fspath(directory)
    with open(os.path.join(directory, "manifest.json")) as fh:
        rel = json.load(fh)["shards"][shard]["segment"]
    path = os.path.join(directory, rel)
    segment = MappedSegment.open(path)
    items = []
    for name in list(segment.iter_terms()):
        cs = segment.materialize(segment.find(name))
        blob = bytes(cs.raw_blob)
        if name == term:
            blob = blob[: len(blob) // 2]
        items.append(
            (
                name,
                MappedIntegerSet(
                    cs.codec_name, None, cs.n, cs.universe, cs.size_bytes,
                    raw_blob=blob,
                ),
            )
        )
    segment.release()
    write_mapped_segment(path, items, generation=segment.generation)
