"""What a live task is on the wire: app names, blob names, output payloads.

Both sides of the gateway agree on these conventions (docs/protocol.md
names the blobs): the server's job plane publishes chunk blobs under
these names and merges reducer outputs into a :func:`canonical_payload`;
a volunteer resolves the task's app by name and uploads its outputs
under the same names.  Kept apart from :mod:`repro.gateway.jobs` so a
volunteer imports none of the server side.
"""

from __future__ import annotations

import pickle
import typing as _t

from ..runtime.api import MapReduceApp
from ..runtime.apps import InvertedIndex, MatchCount, WordCount

#: Apps submittable by name over the wire (``JobRequest.app``).  A wire
#: job carries no app parameters, so ``matchcount`` counts a fixed pattern:
#: the words ending in ``a``, one in five of the consonant-vowel words
#: :func:`~repro.workloads.generate_corpus` draws.
APP_REGISTRY: dict[str, _t.Callable[[], MapReduceApp]] = {
    "wordcount": WordCount,
    "invindex": InvertedIndex,
    "matchcount": lambda: MatchCount(rb"\w+a\b"),
}


def resolve_app(name: str) -> MapReduceApp:
    """Instantiate a registered app by wire name (KeyError when unknown)."""
    return APP_REGISTRY[name]()


def chunk_blob_name(job: str, map_index: int) -> str:
    """Blob name of one map input chunk."""
    return f"{job}.m{map_index}.in"


def partition_blob_name(job: str, map_index: int, reduce_index: int) -> str:
    """Blob name of one map-output partition (map i, reducer r)."""
    return f"{job}.m{map_index}.p{reduce_index}"


def reduce_blob_name(job: str, reduce_index: int) -> str:
    """Blob name of one reducer's output."""
    return f"{job}.out{reduce_index}"


def canonical_payload(output: dict) -> bytes:
    """Deterministic byte encoding of a merged job output dict.

    Keys are sorted by ``repr`` (the engine's stable ordering), so the
    same logical output always pickles to the same bytes — this is what
    the byte-equivalence gate in the load harness compares.
    """
    return pickle.dumps(sorted(output.items(), key=lambda kv: repr(kv[0])))


def decode_payload(payload: bytes) -> dict:
    """Inverse of :func:`canonical_payload`."""
    return dict(pickle.loads(payload))
