"""Seeded benchmark inputs built with the library's own layer generators.

The generators in ``geofileops_ray.io.synth`` derive every layer from a
``documents`` table (``doc_id``, ``text``, ``lang``). The parquet files
their ``*_dataset`` helpers read are not part of the repository, so the
benchmark builds the ``documents`` table itself from ``--seed``:

* the id range ``[0, 5k)`` is cut into groups of five consecutive ids and
  one id of each group is dropped, chosen by the seed among offsets 1..4.
  Every seed therefore keeps exactly ``4k`` documents with the same
  density everywhere (same size and shape, different rows), and every
  multiple of 5 survives, so the zone layer (one zone per multiple of
  100) is identical across seeds;
* ``text`` and ``lang`` are seeded too (they feed the ``spans`` column).

Layers are then the library's ``synth_*_batch`` functions applied to
that table (``expand_documents`` multiplies it for the large side), and
are materialized before any timed call.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from geofileops_ray.io import synth

_WORDS = (
    "field parcel zone crop river road farm grass wheat maize barley "
    "meadow forest hedge ditch canal orchard vineyard potato sugar"
).split()
_LANGS = ("nl", "fr", "de", "en", "zh")


def documents(seed: int, n_docs: int) -> pa.Table:
    """``n_docs`` documents (a multiple of 4) with seeded ids and text."""
    if n_docs % 4:
        raise ValueError(f"n_docs must be a multiple of 4, got {n_docs}")
    rng = np.random.default_rng(seed)
    groups = n_docs // 4
    ids = np.arange(groups * 5, dtype=np.int64).reshape(groups, 5)
    drop = rng.integers(1, 5, size=groups)
    keep = np.ones_like(ids, dtype=bool)
    keep[np.arange(groups), drop] = False
    doc_id = ids[keep]
    n_words = rng.integers(3, 12, size=n_docs)
    words = rng.integers(0, len(_WORDS), size=int(n_words.sum()))
    ends = np.cumsum(n_words)
    text = [
        " ".join(_WORDS[w] for w in words[e - k : e])
        for e, k in zip(ends, n_words)
    ]
    lang = [_LANGS[i] for i in rng.integers(0, len(_LANGS), size=n_docs)]
    return pa.table(
        {
            "doc_id": pa.array(doc_id, pa.int64()),
            "text": pa.array(text, pa.string()),
            "lang": pa.array(lang, pa.string()),
        }
    )


def documents_dataset(docs: pa.Table, n_blocks: int) -> ray.data.Dataset:
    """The table as a Dataset of ``n_blocks`` contiguous blocks."""
    n = len(docs)
    n_blocks = max(1, min(n_blocks, n))
    cuts = np.linspace(0, n, n_blocks + 1).astype(int)
    return ray.data.from_arrow(
        [docs.slice(int(a), int(b - a)) for a, b in zip(cuts[:-1], cuts[1:])]
    )


def layer(docs_ds: ray.data.Dataset, kind: str, repeat: int = 1) -> ray.data.Dataset:
    """One synth layer over ``docs_ds`` expanded ``repeat`` times (lazy)."""
    fn = {
        "parcels": synth.synth_parcels_batch,
        "zones": synth.synth_zones_batch,
        "points": synth.synth_points_batch,
        "lshapes": synth.synth_lshapes_batch,
        "triangles": synth.synth_triangles_batch,
    }[kind]
    return synth.expand_documents(docs_ds, repeat).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )
