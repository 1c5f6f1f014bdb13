"""Small driver-side helpers."""

from __future__ import annotations

from typing import Iterator

import pyarrow as pa

import ray.data


def collect(ds: ray.data.Dataset) -> pa.Table:
    """Materialize a (small) Dataset to one Arrow table on the driver.
    Only for results / tests — pipelines should stream to sinks."""
    tables = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    if not tables:
        # iter_batches yields nothing for an all-empty dataset (Ray's
        # batcher skips 0-row blocks) — recover the schema so empty
        # results stay typed
        sch = ds.schema()
        base = getattr(sch, "base_schema", None) if sch else None
        return base.empty_table() if base is not None else pa.table({})
    return pa.concat_tables([t if isinstance(t, pa.Table) else pa.Table.from_batches([t]) for t in tables])


def iter_blocks(ds: ray.data.Dataset) -> Iterator[pa.Table]:
    """The Dataset's non-empty blocks as Arrow tables, read whole on the
    driver. A materialized Dataset yields its stored blocks without
    launching a Ray execution; a lazy one streams through one execution.
    Close the iterator (``contextlib.closing``) when stopping early."""
    from ray.data.block import BlockAccessor

    for bundle in ds.iter_internal_ref_bundles():
        for ref, _meta in bundle.blocks:
            block = BlockAccessor.for_block(ray.get(ref)).to_arrow()
            if block.num_rows:
                yield block


def md5_u64(s: str) -> int:
    """DuckDB ``md5_number_lower(s)``: lower 8 md5 bytes, little-endian.
    THE one copy of this bit-exactness-critical convention — every
    oracle-mirrored hash (dedup shingles, layer digests, sampling
    buckets) must route through here so the byte-slice/endianness can
    never drift between operators."""
    import hashlib

    return int.from_bytes(hashlib.md5(s.encode()).digest()[8:], "little")
