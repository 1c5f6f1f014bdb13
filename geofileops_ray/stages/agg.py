"""Combiner-first vectorized keyed aggregation.

Ray Data's sort-based ``groupby().aggregate(...)`` spends ~100-200 µs of
per-group Python (block slice + per-group aggregate call) — measured
37 s for 200k distinct int keys on 4 CPUs. That constant is invisible on
bounded key domains but is THE wall when the key is a row id (sjoin /
export gathers, cover-count joins): at 10^9 keys it is hours of pure
scheduling overhead.

``bucket_aggregate`` replaces it with zero per-key Python:

1. PARTIAL aggregation inside every input batch (one arrow sort +
   ``ufunc.reduceat`` per column — the map-side combiner; the shuffle
   then moves at most distinct-keys-per-batch rows, mirroring the
   reference's per-batch SQL aggregation before the merge step).
2. Hash-bucket shuffle into ~2×CPU salt partitions (same key → same
   bucket; the bucket COUNT bounds the number of Python group calls,
   not the key cardinality).
3. The same vectorized merge per bucket.

Supported ops: sum, min, max, count (mean = sum+count at the call
site). Value columns must be non-null numeric; keys may be any sortable
arrow type (int, string, binary — multi-column keys allowed).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

_UFUNC = {"sum": np.add, "min": np.minimum, "max": np.maximum}
# partial-op → merge-op (a partial count merges by summing)
_MERGE_OP = {"sum": "sum", "min": "min", "max": "max", "count": "sum"}


def run_change_mask(srt: pa.Table, key_cols: list[str]) -> np.ndarray:
    """Boolean mask[n]: True where row i starts a new key run in a table
    already sorted by ``key_cols``. NULL-aware — NULL groups with NULL
    (SQL GROUP BY semantics): plain ``pc.not_equal`` yields null when an
    operand is null, which a naive bool cast turns into False and would
    silently merge the null-key run (sorted to one end) into its
    neighbouring key's run; a numpy ``!=`` on a nullable-int column sees
    NaN != NaN and would split every null-key row into its own run."""
    n = len(srt)
    change = np.zeros(n, dtype=bool)
    if n:
        change[0] = True
    if n <= 1:
        return change
    for c in key_cols:
        col = srt.column(c).combine_chunks()
        a, b = col.slice(1), col.slice(0, n - 1)
        neq = pc.fill_null(pc.not_equal(a, b), False)
        null_flip = pc.not_equal(a.is_null(), b.is_null())
        change[1:] |= (
            pc.or_(neq, null_flip).to_numpy(zero_copy_only=False).astype(bool)
        )
    return change


def _agg_block(
    tbl: pa.Table, key_cols: list[str], specs: list[tuple[str, str, str]]
) -> pa.Table:
    """One vectorized aggregation pass over a table: sort by keys, find
    run boundaries, reduceat every value column. specs = (col, op, out)."""
    out_fields: dict[str, pa.Array] = {}
    if len(tbl) == 0:
        for c in key_cols:
            out_fields[c] = tbl.column(c).combine_chunks()
        for col, op, out in specs:
            if op == "count":  # count ignores col — don't resolve it
                out_fields[out] = pa.array([], pa.int64())
                continue
            typ = tbl.schema.field(col).type
            if op == "sum":
                # mirror the non-empty branch's widening (sum of bool /
                # narrow signed emits int64, unsigned emits uint64) so
                # empty batches don't produce divergent block schemas
                if pa.types.is_boolean(typ) or (
                    pa.types.is_signed_integer(typ) and typ.bit_width < 64
                ):
                    typ = pa.int64()
                elif pa.types.is_unsigned_integer(typ):
                    typ = pa.uint64()
            out_fields[out] = pa.array([], typ)
        return pa.table(out_fields)
    srt = tbl.take(
        pc.sort_indices(tbl, sort_keys=[(c, "ascending") for c in key_cols])
    )
    n = len(srt)
    starts = np.flatnonzero(run_change_mask(srt, key_cols))
    ends = np.concatenate([starts[1:], [n]])
    take_idx = pa.array(starts, pa.int64())
    for c in key_cols:
        # take from the arrow column (not a numpy round-trip) so the
        # output preserves the exact input type — pa.array(np) re-infers
        # large_string as string etc., diverging from the empty branch
        out_fields[c] = srt.column(c).combine_chunks().take(take_idx)
    for col, op, out in specs:
        if op == "count":
            out_fields[out] = pa.array(ends - starts, pa.int64())
            continue
        v = srt.column(col).to_numpy(zero_copy_only=False)
        if op == "sum" and v.dtype.kind in "bi" and v.dtype.itemsize < 8:
            # np.add.reduceat keeps the input dtype: bool would OR, int8
            # would overflow — widen before summing
            v = v.astype(np.int64)
        elif op == "sum" and v.dtype.kind == "u" and v.dtype.itemsize < 8:
            # make numpy's unsigned promotion explicit (and match the
            # empty branch): narrow unsigned sums emit uint64
            v = v.astype(np.uint64)
        out_fields[out] = pa.array(_UFUNC[op].reduceat(v, starts))
    return pa.table(out_fields)


def pool_cpus() -> int:
    """Best-effort CPU count of the Ray pool (driver-side probe)."""
    try:
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:  # pragma: no cover - resources probe best-effort
        return 8


def default_nparts() -> int:
    return max(4, pool_cpus() * 2)


# ``aggregator_ray_remote_args`` for every ``Dataset.join``. Ray 2.49's
# join aggregator actors each hold a fractional CPU while its shuffle
# tasks ask for a whole one, so on a 1-CPU session the shuffle tasks are
# never scheduled and the join hangs. Zero-CPU aggregators leave the
# CPU to the tasks.
JOIN_AGGREGATOR_ARGS = {"num_cpus": 0}


def _salt_parts(batch: pa.Table, key_cols: list[str], nparts: int) -> pa.Table:
    """Append ``__part`` = hash(key columns) % nparts — same key, same
    partition; the partition count (≈2×CPU) bounds per-group Python
    calls downstream regardless of key cardinality.

    ``nparts`` MUST be computed ONCE at the driver (``default_nparts()``)
    and closed over — never probed inside the worker: a per-batch probe
    can see different CPU totals mid-stage (autoscaling, probe failure
    fallback) and would silently split one key across partitions."""
    import pandas as pd

    h = np.zeros(len(batch), dtype=np.uint64)
    for c in key_cols:
        arr = batch.column(c)
        if pa.types.is_integer(arr.type):
            # hash integer keys on a canonical int64 view: a nullable int
            # column converts to float64 in batches that contain a null
            # and int64 in batches that don't, and pandas hashes
            # int64(5) != float64(5.0) — the same key would land in two
            # partitions depending on its batch's null content
            nulls = arr.is_null().to_numpy(zero_copy_only=False)
            vals = (
                arr.fill_null(0).cast(pa.int64())
                .to_numpy(zero_copy_only=False)
            )
            hc = pd.util.hash_array(np.ascontiguousarray(vals))
            if nulls.any():
                hc = hc.copy()
                hc[nulls] = np.uint64(0x9E3779B97F4A7C15)
        else:
            hc = pd.util.hash_array(arr.to_numpy(zero_copy_only=False))
        with np.errstate(over="ignore"):
            h = h * np.uint64(1000003) ^ hc
    return batch.append_column(
        "__part", pa.array((h % nparts).astype(np.int64), pa.int64())
    )


def bucket_aggregate(
    ds: ray.data.Dataset,
    key_cols: list[str],
    specs: list[tuple[str, str, str]],
    nparts: int | None = None,
) -> ray.data.Dataset:
    """Keyed aggregation with per-batch combining and NO per-key Python.

    ``specs`` is a list of (value_col, op, out_name) with op one of
    sum/min/max/count; the output has ``key_cols`` + one column per
    spec. count ignores its value_col (pass any column name)."""
    if nparts is None:
        nparts = default_nparts()

    # map-side combiner: partial aggregates per batch
    def partial(batch: pa.Table) -> pa.Table:
        return _salt_parts(_agg_block(batch, key_cols, specs), key_cols, nparts)

    merge_specs = [(out, _MERGE_OP[op], out) for _, op, out in specs]

    def merge(group: pa.Table) -> pa.Table:
        return _agg_block(group.drop_columns(["__part"]), key_cols, merge_specs)

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__part")
        .map_groups(merge, batch_format="pyarrow")
    )
