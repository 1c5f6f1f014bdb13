"""Compound / self-overlay operations.

* union_full_self — iterative "flat union" of a self-overlapping layer
  (geofileops geoops.py:3871 → geoops_sql/_union_full.py:25-416): loop
  {difference-self → keep; intersection-self (dedup) → next round} until
  no intersections remain, then re-attach the attributes of every
  original row covering each flat piece, aggregated as LISTS (the
  json_group_array analogue — a real list<> column here) or COLUMNS
  (i<n>_col pivot).
* dissolve_within_distance — merge features closer than ``distance``
  (geoops.py:37-396, all 9 steps): dissolve → +buffer(d/2) → dissolve →
  −buffer(d/2) → connector candidates = difference vs the plain
  dissolve → keep pieces intersecting >1 distinct original feature
  (or the area/perimeter OR-filter when close_internal_gaps=True) →
  append to the plain dissolve → final dissolve. Original boundaries
  are preserved exactly; buffer corner artifacts are dropped by the
  neighbour filter.
* select_two_layers — user batch-level SQL over two co-located layers
  (geoops.py:3302 → _geoops_sql.py:2700-2749): the two sides are
  cell-co-grouped and the user's DuckDB SQL runs per cell with views
  ``layer1`` and ``layer2`` — the {batch_filter} placeholder of the
  reference becomes the cell boundary.
* concat — N layers appended with NULL-filled missing columns
  (geoops.py:2029-2135).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..config import OPTIONS
from ..geom import GeometryArray, bbox_join, bbox_join_auto, from_wkb, to_wkb
from ..geom.overlay import parts_to_geom, polygon_overlay, union_all_parts
from .agg import JOIN_AGGREGATOR_ARGS
from .geometry_batch import decode_geometry
from .spatial_join import _pair_table, _ref_cell, cell_cogroup

_GEOM = "geometry"

_SM64_MASK = (1 << 63) - 1  # keep ids positive in int64


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _ids_to_blob_array(ids: np.ndarray) -> pa.Array:
    """int64 ids → variable-binary column of 8-byte big-endian blobs
    (vectorized: one buffer build, no per-row Python). Big-endian so
    byte-lexicographic blob order == numeric id order."""
    n = len(ids)
    buf = np.ascontiguousarray(ids.astype(np.int64)).view(np.uint64).astype(">u8").tobytes()
    fsb = pa.Array.from_buffers(pa.binary(8), n, [None, pa.py_buffer(buf)])
    return fsb.cast(pa.binary())


def _blob_union(b1: bytes, b2: bytes) -> bytes:
    """Union of two covering-set blobs (each a sorted sequence of 8-byte
    big-endian ids) → the merged sorted-set blob. EXACT piece identity
    for union_full_self rounds: a round-r intersection piece of parents
    with covering sets S1, S2 is geometrically S1∪S2's common region, so
    set equality ⇔ geometric identity — no hash, no collisions at any
    scale (replaces the 63-bit splitmix pair key, whose birthday bound
    meant ~n²/2^64 silent piece merges at the 10^12-pair design point)."""
    a = np.frombuffer(b1, dtype=">u8")
    b = np.frombuffer(b2, dtype=">u8")
    return np.union1d(a, b).astype(">u8").tobytes()


def _splitmix64_np(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 over int64 → non-negative int64."""
    with np.errstate(over="ignore"):
        x = x.astype(np.uint64)
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return (x & np.uint64(_SM64_MASK)).astype(np.int64)


def _self_round(
    ds: ray.data.Dataset, size: float
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """One union_full_self round: returns (difference_parts,
    dedup_intersections). difference part = row − union(other rows);
    intersection = pairwise row∩row for id_a < id_b, deduplicated
    geometrically (reference delete_duplicate_geometries step,
    _union_full.py:150-236).

    Shape: ONE self co-group per round emitting a tagged stream —
    ``__kind`` 0 = locally-resolved difference rows (single-cell rows,
    or every row under broadcast), 1 = pending difference straddlers
    (gathered per doc id afterwards), 2 = pairwise intersections
    (batched kernels via ``_pairwise_overlay_geoms``, id1 < id2 so each
    unordered pair is emitted exactly once). This replaces the round-1
    shape that shuffled one Python group per input row."""
    from .overlay_ops import (
        _difference_group_part,
        _pairwise_overlay_geoms,
    )
    from .spatial_join import (
        _broadcast_side,
        _owner_cell,
        _prefixed_schema,
        broadcast_cogroup,
        delete_duplicate_geometries,
    )

    names = ["doc_id", _GEOM, "__g1", "__cand", "__done", "__kind", "__pass"]

    def _tag(t: pa.Table, kind: int, done: bool) -> pa.Table:
        n = len(t)
        cols = {c: t.column(c) for c in t.column_names}
        if _GEOM not in cols:
            cols[_GEOM] = pa.nulls(n, pa.binary())
        if "__g1" not in cols:
            cols["__g1"] = pa.nulls(n, pa.binary())
        if "__cand" not in cols:
            cols["__cand"] = pa.nulls(n, pa.binary())
        cols["__done"] = pa.array(np.full(n, done, dtype=bool))
        cols["__kind"] = pa.array(np.full(n, kind, dtype=np.int8))
        if "__pass" not in cols:
            cols["__pass"] = pa.array(np.zeros(n, dtype=bool))
        return pa.table({c: cols[c] for c in names})

    def _fixed8_codes(col) -> np.ndarray | None:
        """Zero-copy order-preserving uint64 codes when EVERY blob is
        exactly 8 bytes (all round-0 covering sets — the only round at
        full data scale): big-endian bytes → uint64 keeps lex order.
        Returns None for mixed-length blobs (later rounds fall back)."""
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(col)
        if n == 0:
            return np.zeros(0, np.uint64)
        if col.null_count or col.type != pa.binary():  # int32 offsets only
            return None
        offs = np.frombuffer(col.buffers()[1], np.int32)[
            col.offset : col.offset + n + 1
        ].astype(np.int64)
        if not bool(np.all(np.diff(offs) == 8)):
            return None
        data = np.frombuffer(col.buffers()[2], np.uint8)
        blob = np.ascontiguousarray(data[offs[0] : offs[0] + 8 * n])
        return blob.view(">u8").astype(np.uint64)

    def group_fn(g1, ga1, g2, ga2, cell):
        # doc_id is the covering-set BLOB (sorted 8-byte big-endian ids);
        # code blobs to ints once per group so the != / < filters over
        # O(candidate pairs) stay vectorized integer compares. The 8-byte
        # fast path avoids the former per-task to_pylist + object
        # np.unique over the entire broadcast side (~1-2 s of Python
        # sorting per task at 500k rows — it dominated the round).
        a1 = g1.column("l1_doc_id")
        a2 = g2.column("l2_doc_id")
        c1, c2 = _fixed8_codes(a1), _fixed8_codes(a2)
        if c1 is None or c2 is None:
            ids1 = np.asarray(a1.to_pylist(), dtype=object)
            ids2 = np.asarray(a2.to_pylist(), dtype=object)
            _, inv = np.unique(
                np.concatenate([ids1, ids2]), return_inverse=True
            )
            c1, c2 = inv[: len(ids1)], inv[len(ids1):]
        b1 = ga1.bounds()
        ia, ib = bbox_join_auto(b1, ga2)
        if len(ia):
            keep = c1[ia] != c2[ib]
            ia, ib = ia[keep], ib[keep]
            if cell is not None and len(ia):
                ref = _ref_cell(b1[ia], ga2.bounds()[ib], size)
                own = ref == cell
                ia, ib = ia[own], ib[own]
        parts: list[pa.Table] = []
        # ---- pairwise intersections, id1 < id2 (once per unordered pair)
        lt = c1[ia] < c2[ib] if len(ia) else np.zeros(0, dtype=bool)
        pia, pib = ia[lt], ib[lt]
        wkb = _pairwise_overlay_geoms(ga1, pia, ga2, pib)
        keepw = (
            np.array([w is not None for w in wkb], dtype=bool)
            if len(pia) else np.zeros(0, dtype=bool)
        )
        kia, kib = pia[keepw], pib[keepw]
        # materialize blob bytes ONLY for the kept pairs (not the whole
        # broadcast side)
        u1 = a1.take(pa.array(kia, pa.int64())).to_pylist() if len(kia) else []
        u2 = a2.take(pa.array(kib, pa.int64())).to_pylist() if len(kib) else []
        inter_t = pa.table(
            {
                "doc_id": pa.array(
                    [_blob_union(x, y) for x, y in zip(u1, u2)],
                    pa.binary(),
                ),
                _GEOM: pa.array([w for w in wkb if w is not None], pa.binary()),
            }
        )
        parts.append(_tag(inter_t, 2, done=True))
        # ---- difference side: local rows resolved here, straddlers pend
        done_t, pend_t = _difference_group_part(
            g1, ga1, ga2, "l1_" + _GEOM, g2.column("l2_" + _GEOM),
            ia, ib, cell, size, "difference", keep_no_candidate_rows=True,
        )
        parts.append(
            _tag(done_t.rename_columns(["doc_id", _GEOM, "__pass"]), 0, True)
        )
        parts.append(
            _tag(pend_t.rename_columns(["doc_id", "__g1", "__cand"]), 1, False)
        )
        return pa.concat_tables(parts)

    f1g = _prefixed_schema(ds.schema().base_schema, "l1_", ["doc_id", _GEOM])
    f2g = _prefixed_schema(ds.schema().base_schema, "l2_", ["doc_id", _GEOM])
    g2t = _broadcast_side(ds, f2g)
    if g2t is not None:
        tagged = broadcast_cogroup(
            ds, g2t, group_fn, f1g, f2g,
            rows_per_task=OPTIONS.broadcast_rows_per_task or None,
        ).materialize()
    else:
        tagged = cell_cogroup(
            ds, ds, group_fn, ["doc_id"], ["doc_id"], size=size,
            broadcast=False,
        ).materialize()

    def strip(batch: pa.Table) -> pa.Table:
        return batch.select(["doc_id", _GEOM])

    def strip_pass(batch: pa.Table) -> pa.Table:
        return batch.select(["doc_id", _GEOM, "__pass"])

    diff_done = tagged.filter(expr="__kind == 0").map_batches(
        strip_pass, batch_format="pyarrow"
    )

    from .overlay_ops import _resolve_pending_batched

    pend = tagged.filter(expr="__kind == 1").map_batches(
        lambda b: b.select(["doc_id", "__g1", "__cand"]), batch_format="pyarrow"
    )
    resolved = _resolve_pending_batched(
        pend, ["doc_id"], "difference", keep_no_candidate_rows=True,
        emit_pass=True,
    )
    diff = diff_done.union(resolved)
    inters = tagged.filter(expr="__kind == 2").map_batches(
        strip, batch_format="pyarrow"
    )
    inters = delete_duplicate_geometries(inters)
    return diff, inters


def union_full_self(
    ds: ray.data.Dataset,
    agg: str = "lists",
    agg_cols: list[str] | None = None,
    size: float | None = None,
    max_rounds: int = 6,
) -> ray.data.Dataset:
    """Flat self-union: output pieces tile the input coverage without
    overlaps; each piece carries the aggregated attributes of every input
    row covering it (agg='lists' → list columns; 'count' → cover count).
    """
    size = size or OPTIONS.cell_size
    agg_cols = list(agg_cols or [])
    base = ds.map_batches(
        lambda b: b.select(list(dict.fromkeys(["doc_id", *agg_cols, _GEOM]))),
        batch_format="pyarrow",
    )
    def _encode_round0(b: pa.Table) -> pa.Table:
        # identity through the rounds is the covering-set blob (sorted
        # 8-byte big-endian original ids) — exact at any scale
        ids = b.column("doc_id").to_numpy()
        return pa.table(
            {"doc_id": _ids_to_blob_array(ids), _GEOM: b.column(_GEOM)}
        )

    current = base.map_batches(_encode_round0, batch_format="pyarrow")
    pieces: list[ray.data.Dataset] = []
    for rnd in range(max_rounds):
        diff, inters = _self_round(current, size)

        def tag(batch: pa.Table, _r: int = rnd) -> pa.Table:
            # piece id = round byte + covering-set blob (exact: set
            # equality ⇔ geometric identity within a round, and the
            # round prefix separates rounds)
            ids = batch.column("doc_id").combine_chunks()
            pid = pa.array(
                [bytes([_r]) + (v or b"") for v in ids.to_pylist()],
                pa.binary(),
            )
            # __pass ⇒ "covered only by itself" holds ONLY for round-0
            # pieces (a later round's piece derives from an intersection,
            # so ≥2 original rows cover it even when the piece itself
            # passed that round's self-difference untouched)
            p = (
                batch.column("__pass")
                if _r == 0
                else pa.array(np.zeros(len(batch), dtype=bool))
            )
            return pa.table(
                {
                    "piece_id": pid,
                    _GEOM: batch.column(_GEOM),
                    "__pass": p,
                }
            )

        pieces.append(diff.map_batches(tag, batch_format="pyarrow"))
        # materialize: the dedup output is consumed twice (the emptiness
        # probe AND the next round's input — which itself reads it via
        # the broadcast probe plus the cogroup); without this the whole
        # dedup shuffle re-executes up to 3× per round
        inters = inters.materialize()
        if inters.count() == 0:
            break
        current = inters
    flat = pieces[0]
    for p in pieces[1:]:
        flat = flat.union(p)
    flat = flat.materialize()

    # re-attach attributes: spatial join piece × original rows where the
    # original covers the piece (reference join_by_location re-attach,
    # _union_full.py:238-302); rect fast path handles the common case
    from .spatial_join import join_by_location

    def _cover_join(pieces_ds):
        return join_by_location(
            pieces_ds.map_batches(
                lambda b: b.select(["piece_id", _GEOM]).rename_columns(
                    ["doc_id", _GEOM]
                ),
                batch_format="pyarrow",
            ),
            base,
            "coveredby is True",
            # explicit: the []-default would probe _attr_cols (schema
            # unavailable on an empty layer); doc_id is carried anyway
            cols1=["doc_id"],
            cols2=agg_cols,
            size=size,
        )

    if agg == "count" and not agg_cols:
        # Untouched round-0 pieces (zero candidates after interior
        # pruning — output bytes ARE the input bytes) are covered by
        # exactly ONE input row: themselves. They skip the cover
        # re-attach join; on mostly-disjoint layers that is nearly every
        # piece (the reference joins all pieces, _union_full.py:238-302).
        # Cut pieces take the native path: C++ groupby count + one hash
        # join back to geometries — no per-piece Python group calls.
        def pass_one(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "piece_id": batch.column("piece_id"),
                    "nb_covering": pa.array(
                        np.ones(len(batch), dtype=np.int64)
                    ),
                    _GEOM: batch.column(_GEOM),
                }
            )

        passed = flat.filter(expr="__pass == True").map_batches(
            pass_one, batch_format="pyarrow"
        )
        cut = flat.filter(expr="__pass == False").materialize()
        n_cut = cut.count()
        if n_cut == 0:
            return passed

        from .agg import bucket_aggregate

        # combiner-first vectorized count (Ray's groupby().count() costs
        # ~100-200µs Python per distinct key — the key here is a piece id)
        counts = bucket_aggregate(
            _cover_join(cut), ["l1_doc_id"],
            [("l1_doc_id", "count", "nb_covering")],
        ).map_batches(
            lambda b: pa.table(
                {
                    "piece_id": b.column("l1_doc_id"),
                    "nb_covering": b.column("nb_covering"),
                }
            ),
            batch_format="pyarrow",
        )
        geoms = cut.map_batches(
            lambda b: b.select(["piece_id", _GEOM]), batch_format="pyarrow"
        )
        from .agg import pool_cpus

        ncpu = pool_cpus()
        # scale hash-join partitions with both pool size and piece count
        nparts = max(2, min(max(ncpu, 16), n_cut // 10_000 + ncpu))
        cut_out = counts.join(
            geoms, join_type="inner", num_partitions=nparts, on=("piece_id",),
            aggregator_ray_remote_args=JOIN_AGGREGATOR_ARGS,
        )
        return cut_out.union(passed)

    joined = _cover_join(flat)

    # LISTS aggregation without one Python group call per piece: salt
    # partitions by piece id, then per partition ONE arrow sort finds the
    # piece runs and each list column is assembled as a ListArray from
    # run offsets (values ordered ascending, nulls last — the reference's
    # json_group_array ordering analogue)
    def per_part_lists(group: pa.Table) -> pa.Table:
        group = group.drop_columns(["__part"])
        l2types = {c: group.schema.field("l2_" + c).type for c in agg_cols}
        if len(group) == 0:
            cols = {
                "piece_id": pa.array([], pa.binary()),
                "nb_covering": pa.array([], pa.int64()),
            }
            for c in agg_cols:
                cols[f"{c}_list"] = pa.array([], pa.list_(l2types[c]))
            cols[_GEOM] = pa.array([], pa.binary())
            return pa.table(cols)
        srt = group.take(
            pc.sort_indices(group, sort_keys=[("l1_doc_id", "ascending")])
        )
        k = srt.column("l1_doc_id").to_numpy(zero_copy_only=False)
        n = len(k)
        new = np.ones(n, dtype=bool)
        new[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(new)
        L = np.diff(np.append(starts, n))
        first = pa.array(starts, pa.int64())
        offsets = pa.array(
            np.concatenate([[0], np.cumsum(L)]).astype(np.int32)
        )
        cols = {
            "piece_id": srt.column("l1_doc_id").take(first),
            "nb_covering": pa.array(L.astype(np.int64), pa.int64()),
        }
        if agg_cols:
            rid = pa.array(
                np.repeat(np.arange(len(starts), dtype=np.int64), L)
            )
            for c in agg_cols:
                v = srt.column("l2_" + c)
                order = pc.sort_indices(
                    pa.table({"r": rid, "v": v}),
                    sort_keys=[("r", "ascending"), ("v", "ascending")],
                    null_placement="at_end",
                )
                vals = v.take(order).combine_chunks()
                cols[f"{c}_list"] = pa.ListArray.from_arrays(offsets, vals)
        cols[_GEOM] = srt.column("l1_geometry").take(first)
        return pa.table(cols)

    from .agg import _salt_parts, default_nparts

    nparts = default_nparts()  # fixed at the driver
    out = (
        joined.map_batches(
            lambda b: _salt_parts(b, ["l1_doc_id"], nparts),
            batch_format="pyarrow",
        )
        .groupby("__part")
        .map_groups(per_part_lists, batch_format="pyarrow")
    )
    if agg != "columns" or not agg_cols:
        return out
    # COLUMNS pivot (reference _union_full.py:365-416): i<n>_<col> wide
    # columns, width = global max covering count (probed first — same
    # two-step as the reference's max_intersections query)
    from ray.data.aggregate import Max

    out = out.materialize()
    maxn = int(out.aggregate(Max("nb_covering"))["max(nb_covering)"] or 0)

    def pivot(batch: pa.Table) -> pa.Table:
        res = {
            "piece_id": batch.column("piece_id"),
            "nb_covering": batch.column("nb_covering"),
        }
        for c in agg_cols:
            vt = batch.schema.field(f"{c}_list").type.value_type
            lists = batch.column(f"{c}_list").to_pylist()
            for i in range(maxn):
                res[f"i{i + 1}_{c}"] = pa.array(
                    [(v[i] if v is not None and len(v) > i else None) for v in lists],
                    type=vt,
                )
        res[_GEOM] = batch.column(_GEOM)
        return pa.table(res)

    return out.map_batches(pivot, batch_format="pyarrow")


def _wkb_hash_ids(wkb_col) -> pa.Array:
    """Vectorized 63-bit content ids for a WKB column (pandas siphash —
    one C pass instead of a per-row hashlib call). Same collision class
    as the blake2b-8 it replaces; used only to give dissolve outputs an
    identity, where row counts are ≪ input rows."""
    import pandas as pd

    arr = np.asarray(wkb_col.to_pylist(), dtype=object)
    ids = (pd.util.hash_array(arr) >> np.uint64(1)).astype(np.int64)
    return pa.array(ids, pa.int64())


def _geom_hash_ids(ds: ray.data.Dataset) -> ray.data.Dataset:
    """{geometry} → {doc_id, geometry} with a deterministic 63-bit
    blake2b id per geometry. Used to give dissolve outputs (which carry
    no ids) an identity for downstream overlay ops; cost is one hash per
    dissolved row (≪ input rows)."""

    def fn(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": _wkb_hash_ids(batch.column(_GEOM)), _GEOM: batch.column(_GEOM)}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def dissolve_within_distance(
    ds: ray.data.Dataset,
    distance: float,
    gridsize: float = 0.0,
    close_internal_gaps: bool = False,
    groupby: list[str] | None = None,  # ignored: reference keeps no attrs
    size: float | None = None,
) -> ray.data.Dataset:
    """Merge features closer than ``distance``, preserving the original
    boundaries (the reference's full 9-step plan, geoops.py:37-396):

    1. dissolve input (explode)                        geoops.py:125-137
    2. +buffer(d/2, square endcap, mitre 1.25)         geoops.py:146-160
    3. dissolve the grown layer                        geoops.py:167-180
    4. −buffer(d/2, mitre 2, explode)                  geoops.py:186-201
    5. connector candidates = step4 − step1 (explode)  geoops.py:217-230
    6. tiny +buffer so "touches 2 neighbours" is
       robust to rounding                              geoops.py:232-252
    7. keep pieces intersecting >1 DISTINCT original
       input feature (close_internal_gaps=False), or
       the area/perimeter OR-filter when True          geoops.py:254-346
    8. append kept pieces to the step-1 dissolve       geoops.py:360-369
    9. final dissolve (explode) with ``gridsize``      geoops.py:371-384

    Step 7 is the part that keeps original boundaries intact: +/− buffer
    artifacts (beveled corners, spikes) touch only ONE original feature
    and are dropped; only true gap connectors survive.
    """
    from ..geom.measure import area as _area
    from ..geom.measure import perimeter as _perim
    from .dissolve import dissolve
    from .geometry_batch import geometry_op
    from .overlay_ops import difference, intersection
    from .single_layer import buffer as buffer_op

    # 1-4: close all gaps up to `distance`, then shrink back
    d0 = _geom_hash_ids(dissolve(ds, explodecollections=True, cell_size=size))
    grown = buffer_op(
        d0, distance / 2.0, endcap_style="square", join_style="mitre",
        mitre_limit=1.25,
    )
    d1 = dissolve(grown, explodecollections=True, cell_size=size)
    shrunk = buffer_op(
        _geom_hash_ids(d1), -(distance / 2.0), endcap_style="square",
        join_style="mitre", mitre_limit=2.0, explodecollections=True,
    )

    # 5: candidate connector pieces
    parts = difference(shrunk, d0, cols1=[], size=size, explodecollections=True)
    # reference uses gridsize/10 else 1e-10 (geoops.py:234); our sweep
    # kernel's snap tolerance eats contact strips under ~1e-8, so the
    # fallback is 1e-6 — still geometrically negligible and rounded away
    # by any practical gridsize
    eps = gridsize / 10.0 if gridsize > 0.0 else 1e-6

    def prep_parts(batch: pa.Table) -> pa.Table:
        # 6: eps-buffer; carry per-piece area/perimeter + the buffered
        # WKB as plain columns so the neighbour stats need no re-join
        from ..geom.algorithms import buffer as buf_kernel

        ga = decode_geometry(batch)
        gb = buf_kernel(
            ga, eps, cap_style="square", join_style="mitre", mitre_limit=1.25
        )
        wkb = pa.array(to_wkb(gb), pa.binary())
        return pa.table(
            {
                "doc_id": _wkb_hash_ids(wkb),
                "p_area": pa.array(_area(gb), pa.float64()),
                "p_perim": pa.array(_perim(gb), pa.float64()),
                "piece_wkb": wkb,
                _GEOM: wkb,
            }
        )

    parts_b = parts.map_batches(
        prep_parts, batch_format="pyarrow"
    ).materialize()
    kept = None
    if parts_b.count() > 0:
        # 7: neighbour stats per piece against the ORIGINAL input
        # features (not the dissolve) — pair intersections give contact
        # geometry
        orig = ds.map_batches(
            lambda b: b.select(["doc_id", _GEOM]), batch_format="pyarrow"
        )
        pairs = intersection(
            parts_b, orig, cols1=["p_area", "p_perim", "piece_wkb"],
            cols2=[], size=size,
        )

        def per_part(group: pa.Table) -> pa.Table:
            # all pieces of one salt partition at once: distinct-
            # neighbour counts from run boundaries, contact-geometry
            # sums via reduceat (geoops.py:258-281's filter, vectorized)
            srt = group.take(
                pc.sort_indices(
                    group,
                    sort_keys=[
                        ("l1_doc_id", "ascending"), ("l2_doc_id", "ascending")
                    ],
                )
            )
            k1 = srt.column("l1_doc_id").to_numpy()
            k2 = srt.column("l2_doc_id").to_numpy()
            n = len(k1)
            if n == 0:
                return pa.table(
                    {"doc_id": pa.array([], pa.int64()),
                     _GEOM: pa.array([], pa.binary())}
                )
            new1 = np.concatenate([[True], k1[1:] != k1[:-1]])
            starts = np.flatnonzero(new1)
            L = np.diff(np.concatenate([starts, [n]]))
            run_id = np.repeat(np.arange(len(starts)), L)
            newpair = new1 | np.concatenate([[True], k2[1:] != k2[:-1]])
            nb = np.bincount(run_id[newpair], minlength=len(starts))
            if not close_internal_gaps:
                keep = nb > 1
            else:
                ig = from_wkb(srt.column(_GEOM))
                n_len = np.add.reduceat(_length_of(ig), starts)
                n_per = np.add.reduceat(_perim(ig), starts)
                p_area = srt.column("l1_p_area").to_numpy()[starts]
                p_perim = srt.column("l1_p_perim").to_numpy()[starts]
                keep = (
                    (nb > 1)
                    | (p_area > distance * distance)
                    | ((n_per / 2.0 + n_len) > 0.8 * p_perim)
                )
            sel = starts[keep]
            return pa.table(
                {
                    "doc_id": pa.array(k1[sel], pa.int64()),
                    _GEOM: srt.column("l1_piece_wkb").take(
                        pa.array(sel, pa.int64())
                    ),
                }
            )

        from .agg import _salt_parts, default_nparts

        nparts = default_nparts()  # fixed at the driver
        kept = (
            pairs.map_batches(
                lambda b: _salt_parts(b, ["l1_doc_id"], nparts),
                batch_format="pyarrow",
            )
            .groupby("__part")
            .map_groups(per_part, batch_format="pyarrow")
        )

    # 8-9: append connectors and re-dissolve; gridsize applied last
    merged = d0 if kept is None else d0.union(kept)
    final = dissolve(merged, explodecollections=True, cell_size=size)
    if gridsize > 0.0:
        final = final.map_batches(
            geometry_op(lambda ga: ga, gridsize=gridsize,
                        explodecollections=True),
            batch_format="pyarrow",
        )
    return final


def _length_of(ga: GeometryArray) -> np.ndarray:
    from ..geom.measure import length

    return length(ga)


def select_two_layers(
    ds1: ray.data.Dataset,
    ds2: ray.data.Dataset,
    sql: str,
    size: float | None = None,
    remove_slivers: bool = False,
    sliver_tolerance: float | None = None,
) -> ray.data.Dataset:
    """Run user DuckDB SQL per spatial cell with views ``layer1`` /
    ``layer2`` (the reference's two-layer SQL surface with {batch_filter}
    → cell boundaries; the query must be cell-local, same caveat as the
    reference's batch-parallel mode).

    ``remove_slivers`` applies the reference's sliver rule to the
    output polygons (geoops.select_two_layers remove_slivers,
    _get_sliver_where _geoops_sql.py:4059-4130: average width <
    tolerance AND precision-reduction collapses the ring); the
    tolerance defaults to OPTIONS.sliver_tolerance (0.001, the
    projected-CRS default), negative keeps ONLY slivers."""
    size = size or OPTIONS.cell_size

    def group_fn(g1, ga1, g2, ga2, cell):
        import duckdb

        con = duckdb.connect()
        try:
            from .sqlfuncs import register_st_functions, wants_st

            if wants_st(sql):
                register_st_functions(con)
            l1 = g1.rename_columns([c[3:] for c in g1.column_names])
            l2 = g2.rename_columns([c[3:] for c in g2.column_names])
            con.register("layer1", l1)
            con.register("layer2", l2)
            return con.execute(sql).arrow()
        finally:
            con.close()

    from .spatial_join import _attr_cols

    # user SQL is written against cell-local replicated views (the
    # documented {batch_filter} analogue) — never broadcast-rewrite it
    out = cell_cogroup(
        ds1, ds2, group_fn, _attr_cols(ds1), _attr_cols(ds2), size=size,
        broadcast=False,
    )
    if remove_slivers:
        from .overlay_ops import _filter_slivers

        tol = (
            OPTIONS.sliver_tolerance
            if sliver_tolerance is None
            else sliver_tolerance
        )
        # reference skips the filter when the output has no geometry
        # column (_geoops_sql.py:3659-3669); the user SQL decides
        probe = out.schema().base_schema
        if any(f.name == _GEOM for f in probe):
            out = _filter_slivers(out, tol)
    return out


def concat(datasets: list[ray.data.Dataset]) -> ray.data.Dataset:
    """Append N layers, NULL-filling missing columns
    (geoops.concat, geoops.py:2029-2135)."""
    schemas = [d.schema().base_schema for d in datasets]
    all_fields: dict[str, pa.Field] = {}
    for s in schemas:
        for f in s:
            all_fields.setdefault(f.name, f)
    order = list(all_fields)

    def harmonize(batch: pa.Table) -> pa.Table:
        for name in order:
            if name not in batch.column_names:
                batch = batch.append_column(
                    name, pa.nulls(len(batch), all_fields[name].type)
                )
        return batch.select(order)

    out = datasets[0].map_batches(harmonize, batch_format="pyarrow")
    for d in datasets[1:]:
        out = out.union(d.map_batches(harmonize, batch_format="pyarrow"))
    return out
