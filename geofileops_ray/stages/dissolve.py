"""Dissolve family: groupby-union aggregation.

Reference semantics (SURVEY.md §2.5, §3.3):
* points/lines — one ``ST_Union … GROUP BY`` shuffle
  (geofileops _geoops_sql.py:4600-4881);
* polygons — the flagship multi-pass tiled dissolve
  (_geoops_gpd.py:1301-1474): per tile union → border split; notonborder
  pieces are (pre-)final, onborder pieces re-dissolve on a strictly
  coarser grid next pass; a final per-groupkey union reconciles the
  remaining boundary pieces.

Ray shape: driver loop of passes; each pass =
``map_batches(assign center cell) → groupby(cell).map_groups(
component-union + border-split)`` with partial attribute aggregation
combined across passes (the combiner-before-groupby pattern); then one
final ``groupby(group keys)`` that unions the per-pass pieces and
finalizes the aggregates. Each row is assigned to exactly ONE cell (its
bbox center), so partial aggregates are exact without the reference's
JSON-DISTINCT row dedup (_geoops_gpd.py:1141-1180 — needed there because
tiles re-read overlapping rows; our assignment never duplicates).
Geometric correctness does not depend on the border classification: the
final union per group key merges whatever pieces remain, the passes are
pure distributed pre-aggregation (boundary-geometry reconciliation).

Aggregates: count/sum/min/max/mean are carried as scalar partials
(mean = sum+count pair); concat/count_distinct/concat_distinct carry a
value-list column (only when requested — they are holistic).
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.dataset import MaterializedDataset

from ..config import OPTIONS
from ..geom import GeometryArray, from_wkb, to_wkb, to_wkb_arrow
from ..geom.array import LINESTRING, MULTILINESTRING, POINT, POLYGON
from ..geom.overlay import (
    clip_ring_rect,
    ensure_closed,
    parts_to_geom,
    ring_signed_area,
    union_all_parts,
)
from ..tiling.cells import CELL_OFFSET, CELL_SHIFT, cell_bounds
from ..util import iter_blocks
from .geometry_batch import decode_geometry

_GEOM = "geometry"

AGG_FUNCS = (
    "count", "sum", "min", "max", "mean", "median",
    "concat", "count_distinct", "concat_distinct", "json",
)
_SCALAR_FUNCS = {"count", "sum", "min", "max", "mean"}


def _agg_from_lists(values: list, func: str):
    vals = [v for v in values if v is not None]
    if func == "count":
        return len(vals)
    if func == "count_distinct":
        return len(set(vals))
    if not vals:
        return None
    if func == "sum":
        return float(np.sum(vals))
    if func == "min":
        return min(vals)
    if func == "max":
        return max(vals)
    if func == "mean":
        return float(np.mean(vals))
    if func == "median":
        # holistic — carried as a value list (reference supports median
        # via SQLite aggregate, _geoops_sql.py:4729-4734)
        return float(np.median(np.asarray(vals, dtype=np.float64)))
    if func == "concat":
        return ",".join(str(v) for v in vals)
    if func == "concat_distinct":
        return ",".join(sorted({str(v) for v in vals}))
    if func == "json":
        # values are pre-encoded json objects per covered row (incl.
        # fid_orig — json_group_array(json_object(...)) analogue,
        # _geoops_sql.py:4694-4717); sorted for determinism
        return "[" + ",".join(sorted(vals)) + "]"
    raise ValueError(f"unknown agg {func}")


def _agg_out_type(
    src_type: pa.DataType, func: str, scalar_path: bool = False
) -> pa.DataType:
    """Arrow output type of an aggregate — mirrors what a NON-empty block
    would infer from ``_agg_from_lists`` python values (int64 for int
    min/max, string for string min/max, …), so empty / all-null blocks
    can be typed explicitly instead of diverging (float64 fallback or
    pa.null() inference → concat failure).

    ``scalar_path=True`` for the polygon-dissolve scalar partials, which
    carry numeric min/max as float64 state regardless of source type."""
    if func in ("count", "count_distinct"):
        return pa.int64()
    if func in ("concat", "concat_distinct", "json"):
        return pa.string()
    if func in ("sum", "mean", "median"):
        return pa.float64()
    # min / max keep the source value domain
    if scalar_path:
        return pa.float64()
    if pa.types.is_integer(src_type):
        return pa.int64()
    if pa.types.is_boolean(src_type):
        return pa.bool_()
    if pa.types.is_string(src_type) or pa.types.is_large_string(src_type):
        return pa.string()
    if pa.types.is_floating(src_type):
        return pa.float64()
    # binary / decimal / anything else: the values ARE that type — a
    # float64 fallback would make pa.array(values, float64) crash on
    # every non-empty block
    return src_type


def _dissolve_lines_points(
    ds: ray.data.Dataset,
    groupby: list[str],
    agg_columns: list[tuple[str, str, str]],
) -> ray.data.Dataset:
    """Single-shuffle dissolve for point/line layers
    (_geoops_sql.py:4600-4881: ST_Union + aggregates in one GROUP BY).
    Point union = distinct coords; line union = collection of parts
    (ST_LineMerge applied in spirit: single part stays LINESTRING).

    Shape: hash-bucket the group keys into ~2×CPU salt partitions and
    process each partition in ONE call (sort + run boundaries) — Ray's
    per-group task overhead (~100-200 µs/key) never multiplies by the
    key cardinality (a line dissolve keyed on a road id is millions of
    keys). Output parts are DETERMINISTICALLY ordered (lex by content),
    so the geometry blob is identical across runs/partitionings."""
    keys = list(groupby)

    def per_part(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        group = group.drop_columns(["__part"])
        n = len(group)
        srt = (
            group.take(
                pc.sort_indices(group, sort_keys=[(k, "ascending") for k in keys])
            )
            if keys and n
            else group
        )
        from .agg import run_change_mask

        # null-aware boundaries: a NULL group key is its own group (SQL
        # GROUP BY), not a continuation of the preceding key's run
        starts = np.flatnonzero(run_change_mask(srt, keys))
        ends = np.concatenate([starts[1:], [n]]) if len(starts) else starts
        ga = from_wkb(srt.column(_GEOM))
        geoms: list[tuple[int, list]] = []
        for s, e in zip(starts, ends):
            t = ga.part_types(int(s))
            if t == POINT:
                lo, hi = ga.geom_coord_ranges()
                pts = np.concatenate(
                    [ga.coords[lo[i] : hi[i]] for i in range(s, e)], axis=0
                )
                pts = np.unique(np.round(pts, 12), axis=0)
                if len(pts) == 1:
                    geoms.append((POINT, [[pts]]))
                else:
                    geoms.append(
                        (4, [[pts[k : k + 1]] for k in range(len(pts))])
                    )
            else:
                rings = []
                for i in range(s, e):
                    for part in ga._parts_of(int(i)):
                        rings.extend(part)
                rings.sort(key=lambda r: r.tobytes())
                geoms.append(
                    (LINESTRING, [[rings[0]]])
                    if len(rings) == 1
                    else (MULTILINESTRING, [[r] for r in rings])
                )
        first = pa.array(starts, pa.int64())
        cols: dict = {k: srt.column(k).take(first) for k in keys}
        for src, func, out_name in agg_columns:
            vals = srt.column(src).to_pylist() if n else []
            agg_vals = [
                _agg_from_lists(vals[s:e], func) for s, e in zip(starts, ends)
            ]
            # explicit type on BOTH branches: empty blocks (Ray probes
            # with them) and all-null agg values must not infer a
            # divergent block schema (float64 / pa.null() drift)
            cols[out_name] = pa.array(
                agg_vals, type=_agg_out_type(srt.schema.field(src).type, func)
            )
        cols[_GEOM] = (
            to_wkb_arrow(GeometryArray.from_parts(geoms))
            if geoms
            else pa.array([], pa.binary())
        )
        return pa.table(cols)

    from .agg import _salt_parts, default_nparts

    if keys:
        nparts = default_nparts()  # fixed at the driver
        return (
            ds.map_batches(
                lambda b: _salt_parts(b, keys, nparts), batch_format="pyarrow"
            )
            .groupby("__part")
            .map_groups(per_part, batch_format="pyarrow")
        )
    tagged = ds.map_batches(
        lambda b: b.append_column("__part", pa.array(np.zeros(len(b), np.int64))),
        batch_format="pyarrow",
    )
    return tagged.groupby("__part").map_groups(per_part, batch_format="pyarrow")


def _union_group_polygons(
    ga: GeometryArray, idx: np.ndarray
) -> list[list[np.ndarray]]:
    """Union polygons idx of ga with a connected-component fast path:
    only bbox-overlapping polygons can interact; singletons pass through
    with no sweep at all."""
    from ..geom import bbox_join

    if len(idx) == 0:
        return []
    if len(idx) == 1:
        return [p for p in ga._parts_of(int(idx[0]))]
    boxes = ga.bounds()[idx]
    # deterministic reduce order: a Ray group's row order varies run to
    # run (block arrival), and sweep-event tie-breaks on lattice inputs
    # follow input index — sort rows by content (bounds, size) so the
    # union output is bit-identical across runs/partitionings
    geo0, po0, ro0 = ga.geom_offsets, ga.part_offsets, ga.ring_offsets
    npts0 = ro0[po0[geo0[idx + 1]]] - ro0[po0[geo0[idx]]]
    order0 = np.lexsort(
        (npts0, boxes[:, 3], boxes[:, 2], boxes[:, 1], boxes[:, 0])
    )
    idx = idx[order0]
    boxes = boxes[order0]
    ia, ib = bbox_join(boxes, boxes)
    parent = np.arange(len(idx))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(ia, ib):
        if a < b:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    comps: dict[int, list[int]] = {}
    for k in range(len(idx)):
        comps.setdefault(find(k), []).append(k)
    out: list[list[np.ndarray]] = []
    mcomps: list[list[int]] = []
    for members in comps.values():
        if len(members) == 1:
            out.extend(ga._parts_of(int(idx[members[0]])))
        else:
            mcomps.append(members)
    if mcomps:
        # batched sweeps for the multi-member components: components are
        # bbox-disjoint so their windings never interact and the sweep
        # emits each component's union as separate rings — amortizes the
        # per-sweep fixed cost over many tiny components. Batches are
        # CAPPED by total point count (the sweep's strips span all x, so
        # a giant batch multiplies strip-segment incidences — measured
        # superlinear) and filled in MORTON order of component bbox
        # centers, so a batch is a compact 2-D block, not a thin row of
        # side-by-side components sharing every strip.
        from ..geom.boolops import union_ga

        geo, po, ro = ga.geom_offsets, ga.part_offsets, ga.ring_offsets
        npts = ro[po[geo[idx + 1]]] - ro[po[geo[idx]]]
        ctr = np.array(
            [
                (
                    boxes[ms[0], 0] + boxes[ms[0], 2],
                    boxes[ms[0], 1] + boxes[ms[0], 3],
                )
                for ms in mcomps
            ]
        ) * 0.5
        order = np.argsort(_morton_codes(ctr), kind="stable")
        CAP = 512
        batch: list[int] = []
        bpts = 0
        batches: list[list[int]] = []
        for oi in order:
            members = mcomps[int(oi)]
            cpts = int(npts[members].sum())
            if batch and bpts + cpts > CAP:
                batches.append(batch)
                batch, bpts = [], 0
            batch.extend(members)
            bpts += cpts
        if batch:
            batches.append(batch)
        for members in batches:
            u = union_ga(ga, idx[np.asarray(members, dtype=np.int64)])
            if u is None:  # unclosed ring — per-part python fallback
                u = union_all_parts(
                    [ga._parts_of(int(idx[m])) for m in members]
                )
            out.extend(u)
    return out


def _morton_codes(ctr: np.ndarray) -> np.ndarray:
    """Morton (Z-order) codes of 2-D points, quantized to a 2^16 grid
    over the points' own bbox — used only as a spatial sort key."""
    lo = ctr.min(axis=0)
    span = np.maximum(ctr.max(axis=0) - lo, 1e-300)
    q = ((ctr - lo) / span * 65535.0).astype(np.uint64)

    def spread(v: np.ndarray) -> np.ndarray:
        v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
        v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
        v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
        v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
        return v

    return spread(q[:, 0]) | (spread(q[:, 1]) << np.uint64(1))


def _split_on_border(
    parts: list[list[np.ndarray]], rect: tuple[float, float, float, float]
) -> tuple[list, list]:
    """(notonborder, onborder) split: after clip-to-rect, border contact
    ⟺ a vertex on the rect edge (reference splits via sjoin with the
    tile boundary, _geoops_gpd.py:2106-2115). Bbox pretest first."""
    minx, miny, maxx, maxy = rect
    noton, on = [], []
    for part in parts:
        outer = part[0]
        x, y = outer[:, 0], outer[:, 1]
        if x.min() > minx and x.max() < maxx and y.min() > miny and y.max() < maxy:
            noton.append(part)
            continue
        touches = False
        for ring in part:
            rx, ry = ring[:, 0], ring[:, 1]
            if (
                (rx == minx).any() or (rx == maxx).any()
                or (ry == miny).any() or (ry == maxy).any()
            ):
                touches = True
                break
        (on if touches else noton).append(part)
    return noton, on


def _clip_parts(parts: list[list[np.ndarray]], rect) -> list[list[np.ndarray]]:
    """Clip parts to rect; parts fully inside skip the clipper."""
    minx, miny, maxx, maxy = rect
    out = []
    for part in parts:
        outer = part[0]
        x, y = outer[:, 0], outer[:, 1]
        if x.min() >= minx and x.max() <= maxx and y.min() >= miny and y.max() <= maxy:
            out.append(part)
            continue
        if x.min() >= maxx or x.max() <= minx or y.min() >= maxy or y.max() <= miny:
            continue
        rings = [clip_ring_rect(r, rect) for r in part]
        rings = [r for r in rings if len(r) >= 4]
        if rings and abs(ring_signed_area(rings[0])) > 0:
            out.append(rings)
    return out


# partial-aggregate helpers --------------------------------------------------


def _partial_cols(agg_columns, holistic: frozenset[int] = frozenset()):
    """Map each agg to its partial state column names. Aggs whose index
    is in ``holistic`` (e.g. min/max over strings) carry value lists."""
    scalars, lists_ = [], []
    for i, (src, func, out) in enumerate(agg_columns):
        if i in holistic or func not in _SCALAR_FUNCS:
            lists_.append((i, src, func, [f"__p{i}_l"]))
        elif func in ("count",):
            scalars.append((i, src, func, [f"__p{i}_n"]))
        elif func in ("sum", "min", "max"):
            scalars.append((i, src, func, [f"__p{i}_v"]))
        elif func == "mean":
            scalars.append((i, src, func, [f"__p{i}_s", f"__p{i}_n"]))
    return scalars, lists_


def _init_partials(batch: pa.Table, agg_columns, holistic=frozenset()) -> pa.Table:
    scalars, lists_ = _partial_cols(agg_columns, holistic)
    n = len(batch)
    for i, src, func, names in scalars:
        col = batch.column(src)
        if func == "count":
            nn = np.asarray(col.is_valid()).astype(np.float64)
            batch = batch.append_column(names[0], pa.array(nn, pa.float64()))
        elif func in ("sum", "min", "max"):
            batch = batch.append_column(
                names[0], col.cast(pa.float64())
            )
        elif func == "mean":
            batch = batch.append_column(
                names[0], col.cast(pa.float64())
            )
            nn = np.asarray(col.is_valid()).astype(np.float64)
            batch = batch.append_column(names[1], pa.array(nn, pa.float64()))
    for i, src, func, names in lists_:
        if func == "json":
            import json as _json

            ids = batch.column("doc_id").to_pylist() if "doc_id" in batch.column_names else [None] * n
            vals = batch.column(src).to_pylist()
            col = pa.array(
                [
                    _json.dumps({src: v, "fid_orig": d}, separators=(",", ":"))
                    for v, d in zip(vals, ids)
                ],
                pa.string(),
            )
        else:
            col = batch.column(src).combine_chunks()
        offsets = pa.array(np.arange(n + 1, dtype=np.int32))
        batch = batch.append_column(
            names[0], pa.ListArray.from_arrays(offsets, col)
        )
    return batch


def _combine_partials(group: pa.Table, idx: np.ndarray, agg_columns, holistic=frozenset()) -> dict:
    """Combine partial state for rows idx into one piece's state."""
    scalars, lists_ = _partial_cols(agg_columns, holistic)
    out = {}
    for i, src, func, names in scalars:
        if func == "count":
            v = group.column(names[0]).take(pa.array(idx)).to_numpy(zero_copy_only=False)
            out[names[0]] = float(np.nansum(v))
        elif func == "sum":
            v = group.column(names[0]).take(pa.array(idx)).to_numpy(zero_copy_only=False)
            out[names[0]] = float(np.nansum(v)) if len(v) else None
        elif func == "min":
            v = group.column(names[0]).take(pa.array(idx)).to_numpy(zero_copy_only=False)
            v = v[~np.isnan(v)]
            out[names[0]] = float(v.min()) if len(v) else None
        elif func == "max":
            v = group.column(names[0]).take(pa.array(idx)).to_numpy(zero_copy_only=False)
            v = v[~np.isnan(v)]
            out[names[0]] = float(v.max()) if len(v) else None
        elif func == "mean":
            s = group.column(names[0]).take(pa.array(idx)).to_numpy(zero_copy_only=False)
            n = group.column(names[1]).take(pa.array(idx)).to_numpy(zero_copy_only=False)
            out[names[0]] = float(np.nansum(s))
            out[names[1]] = float(np.nansum(n))
    for i, src, func, names in lists_:
        nested = group.column(names[0]).take(pa.array(idx)).to_pylist()
        out[names[0]] = [x for sub in nested for x in sub]
    return out


def _finalize_partials(state: dict, agg_columns, holistic=frozenset()) -> dict:
    scalars, lists_ = _partial_cols(agg_columns, holistic)
    out = {}
    for i, src, func, names in scalars:
        _, _, out_name = agg_columns[i]
        if func == "count":
            out[out_name] = int(state[names[0]])
        elif func == "mean":
            n = state[names[1]]
            out[out_name] = (state[names[0]] / n) if n else None
        else:
            out[out_name] = state[names[0]]
    for i, src, func, names in lists_:
        _, _, out_name = agg_columns[i]
        out[out_name] = _agg_from_lists(state[names[0]], func)
    return out


# quadtree hot-cell split: pass-0 cell keys carry a refinement level in
# the high bits; a level-L key addresses a child square of edge
# size/2**L on the SAME origin-aligned grid, so children nest exactly
# inside their hot parent. Refined keys use a wider per-axis packing
# (child indices grow 2**L-fold and would overflow the 21-bit base
# layout): key = (L << 58) | (ccx + 2^27) << 29 | (ccy + 2^27).
# Level-0 keys keep the base packing (< 2^42), so (key >> 58) == 0.
_LEVEL_SHIFT = 58
_CHILD_SHIFT = 29
_CHILD_OFFSET = 1 << 27


def _hot_cell_levels(
    ds: ray.data.Dataset, size: float, origin: float, target: int, cap: int = 6
) -> dict[int, int]:
    """Probe per-cell row counts (center-cell assignment, column-pruned,
    per-batch combiner before the tiny groupby) and return
    {cell: quadtree_level} for cells holding > 2×target rows — the skew
    map for dissolve's pass-0 shuffle. Only HOT cells ever reach the
    driver, so the probe is scale-safe at any cell count."""
    from ray.data.aggregate import Sum as _Sum

    from ..tiling.cells import cell_of_point

    def to_counts(batch: pa.Table) -> pa.Table:
        ga = decode_geometry(batch)
        b = ga.bounds() - origin
        cx = (b[:, 0] + b[:, 2]) * 0.5
        cy = (b[:, 1] + b[:, 3]) * 0.5
        ok = np.isfinite(cx) & np.isfinite(cy)
        cells = cell_of_point(cx[ok], cy[ok], size)
        u, c = np.unique(cells, return_counts=True)
        return pa.table({"__cell": pa.array(u, pa.int64()), "n": pa.array(c, pa.int64())})

    counts = (
        ds.map_batches(to_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__cell")
        .aggregate(_Sum("n"))
        .map_batches(
            lambda b: pa.table(
                {"__cell": b.column("__cell"), "n": b.column("sum(n)")}
            ),
            batch_format="pyarrow",
        )
        .filter(expr=f"n > {2 * target}")
        .take_all()
    )
    out: dict[int, int] = {}
    for row in counts:
        lvl = max(1, math.ceil(math.log(row["n"] / target, 4)))
        out[int(row["__cell"])] = min(cap, lvl)
    return out


def _refine_hot_pairs(
    b: np.ndarray,
    rows: np.ndarray,
    cells: np.ndarray,
    size: float,
    hot: dict[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Rewrite (row, cell) replica pairs: pairs landing in a hot cell are
    re-replicated to the quadtree children (at that cell's level) covered
    by the row's bbox clipped to the hot cell; others keep level-0 keys.
    Fully vectorized per level."""
    hot_arr = np.array(sorted(hot), dtype=np.int64)
    lvl_arr = np.array([hot[c] for c in sorted(hot)], dtype=np.int64)
    pos = np.clip(np.searchsorted(hot_arr, cells), 0, len(hot_arr) - 1)
    is_hot = hot_arr[pos] == cells
    out_rows = [rows[~is_hot]]
    out_keys = [cells[~is_hot]]
    pair_lvl = np.where(is_hot, lvl_arr[pos], 0)
    for L in np.unique(pair_lvl[is_hot]):
        sel = pair_lvl == L
        pr, pc = rows[sel], cells[sel]
        csize = size / (1 << L)
        cx = (pc >> CELL_SHIFT) - CELL_OFFSET
        cy = (pc & ((1 << CELL_SHIFT) - 1)) - CELL_OFFSET
        bb = b[pr]
        # bbox ∩ hot-cell rect, in child-grid indices clamped inside the
        # parent (a bbox touching the parent's max edge must not leak
        # into the neighbour's children — the neighbour has its own copy)
        lo_x = np.floor(np.maximum(bb[:, 0], cx * size) / csize).astype(np.int64)
        lo_y = np.floor(np.maximum(bb[:, 1], cy * size) / csize).astype(np.int64)
        hi_x = np.floor(np.minimum(bb[:, 2], (cx + 1) * size) / csize).astype(np.int64)
        hi_y = np.floor(np.minimum(bb[:, 3], (cy + 1) * size) / csize).astype(np.int64)
        k = np.int64(1) << L
        lo_x = np.clip(lo_x, cx * k, (cx + 1) * k - 1)
        hi_x = np.clip(hi_x, cx * k, (cx + 1) * k - 1)
        lo_y = np.clip(lo_y, cy * k, (cy + 1) * k - 1)
        hi_y = np.clip(hi_y, cy * k, (cy + 1) * k - 1)
        nx = hi_x - lo_x + 1
        ny = hi_y - lo_y + 1
        counts = nx * ny
        rep = np.repeat(np.arange(len(pr), dtype=np.int64), counts)
        if not len(rep):
            continue
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        local = np.arange(len(rep), dtype=np.int64) - np.repeat(starts, counts)
        nyr = np.repeat(ny, counts)
        dx = local // nyr
        dy = local % nyr
        child = (
            ((np.repeat(lo_x, counts) + dx + _CHILD_OFFSET) << _CHILD_SHIFT)
            | (np.repeat(lo_y, counts) + dy + _CHILD_OFFSET)
        ) | (L << _LEVEL_SHIFT)
        out_rows.append(pr[rep])
        out_keys.append(child)
    return np.concatenate(out_rows), np.concatenate(out_keys)


def _first_geometry(ds: ray.data.Dataset) -> bytes | None:
    """WKB of the first row of a materialized Dataset, read from its
    first non-empty block on the driver (no Ray execution)."""
    with contextlib.closing(iter_blocks(ds)) as blocks:
        block = next(blocks, None)
    return None if block is None else block.column(_GEOM)[0].as_py()


def dissolve(
    ds: ray.data.Dataset,
    groupby: list[str] | None = None,
    agg_columns: list[tuple[str, str, str]] | None = None,
    explodecollections: bool = False,
    cell_size: float | None = None,
    max_passes: int = 4,
    geoindex_column: str | None = None,
) -> ray.data.Dataset:
    """Polygon dissolve via recursive tiled union with border
    reconciliation (geoops.dissolve → _geoops_gpd.py:1115-1716); point/
    line layers take the single-shuffle path.

    agg_columns: list of (src_column, func, out_name), func in AGG_FUNCS
    (reference agg_columns dict, _geoops_sql.py:4685-4759).
    """
    groupby = list(groupby or [])
    agg_columns = list(agg_columns or [])

    source = ds
    if cell_size is None and not isinstance(ds, MaterializedDataset):
        # adaptive cell sizing (below) reads the layer more than once, so
        # pin the narrow source projection of a lazy input — group keys,
        # aggregate sources and geometry, doc_id only for json — and the
        # upstream pipeline (e.g. a lazy sjoin) runs exactly once. The
        # geometry type is only known from the pin, so a lazy point or
        # line layer is pinned too. A materialized input is read in
        # place. An explicit cell_size keeps the fully streaming
        # single-scan path: at 100 TB, size cells yourself and nothing
        # is pinned.
        src = [*groupby, *(c for c, _f, _o in agg_columns)]
        if any(f == "json" for _c, f, _o in agg_columns):
            src.append("doc_id")
        src = list(dict.fromkeys([*src, _GEOM]))

        def source_columns(batch: pa.Table) -> pa.Table:
            return batch.select([c for c in src if c in batch.column_names])

        source = ds.map_batches(
            source_columns, batch_format="pyarrow", zero_copy_batch=True
        ).materialize()
    if isinstance(source, MaterializedDataset):
        # schema, row count and first geometry with no execution
        if source.count() == 0:
            return ds
        first = _first_geometry(source)
    else:
        sample = ds.limit(1).take_all()
        if not sample:
            return ds
        first = sample[0][_GEOM]
    t = from_wkb([first]).part_types(0)
    if t != POLYGON:
        return _dissolve_lines_points(source, groupby, agg_columns)

    sch = source.schema().base_schema
    numeric = (
        "int8", "int16", "int32", "int64", "uint8", "uint16", "uint32",
        "uint64", "float", "double", "halffloat",
    )
    holistic = frozenset(
        i
        for i, (src_c, func, _o) in enumerate(agg_columns)
        if func in ("sum", "min", "max", "mean")
        and str(sch.field(src_c).type) not in numeric
    )
    scalars, lists_ = _partial_cols(agg_columns, holistic)
    partial_names = [n for *_x, names in scalars for n in names] + [
        n for *_x, names in lists_ for n in names
    ]
    keep_cols = [*groupby, *partial_names, _GEOM]
    # output arrow type per aggregate column — shared by the non-empty
    # per-group rows AND the schema-stable empty probe blocks so an
    # all-null / empty partition can never emit a divergent block schema
    _final_out_t = {
        out_name: _agg_out_type(
            sch.field(src).type,
            func,
            scalar_path=(i not in holistic and func in _SCALAR_FUNCS),
        )
        for i, (src, func, out_name) in enumerate(agg_columns)
    }
    # partial-state column types (scalar state is float64; list state
    # carries source values, json pre-encoded strings) — used so an
    # all-null cell can't emit pa.null()-typed partial columns
    _partial_out_t: dict[str, pa.DataType] = {}
    for i, _src, _func, names in scalars:
        for nm in names:
            _partial_out_t[nm] = pa.float64()
    for i, _src, _func, names in lists_:
        _partial_out_t[names[0]] = pa.list_(
            pa.string()
            if agg_columns[i][1] == "json"
            else sch.field(agg_columns[i][0]).type
        )

    def prep(batch: pa.Table) -> pa.Table:
        return _init_partials(batch, agg_columns, holistic).select(keep_cols)

    scalar_zero = {
        name: (None if func in ("min", "max") else 0.0)
        for _i, _s, func, names in scalars
        for name in names
    }
    list_names = [names[0] for *_x, names in lists_]

    def assign(size, origin, hot: dict[int, int] | None = None):
        from ..tiling.cells import assign_cells

        def fn(batch: pa.Table) -> pa.Table:
            ga = decode_geometry(batch)
            b = ga.bounds() - origin
            rows, cells = assign_cells(b, size)
            if hot:
                rows, cells = _refine_hot_pairs(b, rows, cells, size, hot)
            out = batch.take(pa.array(rows))
            # attrs ride ONLY the copy in the row's center cell; other
            # replicas carry neutral partials → aggregates stay exact
            # without the reference's JSON-DISTINCT dedup
            # (_geoops_gpd.py:1141-1180)
            bcx = (b[:, 0] + b[:, 2]) * 0.5
            bcy = (b[:, 1] + b[:, 3]) * 0.5
            cx = np.floor(bcx / size).astype(np.int64)
            cy = np.floor(bcy / size).astype(np.int64)
            center = ((cx + CELL_OFFSET) << CELL_SHIFT) | (cy + CELL_OFFSET)
            if hot:
                # the attr-carrying replica of a hot-cell row is the CHILD
                # containing its bbox center (that child is always among
                # the row's replicas — it covers the center)
                hot_arr = np.array(sorted(hot), dtype=np.int64)
                lvl_arr = np.array([hot[c] for c in sorted(hot)], dtype=np.int64)
                pos = np.clip(np.searchsorted(hot_arr, center), 0, len(hot_arr) - 1)
                hc = hot_arr[pos] == center
                if hc.any():
                    L = lvl_arr[pos]
                    csize = size / (1 << L)
                    ccx = np.floor(np.where(hc, bcx, 0.0) / csize).astype(np.int64)
                    ccy = np.floor(np.where(hc, bcy, 0.0) / csize).astype(np.int64)
                    refined = (
                        ((ccx + _CHILD_OFFSET) << _CHILD_SHIFT)
                        | (ccy + _CHILD_OFFSET)
                    ) | (L << _LEVEL_SHIFT)
                    center = np.where(hc, refined, center)
            is_rep = cells != center[rows]
            if is_rep.any():
                for name, zero in scalar_zero.items():
                    v = out.column(name).to_numpy(zero_copy_only=False).astype(
                        np.float64, copy=True
                    )
                    v[is_rep] = np.nan if zero is None else zero
                    col = pa.array(v, pa.float64())
                    if zero is None:
                        col = pa.array(
                            np.where(is_rep, np.nan, v), pa.float64()
                        )
                    out = out.set_column(
                        out.schema.get_field_index(name), name, col
                    )
                for name in list_names:
                    lst = out.column(name).combine_chunks()
                    flat = lst.flatten()
                    offs = np.asarray(lst.offsets)
                    lens = np.diff(offs)
                    lens[is_rep] = 0
                    keep_rows = np.flatnonzero(~is_rep)
                    # vectorized flat-index gather of the kept rows' ranges
                    klens = offs[keep_rows + 1] - offs[keep_rows]
                    total = int(klens.sum())
                    kstarts = np.repeat(offs[keep_rows], klens)
                    base = np.concatenate([[0], np.cumsum(klens)[:-1]])
                    take_idx = kstarts + (
                        np.arange(total, dtype=np.int64) - np.repeat(base, klens)
                    )
                    new_offs = np.zeros(len(out) + 1, dtype=np.int32)
                    np.cumsum(lens, out=new_offs[1:])
                    new_flat = flat.take(pa.array(take_idx, pa.int64()))
                    out = out.set_column(
                        out.schema.get_field_index(name),
                        name,
                        pa.ListArray.from_arrays(pa.array(new_offs), new_flat),
                    )
            if "__cell" in out.column_names:
                out = out.drop_columns(["__cell"])
            return out.append_column("__cell", pa.array(cells, pa.int64()))

        return fn

    def _empty_cell_out() -> pa.Table:
        # schema-stable 0-row output of the per-cell union stage (also
        # used for empty — possibly column-less — Sort partitions)
        arrs: dict = {
            k: pa.array([], type=sch.field(k).type) for k in groupby
        }
        for name in partial_names:
            arrs[name] = pa.array([], type=_partial_out_t[name])
        arrs["__border"] = pa.array([], pa.int8())
        arrs[_GEOM] = pa.array([], pa.binary())
        return pa.table(arrs)

    def pass_fn(size, origin):
        def per_group(group: pa.Table) -> pa.Table:
            if len(group) == 0:
                return _empty_cell_out()
            cell = int(group.column("__cell")[0].as_py())
            lvl = cell >> _LEVEL_SHIFT
            if lvl:
                csize = size / (1 << lvl)
                ccx = ((cell >> _CHILD_SHIFT) & ((1 << _CHILD_SHIFT) - 1)) - _CHILD_OFFSET
                ccy = (cell & ((1 << _CHILD_SHIFT) - 1)) - _CHILD_OFFSET
                r0 = (ccx * csize, ccy * csize, (ccx + 1) * csize, (ccy + 1) * csize)
            else:
                r0 = cell_bounds(cell, size)
            rect = (r0[0] + origin, r0[1] + origin, r0[2] + origin, r0[3] + origin)
            ga = from_wkb(group.column(_GEOM))
            if groupby:
                key_cols = [group.column(k).to_pylist() for k in groupby]
                keys = list(zip(*key_cols))
            else:
                keys = [()] * len(group)
            rows: list[dict] = []
            geoms: list[tuple[int, list]] = []
            border_out: list[int] = []
            # numpy run grouping over the key tuples (no per-row dict work)
            if groupby:
                # None-safe deterministic order (None < any value; a null
                # group key is a real group — plain sorted() TypeErrors
                # comparing None with str/int)
                uniq = sorted(
                    set(keys),
                    key=lambda kt: tuple(
                        (v is not None, str(v)) for v in kt
                    ),
                )
                key_to_rows: dict = {k: [] for k in uniq}
                for i, k in enumerate(keys):
                    key_to_rows[k].append(i)
            else:
                key_to_rows = {(): list(range(len(group)))}
            for key, members in key_to_rows.items():
                idx = np.asarray(members, dtype=np.int64)
                unioned = _union_group_polygons(ga, idx)
                if not unioned:
                    continue
                # clip to the cell rect (reference _geoops_gpd.py:2070-2083)
                # — keeps pieces from different cells overlap-free, so the
                # coarser-pass / final unions only ever merge edge-adjacent
                # pieces (bounded sweep size)
                unioned = _clip_parts(unioned, rect)
                noton, on = _split_on_border(unioned, rect)
                state = _combine_partials(group, idx, agg_columns, holistic)
                # one row per PART: single-ring polygons decode through
                # the vectorized WKB fast path in later passes / final;
                # attrs ride exactly one part (the first), zeros on the
                # rest, so partial sums stay exact
                first = True
                for border_flag, plist in ((1, on), (0, noton)):
                    for part in plist:
                        row = {k: v for k, v in zip(groupby, key)}
                        if first:
                            row.update(state)
                            first = False
                        else:
                            row.update(_zero_state(agg_columns, holistic))
                        rows.append(row)
                        geoms.append(
                            (POLYGON, [[ensure_closed(r) for r in part]])
                        )
                        border_out.append(border_flag)
            # ONE array build + ONE wkb encode for the whole group
            all_wkb = to_wkb(GeometryArray.from_parts(geoms)) if geoms else []
            arrs: dict = {}
            for k in groupby:
                # explicit type: an all-null key cell must not infer a
                # pa.null() column and diverge from sibling block schemas
                arrs[k] = pa.array([r[k] for r in rows], type=sch.field(k).type)
            for name in partial_names:
                arrs[name] = pa.array(
                    [r[name] for r in rows], type=_partial_out_t[name]
                )
            arrs["__border"] = pa.array(border_out, pa.int8())
            arrs[_GEOM] = pa.array(all_wkb, pa.binary())
            return pa.table(arrs)

        return per_group

    import os as _os
    import sys as _sys
    import time as _time

    _verbose = bool(_os.environ.get("GFR_DISSOLVE_VERBOSE"))
    current = source.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    nrows = 0
    if cell_size is None:
        # size cells so each holds ~OPTIONS.dissolve_cell_rows rows: one
        # map of per-block bounds over the pin, reduced on the driver (no
        # shuffle); the row count is the pin's metadata
        def block_bounds(batch: pa.Table) -> pa.Table:
            b = decode_geometry(batch).bounds()
            b = b[np.isfinite(b).all(axis=1)]
            lo, hi = b.min(axis=0, initial=np.inf), b.max(axis=0, initial=-np.inf)
            return pa.table(
                {"lo": pa.array([lo[:2].tolist()]), "hi": pa.array([hi[2:].tolist()])}
            )

        st = source.map_batches(block_bounds, batch_format="pyarrow").take_all()
        lo = np.min([r["lo"] for r in st], axis=0)
        hi = np.max([r["hi"] for r in st], axis=0)
        nrows = source.count()
        w = max(float(hi[0] - lo[0]), 1e-9) if np.isfinite(lo[0]) else 1e-9
        h = max(float(hi[1] - lo[1]), 1e-9) if np.isfinite(lo[1]) else 1e-9
        size0 = max(
            math.sqrt(w * h * OPTIONS.dissolve_cell_rows / nrows),
            OPTIONS.cell_size,
        )
    else:
        size0 = cell_size
    finals: list[ray.data.Dataset] = []
    size = size0
    for p in range(max_passes):
        _t0 = _time.perf_counter()
        # per-pass grid-origin shift (golden-ratio fractions): cell borders
        # of different passes never coincide, so a piece sitting exactly on
        # a pass-p border becomes interior in pass p+1 instead of cycling
        # as "onborder" at every scale (the reference's shrinking grids
        # re-derive extents per pass for the same reason,
        # _geoops_gpd.py:1370-1474)
        origin = size * (((p + 1) * 0.6180339887498949) % 1.0)
        hot = None
        if p == 0 and cell_size is None and nrows > 8 * OPTIONS.dissolve_cell_rows:
            # skew probe: split hot cells into quadtree children so no
            # single per-cell union group serializes the pass (a dense
            # urban tile at 100× the target row count would otherwise be
            # the whole pass's long pole)
            hot = _hot_cell_levels(
                source, size, origin, OPTIONS.dissolve_cell_rows
            ) or None
            if _verbose and hot:
                print(
                    f"[dissolve] hot cells: {len(hot)} "
                    f"(max level {max(hot.values())})",
                    file=_sys.stderr, flush=True,
                )
        staged = current.map_batches(
            assign(size, origin, hot), batch_format="pyarrow"
        )
        result = staged.groupby("__cell").map_groups(
            pass_fn(size, origin), batch_format="pyarrow"
        ).materialize()
        on = result.filter(expr="__border == 1")
        n_on = on.count()
        if _verbose:
            print(
                f"[dissolve] pass {p} size={size} onborder={n_on} "
                f"{_time.perf_counter() - _t0:.2f}s",
                file=_sys.stderr, flush=True,
            )
        if n_on <= 4096 or p == max_passes - 1:
            # the final step unions the border pieces itself
            finals.append(result)
            break
        finals.append(result.filter(expr="__border == 0"))
        current = on.drop_columns(["__border"])
        size *= 4

    merged = finals[0]
    for f in finals[1:]:
        merged = merged.union(f)
    _tf = _time.perf_counter()

    # final pre-assembly: collapse each batch to ONE row per group key
    # (interior pieces packed as concatenated WKB + offsets — no big
    # sort; the subsequent groupby shuffles ~#batches×#keys tiny rows
    # instead of every piece)
    def final_partial(batch: pa.Table) -> pa.Table:
        """Collapse a batch to one row per group key, vectorized: sort by
        (keys, __border), find run boundaries with Arrow compare kernels,
        reduce scalar partials with np.reduceat, and pack each run's WKB
        blobs as ONE memoryview slice of the sorted binary column's data
        buffer (contiguous after take) — no per-piece Python."""
        import pyarrow.compute as pc

        _t0 = _time.perf_counter() if _verbose else 0.0
        n = len(batch)
        if n == 0:
            # typed empty (the batch may even be column-less): keys from
            # the source schema, partials by their declared types
            cols0: dict = {
                k: pa.array([], type=sch.field(k).type) for k in groupby
            }
            for _i, _src, _func, names in scalars:
                for name in names:
                    cols0[name] = pa.array([], pa.float64())
            for _i, _src, _func, names in lists_:
                cols0[names[0]] = pa.array([], type=_partial_out_t[names[0]])
            cols0["__int_blob"] = pa.array([], pa.large_binary())
            cols0["__int_offs"] = pa.array([], pa.list_(pa.int64()))
            cols0["__brd_blob"] = pa.array([], pa.large_binary())
            cols0["__brd_offs"] = pa.array([], pa.list_(pa.int64()))
            return pa.table(cols0)
        sort_keys = [(k, "ascending") for k in groupby] + [("__border", "ascending")]
        b = batch.take(pc.sort_indices(batch, sort_keys=sort_keys)) if n else batch
        from .agg import run_change_mask

        gstarts = np.flatnonzero(run_change_mask(b, groupby))
        gends = np.concatenate([gstarts[1:], [n]]) if len(gstarts) else gstarts
        border = b.column("__border").to_numpy(zero_copy_only=False) if n else np.zeros(0)
        geom = b.column(_GEOM).combine_chunks()
        if isinstance(geom, pa.ChunkedArray):
            geom = geom.chunk(0) if geom.num_chunks else pa.array([], pa.binary())
        goffs = np.frombuffer(geom.buffers()[1], dtype=np.int32)[
            geom.offset : geom.offset + n + 1
        ].astype(np.int64) if n else np.zeros(1, np.int64)
        gdata = (
            np.frombuffer(geom.buffers()[2], dtype=np.uint8) if n else np.zeros(0, np.uint8)
        )
        # scalar partial reductions per run
        red: dict[str, np.ndarray] = {}
        for i, src, func, names in scalars:
            if func in ("count", "sum"):
                v = np.nan_to_num(b.column(names[0]).to_numpy(zero_copy_only=False))
                red[names[0]] = np.add.reduceat(v, gstarts) if n else np.zeros(0)
            elif func == "min":
                v = b.column(names[0]).to_numpy(zero_copy_only=False)
                red[names[0]] = np.fmin.reduceat(v, gstarts) if n else np.zeros(0)
            elif func == "max":
                v = b.column(names[0]).to_numpy(zero_copy_only=False)
                red[names[0]] = np.fmax.reduceat(v, gstarts) if n else np.zeros(0)
            elif func == "mean":
                s = np.nan_to_num(b.column(names[0]).to_numpy(zero_copy_only=False))
                c = np.nan_to_num(b.column(names[1]).to_numpy(zero_copy_only=False))
                red[names[0]] = np.add.reduceat(s, gstarts) if n else np.zeros(0)
                red[names[1]] = np.add.reduceat(c, gstarts) if n else np.zeros(0)
        cols: dict = {}
        for k in groupby:
            cols[k] = b.column(k).take(pa.array(gstarts, pa.int64()))
        for i, src, func, names in scalars:
            for name in names:
                cols[name] = pa.array(red[name], pa.float64())
        for i, src, func, names in lists_:
            # runs are contiguous → merged list = flat[floffs[s]:floffs[e]]
            lst = b.column(names[0]).combine_chunks()
            if isinstance(lst, pa.ChunkedArray):
                lst = lst.chunk(0) if lst.num_chunks else pa.array([], pa.list_(pa.string()))
            floffs = np.asarray(lst.offsets)
            newoffs = floffs[np.append(gstarts, n)] if n else np.zeros(1, np.int32)
            cols[names[0]] = pa.ListArray.from_arrays(
                pa.array(newoffs, pa.int32()), lst.flatten()
            )
        int_blob, int_offs, brd_blob, brd_offs = [], [], [], []
        for s, e in zip(gstarts, gends):
            split = s + int(np.searchsorted(border[s:e], 1))
            int_blob.append(gdata[goffs[s] : goffs[split]].tobytes())
            int_offs.append((goffs[s : split + 1] - goffs[s]).tolist())
            brd_blob.append(gdata[goffs[split] : goffs[e]].tobytes())
            brd_offs.append((goffs[split : e + 1] - goffs[split]).tolist())
        cols["__int_blob"] = pa.array(int_blob, pa.large_binary())
        cols["__int_offs"] = pa.array(int_offs, pa.list_(pa.int64()))
        cols["__brd_blob"] = pa.array(brd_blob, pa.large_binary())
        cols["__brd_offs"] = pa.array(brd_offs, pa.list_(pa.int64()))
        if _verbose:
            print(
                f"[dissolve-worker] final_partial rows={len(batch)} "
                f"{_time.perf_counter() - _t0:.2f}s", flush=True,
            )
        return pa.table(cols)

    # large batch_size bundles the many tiny per-pass blocks into few
    # tasks: each surviving batch is one row per group key, so the final
    # groupby shuffles ~#tasks×#keys rows instead of paying per-block
    # task overhead on hundreds of near-empty blocks
    merged = merged.map_batches(
        final_partial, batch_format="pyarrow", batch_size=1 << 16
    )

    def _packed_ga(group: pa.Table, blob_col: str, offs_col: str):
        """Decode all rows' packed piece blobs as ONE GeometryArray —
        blobs concatenated, per-row offset lists rebased, vectorized
        packed decode (no per-piece byte slicing)."""
        from ..geom.wkb import from_wkb_packed

        blobs = group.column(blob_col).to_pylist()
        blob = b"".join(blobs)
        lst = group.column(offs_col).combine_chunks()
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.chunk(0) if lst.num_chunks else pa.array([], pa.list_(pa.int64()))
        flat = lst.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        loffs = np.asarray(lst.offsets, dtype=np.int64)
        blens = np.array([len(b) for b in blobs], dtype=np.int64)
        base = np.concatenate([[0], np.cumsum(blens[:-1])])
        rebased = flat + np.repeat(base, np.diff(loffs))
        drop_first = np.ones(len(flat), dtype=bool)
        drop_first[loffs[:-1]] = False  # each row's offsets start with 0
        all_offs = np.concatenate([[0], rebased[drop_first]]).astype(np.int64)
        n = len(all_offs) - 1
        if n == 0:
            return None, 0
        return from_wkb_packed(blob, all_offs), n

    def final_group(group: pa.Table) -> pa.Table:
        _t0 = _time.perf_counter() if _verbose else 0.0
        import struct

        from ..geom.wkb import to_wkb as _to_wkb

        # only the leftover border pieces can touch anything — decode,
        # union, re-encode each union part as a standalone POLYGON blob
        gb, n_brd = _packed_ga(group, "__brd_blob", "__brd_offs")
        brd_blobs: list[bytes] = []
        if gb is not None:
            uparts = _union_group_polygons(gb, np.arange(len(gb)))
            if uparts:
                brd_blobs = _to_wkb(
                    GeometryArray.from_parts([(POLYGON, [p]) for p in uparts])
                )
        # interior pieces are packed little-endian POLYGON WKBs, and a
        # MULTIPOLYGON body is exactly a concatenation of POLYGON WKBs —
        # so the output geometry is assembled at the BYTE level: zero
        # decode, zero re-encode, regardless of piece count
        int_blobs = group.column("__int_blob").to_pylist()
        offs_lst = group.column("__int_offs").combine_chunks()
        if isinstance(offs_lst, pa.ChunkedArray):
            offs_lst = (
                offs_lst.chunk(0)
                if offs_lst.num_chunks
                else pa.array([], pa.list_(pa.int64()))
            )
        n_int = int(
            (offs_lst.value_lengths().cast(pa.int64()).sum().as_py() or 0)
        ) - len(offs_lst)
        nparts = n_int + len(brd_blobs)
        if nparts == 0:
            wkb_out = None
        elif nparts == 1:
            wkb_out = brd_blobs[0] if brd_blobs else b"".join(int_blobs)
        else:
            wkb_out = b"".join(
                [
                    b"\x01\x06\x00\x00\x00",
                    struct.pack("<I", nparts),
                    *brd_blobs,
                    *int_blobs,
                ]
            )
        cols = {k: group.column(k).slice(0, 1) for k in groupby}
        state = _combine_partials(group, np.arange(len(group)), agg_columns, holistic)
        for out_name, v in _finalize_partials(state, agg_columns, holistic).items():
            # explicit type: an all-null aggregate would otherwise infer
            # pa.null() and diverge from sibling groups' block schema
            cols[out_name] = pa.array([v], type=_final_out_t[out_name])
        cols[_GEOM] = pa.array([wkb_out], pa.binary())
        if _verbose:
            print(
                f"[dissolve-worker] final_group pieces={n_int}+{n_brd} "
                f"{_time.perf_counter() - _t0:.2f}s",
                flush=True,
            )
        return pa.table(cols)

    if groupby:
        # salt-partition the group keys instead of one Ray map_groups
        # task per key (~100-200 µs scheduling Python each — the wall
        # when dissolving by a high-cardinality key): each partition
        # sorts once and runs the per-key assembly on zero-copy slices
        from .agg import _salt_parts, default_nparts

        nparts_f = default_nparts()  # fixed at the driver

        def final_part(part: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            n = len(part)
            if n == 0:
                # schema-stable empty output BEFORE any column access
                # (the part may be a column-less Sort partition); types
                # derive from the SOURCE column per aggregate, not a
                # func-keyed constant map (string/int min/max diverged)
                cols: dict = {
                    k: pa.array([], type=sch.field(k).type) for k in groupby
                }
                for _src, _func, out_name in agg_columns:
                    cols[out_name] = pa.array([], _final_out_t[out_name])
                cols[_GEOM] = pa.array([], pa.binary())
                return pa.table(cols)
            part = part.drop_columns(["__part"])
            srt = part.take(
                pc.sort_indices(
                    part, sort_keys=[(k, "ascending") for k in groupby]
                )
            )
            from .agg import run_change_mask

            starts = np.flatnonzero(run_change_mask(srt, groupby))
            ends = np.concatenate([starts[1:], [n]]) if len(starts) else starts
            outs = [
                final_group(srt.slice(int(s), int(e - s)))
                for s, e in zip(starts, ends)
            ]
            return pa.concat_tables(outs)

        out = (
            merged.map_batches(
                lambda b: _salt_parts(b, groupby, nparts_f),
                batch_format="pyarrow",
            )
            .groupby("__part")
            .map_groups(final_part, batch_format="pyarrow")
        )
    else:
        tagged = merged.map_batches(
            lambda b: b.append_column("__g", pa.array(np.zeros(len(b), np.int8))),
            batch_format="pyarrow",
        )
        def final_one(g: pa.Table) -> pa.Table:
            if len(g) == 0:
                # an empty partition must NOT fabricate the one output
                # row (that's the real __g group's job); emit typed empty
                cols: dict = {}
                for _src, _func, out_name in agg_columns:
                    cols[out_name] = pa.array([], _final_out_t[out_name])
                cols[_GEOM] = pa.array([], pa.binary())
                return pa.table(cols)
            return final_group(g.drop_columns(["__g"]))

        out = tagged.groupby("__g").map_groups(
            final_one, batch_format="pyarrow"
        )
    if _verbose:
        out = out.materialize()
        print(
            f"[dissolve] final union {_time.perf_counter() - _tf:.2f}s",
            file=_sys.stderr, flush=True,
        )
    if explodecollections:
        from ..geom import measure as _meas
        from .geometry_batch import encode_geometry, explode_batch

        def explode_fn(batch: pa.Table) -> pa.Table:
            ga = decode_geometry(batch)
            out_b, out_ga = explode_batch(batch, ga)
            # drop numerical-noise needles: the sweep's noding can
            # leave pieces whose average width (2·area/perimeter) is at
            # double-precision noise for the coordinate MAGNITUDE
            # (observed ~1e-11-width needles at |coord|≈2e5 on the
            # reference's real-parcel fixture — ≈ eps·|coord| — where
            # GEOS's robust noding emits nothing). Threshold: 10⁴·eps·
            # magnitude ≈ 100× above the noise floor and ≥10² below any
            # genuine sliver (sub-mm at km scale).
            a = _meas.area(out_ga)
            per = _meas.perimeter(out_ga)
            bb = out_ga.bounds()
            mag = np.maximum(
                1.0, np.abs(bb).max(axis=1, initial=0.0)
            )
            with np.errstate(invalid="ignore", divide="ignore"):
                width = 2.0 * a / np.maximum(per, 1e-300)
                keep = (width >= 1e4 * 2.220446049250313e-16 * mag) & (
                    per > 0
                )
            if keep.all():
                return encode_geometry(out_b, out_ga)
            idx = np.flatnonzero(keep)
            return encode_geometry(
                out_b.take(pa.array(idx)), out_ga.take(idx)
            )

        out = out.map_batches(explode_fn, batch_format="pyarrow")
    if geoindex_column:
        # Hilbert-ordered output (reference _geoops_gpd.py:2138-2152 +
        # ORDER BY geoindex on the final write): attach the curve index
        # over the output bounds and distributed-sort on it
        from ray.data.aggregate import Max as _Max
        from ray.data.aggregate import Min as _Min

        from ..tiling.grid import hilbert_distance
        from .geometry_batch import add_bounds

        out = out.materialize()
        b = (
            out.map_batches(
                lambda t: add_bounds(t).select(["minx", "miny", "maxx", "maxy"]),
                batch_format="pyarrow",
            ).aggregate(_Min("minx"), _Min("miny"), _Max("maxx"), _Max("maxy"))
        )
        bounds = (b["min(minx)"], b["min(miny)"], b["max(maxx)"], b["max(maxy)"])

        def attach(batch: pa.Table) -> pa.Table:
            ga = decode_geometry(batch)
            bb = ga.bounds()
            cx = (bb[:, 0] + bb[:, 2]) * 0.5
            cy = (bb[:, 1] + bb[:, 3]) * 0.5
            return batch.append_column(
                geoindex_column,
                pa.array(hilbert_distance(cx, cy, bounds), pa.int64()),
            )

        out = out.map_batches(attach, batch_format="pyarrow").sort(geoindex_column)
    return out


def _zero_state(agg_columns, holistic=frozenset()) -> dict:
    scalars, lists_ = _partial_cols(agg_columns, holistic)
    out = {}
    for i, src, func, names in scalars:
        if func in ("count",):
            out[names[0]] = 0.0
        elif func == "mean":
            out[names[0]] = 0.0
            out[names[1]] = 0.0
        elif func == "sum":
            out[names[0]] = 0.0
        else:  # min/max: neutral = None → NaN in float col
            out[names[0]] = None
    for i, src, func, names in lists_:
        out[names[0]] = []
    return out
