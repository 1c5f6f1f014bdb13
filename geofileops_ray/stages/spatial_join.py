"""Two-layer spatial joins as cell-shuffled Ray Data pipelines.

The reference's two-layer executor (_two_layer_vector_operation,
geofileops _geoops_sql.py:3295-3871) batches layer1 by rowid and runs a
SQL template with a manual R-tree bbox prefilter per batch. Our shape
(SURVEY.md §3.2): both layers → batched cell assignment with multi-cell
replication (tiling/cells.py) → one tagged union → ``groupby(__cell)``
co-shuffle (hot cells salted) → per-cell candidate generation with a
numpy bbox sort-sweep → exact predicate evaluation (stages/relation.py)
→ op-specific emission; cross-cell duplicate pairs suppressed by the
reference-cell rule (the unique cell containing the min-corner of the
two bboxes' overlap).

Ops here:
* join_by_location  (geoops.py:3051; inner + left via discard_nonmatching)
* export_by_location (geoops.py:2308; spatial semi/anti join)
* export_by_distance (geoops.py:2437; dwithin semi-join)
* join (geoops.py:2940; attribute equi-join — Ray Data hash join)
* delete_duplicate_geometries (geoops.py:985; normalized-WKB dedup)
"""

from __future__ import annotations

import contextlib
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.dataset import MaterializedDataset

from ..config import OPTIONS
from ..geom import GeometryArray, bbox_join, bbox_join_auto, from_wkb
from ..tiling.cells import CELL_OFFSET, CELL_SHIFT, _SALT_SHIFT, compute_salt_map, replicate_to_cells
from ..util import iter_blocks
from .agg import JOIN_AGGREGATOR_ARGS, _salt_parts, default_nparts
from .catalog import _subdivided_or_none, subdivide_rows, subdivide_table
from .geometry_batch import decode_geometry
from .relation import RelationQuery, evaluate_pairs, pair_distances

_GEOM = "geometry"


# ------------------------------------------------------------ side prep


def _prefixed_schema(schema: pa.Schema, prefix: str, keep: list[str]) -> list[pa.Field]:
    fields = []
    for name in keep:
        f = schema.field(name)
        fields.append(pa.field(prefix + name, f.type))
    return fields


def _project_side(
    ds: ray.data.Dataset,
    side: int,
    all_fields: list[pa.Field],
    size: float,
    expand: float = 0.0,
    salt_map: dict[int, int] | None = None,
    salt_mode: str = "none",
) -> ray.data.Dataset:
    """Project to the carried columns, prefix them, add the other side's
    columns as nulls — both sides emit the SAME column order so the
    tagged union is schema-aligned — then replicate to cells."""
    prefix = f"l{side + 1}_"

    def fn(batch: pa.Table) -> pa.Table:
        ga = decode_geometry(batch)
        cols: dict[str, pa.Array] = {}
        n = len(batch)
        for f in all_fields:
            if f.name.startswith(prefix):
                cols[f.name] = batch.column(f.name[len(prefix):]).combine_chunks()
            else:
                cols[f.name] = pa.nulls(n, f.type)
        cols["__side"] = pa.array(np.full(n, side, dtype=np.int8))
        out = pa.table(cols)
        return replicate_to_cells(
            out, size, ga.bounds(), expand=expand,
            salt_map=salt_map, salt_mode=salt_mode,
            id_col=f"{prefix}doc_id",
        )

    return ds.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=OPTIONS.batch_size,
    )


# per-worker-process cache of decoded broadcast sides: Ray reuses worker
# processes across tasks, so the ray.get + WKB decode of a broadcast
# layer2 runs once per worker, not once per task
_BCAST_CACHE: dict = {}


def _bcast_side(ref) -> tuple[pa.Table, GeometryArray]:
    import ray as _ray

    key = ref.hex()
    hit = _BCAST_CACHE.get(key)
    if hit is None:
        g2 = _ray.get(ref)
        ga2 = from_wkb(g2.column("l2_" + _GEOM))
        ga2.bounds()  # memoize
        if len(_BCAST_CACHE) >= 4:
            _BCAST_CACHE.pop(next(iter(_BCAST_CACHE)))
        hit = (g2, ga2)
        _BCAST_CACHE[key] = hit
    return hit


def _probe_collect(
    ds2: ray.data.Dataset,
    fields: list[pa.Field],
    cap_bytes: int | None,
    prefix: str = "l2_",
) -> pa.Table | None:
    """Collect layer2's projection to ``fields`` on the driver (field
    ``prefix + c`` is column ``c``), aborting as soon as the projected
    size crosses ``cap_bytes`` (None = no cap). Returns the Arrow table
    if it fit, else None.

    A materialized layer2 is read from its stored blocks with no Ray
    execution: the driver fetches one WHOLE block at a time (on a
    multi-node cluster all its columns cross the network) and copies the
    projected columns out, so the block is freed before the next is read.
    A lazy layer2 is projected by the workers and streams through one
    execution, so only projected bytes reach the driver. The abort
    bounds the cost to ~cap_bytes + one block: a 50 TB layer2 costs one
    partial scan to rule out, never a full materialization."""

    def proj(block: pa.Table) -> pa.Table:
        return pa.table(
            {f.name: block.column(f.name[len(prefix):]) for f in fields}
        )

    lazy = not isinstance(ds2, MaterializedDataset)
    blocks = iter_blocks(
        ds2.map_batches(proj, batch_format="pyarrow", zero_copy_batch=True)
        if lazy else ds2
    )
    parts: list[pa.Table] = []
    total = 0
    with contextlib.closing(blocks):
        for block in blocks:
            t = block
            if not lazy:
                # copy the picked columns out: no stored block stays alive
                # on the driver behind them
                t = proj(block)
                t = pa.table(
                    {c: pa.concat_arrays(t.column(c).chunks) for c in t.column_names}
                )
            parts.append(t)
            total += t.nbytes
            if cap_bytes is not None and total > cap_bytes:
                return None
    if not parts:
        return pa.table({f.name: pa.array([], f.type) for f in fields})
    return pa.concat_tables(parts).combine_chunks()


def _cogroup_fields(
    ds1: ray.data.Dataset,
    ds2: ray.data.Dataset,
    cols1: list[str],
    cols2: list[str],
) -> tuple[list[pa.Field], list[pa.Field]]:
    """The l1_/l2_-prefixed carried columns of both sides: ``doc_id``,
    the requested columns and the geometry."""
    if "doc_id" not in cols1:
        cols1 = ["doc_id", *cols1]
    if "doc_id" not in cols2:
        cols2 = ["doc_id", *cols2]
    if _GEOM not in cols1:
        cols1 = [*cols1, _GEOM]
    if _GEOM not in cols2:
        cols2 = [*cols2, _GEOM]
    sch1, sch2 = ds1.schema().base_schema, ds2.schema().base_schema
    return _prefixed_schema(sch1, "l1_", cols1), _prefixed_schema(sch2, "l2_", cols2)


def _broadcast_side(
    ds2: ray.data.Dataset,
    f2: list[pa.Field],
    broadcast: bool | None = None,
    subdivide: int = 0,
) -> pa.Table | None:
    """The broadcast-or-partition choice, made before anything else is
    planned: layer2 collected (``f2`` columns) when it takes the
    no-shuffle broadcast path, None for the cell shuffle. ``broadcast``:
    None picks broadcast when the projected layer2 is at most
    ``OPTIONS.broadcast_bytes``; True forces it; False forces the
    shuffle. ``broadcast_bytes = 0`` disables broadcast altogether.

    ``subdivide`` > 0 splits the collected geometries over that many
    coordinates into grid pieces (``catalog.subdivide_table``: a Ray map
    over just those rows, none when a byte-length scan finds no such
    row). The cap applies to the pieces too: when they outgrow it, the
    cell shuffle is chosen after all."""
    if broadcast is False or not OPTIONS.broadcast_bytes:
        return None
    cap = None if broadcast else OPTIONS.broadcast_bytes
    g2 = _probe_collect(ds2, f2, cap)
    if g2 is None or not subdivide:
        return g2
    g2 = subdivide_table(g2, subdivide, "l2_" + _GEOM)
    return None if cap is not None and g2.nbytes > cap else g2


def broadcast_cogroup(
    ds1: ray.data.Dataset,
    g2: pa.Table,
    group_fn: Callable,
    f1: list[pa.Field],
    f2: list[pa.Field],
    rows_per_task: int | None = None,
) -> ray.data.Dataset:
    """Big × small join without any shuffle: the (collected, small,
    already l2_-prefixed) layer2 is ray.put ONCE and read zero-copy from
    the object store by every map task; ``group_fn`` is called per layer1
    batch with ``cell=None`` (each layer1 row appears exactly once and
    every layer2 row is visible, so no replica/ownership dedup applies).
    This is the scale path for the common big-layer × small-layer case —
    it turns an all-to-all exchange into an embarrassingly parallel map.

    ``rows_per_task`` splits layer1 into small blocks first (no shuffle)
    so one task never owns a whole dense region: with doc-id-ordered
    input a deliberately skewed hot cluster (urban pile) lands in a few
    blocks whose candidate counts are ~30× the median — fine-grained
    tasks let the scheduler spread that straggler across the pool."""
    import ray as _ray

    ref = _ray.put(g2)

    def fn(batch: pa.Table) -> pa.Table:
        g2t, ga2 = _bcast_side(ref)
        ga1 = decode_geometry(batch)
        g1 = pa.table(
            {f.name: batch.column(f.name[3:]).combine_chunks() for f in f1}
        )
        return group_fn(g1, ga1, g2t, ga2, None)

    batch_size = OPTIONS.batch_size
    if rows_per_task:
        # the split prevents one task owning a whole dense region — a
        # WALL-time straggler only when the pool would otherwise idle.
        # With few CPUs the natural block count already saturates the
        # pool and the extra repartition pass dominates (2-cpu flagship:
        # 72 s → 195 s with unconditional splitting), so gate on pool
        # size (OPTIONS.broadcast_split_min_cpus / env
        # GFR_BCAST_SPLIT_MIN_CPUS — the crossover is host-dependent).
        try:
            import ray as _ray2

            ncpu = int(_ray2.cluster_resources().get("CPU", 0))
        except Exception:  # pragma: no cover - resources probe best-effort
            ncpu = 0
        if ncpu >= OPTIONS.broadcast_split_min_cpus:
            ds1 = ds1.repartition(target_num_rows_per_block=rows_per_task)
            batch_size = min(batch_size, rows_per_task)
    return ds1.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size,
    )


def cell_cogroup(
    ds1: ray.data.Dataset,
    ds2: ray.data.Dataset,
    group_fn: Callable[[pa.Table, GeometryArray, pa.Table, GeometryArray, int], pa.Table | None],
    cols1: list[str],
    cols2: list[str],
    size: float | None = None,
    expand1: float = 0.0,
    salt: bool = False,
    broadcast: bool | None = None,
    subdivide2: int = 0,
    reunion: Callable[[pa.Table], pa.Table] | None = None,
) -> ray.data.Dataset:
    """The co-group harness. ``group_fn(t1, ga1, t2, ga2, cell)`` is
    called per cell with the two decoded sides (columns already
    l1_/l2_-prefixed) and must return an output table (or None).

    ``salt=True`` computes a hot-cell salt map from layer1 counts first
    (one cheap pre-pass), splits layer1 rows of hot cells into k sub-keys
    and replicates layer2 rows to all k — the explicit skew defense the
    north rule requires.

    ``broadcast``: None (default) auto-picks the no-shuffle broadcast
    path when layer2's materialized size is at most
    ``OPTIONS.broadcast_bytes``; True forces it; False forces the cell
    shuffle. group_fn is then called with ``cell=None`` — no ownership
    filtering (every layer1 row seen exactly once, all of layer2
    visible).

    ``subdivide2`` > 0 splits layer2 geometries over that many
    coordinates into grid pieces keeping their doc_id: the collected
    table on the broadcast path, a probed subdivide stage on the cell
    path. Without ``reunion`` only for ops whose answer per layer1 row
    does not depend on how layer2 is cut. ``reunion`` splits layer1 at
    the same limit too and merges the output rows of one (l1_doc_id,
    l2_doc_id) pair with ``reunion(table)``: inside each task on the
    broadcast path (layer1 rows are split there too, so no probe runs),
    by a shuffle on the pair on the cell path."""
    size = size or OPTIONS.cell_size
    f1, f2 = _cogroup_fields(ds1, ds2, cols1, cols2)
    all_fields = f1 + f2
    g2 = _broadcast_side(ds2, f2, broadcast, subdivide2)
    if g2 is not None:

        def split_fn(g1, ga1, t2, ga2, cell):
            g1s = subdivide_rows(g1, subdivide2, "l1_" + _GEOM)[0]
            if g1s is not g1:
                ga1 = from_wkb(g1s.column("l1_" + _GEOM))
            return reunion(group_fn(g1s, ga1, t2, ga2, cell))

        return broadcast_cogroup(
            ds1, g2, group_fn if reunion is None else split_fn, f1, f2,
            rows_per_task=OPTIONS.broadcast_rows_per_task or None,
        )
    sub1 = _subdivided_or_none(ds1, subdivide2) if reunion is not None else None
    sub2 = _subdivided_or_none(ds2, subdivide2) if subdivide2 else None
    ds1 = sub1 if sub1 is not None else ds1
    ds2 = sub2 if sub2 is not None else ds2
    salt_map = (
        compute_salt_map(ds1, size, expand=expand1) if salt else None
    )
    t1 = _project_side(
        ds1, 0, all_fields, size, expand=expand1,
        salt_map=salt_map, salt_mode="split",
    )
    t2 = _project_side(
        ds2, 1, all_fields, size,
        salt_map=salt_map, salt_mode="replicate",
    )
    tagged = t1.union(t2)

    def per_group(group: pa.Table) -> pa.Table:
        if len(group) == 0:
            # empty partition (possibly a column-less Sort output):
            # synthesize typed empty sides so group_fn emits its stable
            # output schema — keeps every block schema-identical
            g1e = pa.table({f.name: pa.array([], f.type) for f in f1})
            g2e = pa.table({f.name: pa.array([], f.type) for f in f2})
            return group_fn(
                g1e, from_wkb(g1e.column("l1_" + _GEOM)),
                g2e, from_wkb(g2e.column("l2_" + _GEOM)), None,
            )
        cell = int(group.column("__cell")[0].as_py()) >> _SALT_SHIFT
        g1 = group.filter(pc.equal(group.column("__side"), 0)).select(
            [f.name for f in f1]
        )
        g2 = group.filter(pc.equal(group.column("__side"), 1)).select(
            [f.name for f in f2]
        )
        ga1 = from_wkb(g1.column("l1_" + _GEOM))
        ga2 = from_wkb(g2.column("l2_" + _GEOM))
        # contract: group_fn always returns a table (possibly 0 rows)
        # with a stable schema, so Ray's block schema tracking stays sane
        return group_fn(g1, ga1, g2, ga2, cell)

    out = tagged.groupby("__cell").map_groups(per_group, batch_format="pyarrow")
    if reunion is None or (sub1 is None and sub2 is None):
        return out

    def reunion_part(group: pa.Table) -> pa.Table:
        return reunion(group.drop_columns(["__part"]))

    nparts = default_nparts()  # fixed at the driver
    return (
        out.map_batches(
            lambda b: _salt_parts(b, ["l1_doc_id", "l2_doc_id"], nparts),
            batch_format="pyarrow",
        )
        .groupby("__part")
        .map_groups(reunion_part, batch_format="pyarrow")
    )


# --------------------------------------------------------- dedup helpers


def _ref_cell(b1: np.ndarray, b2: np.ndarray, size: float) -> np.ndarray:
    """Cell id of the min-corner of bbox-overlap per pair — each candidate
    pair has exactly one such cell among the cells both rows were
    replicated to, so emitting only there dedupes cross-cell pairs."""
    x = np.maximum(b1[:, 0], b2[:, 0])
    y = np.maximum(b1[:, 1], b2[:, 1])
    cx = np.floor(x / size).astype(np.int64)
    cy = np.floor(y / size).astype(np.int64)
    return ((cx + CELL_OFFSET) << CELL_SHIFT) | (cy + CELL_OFFSET)


def _owner_cell(b: np.ndarray, size: float) -> np.ndarray:
    """Cell owning a single row (its bbox min corner) — for emitting each
    layer1 row exactly once across its replicas."""
    cx = np.floor(b[:, 0] / size).astype(np.int64)
    cy = np.floor(b[:, 1] / size).astype(np.int64)
    return ((cx + CELL_OFFSET) << CELL_SHIFT) | (cy + CELL_OFFSET)


# ---------------------------------------------------------------- joins


def join_by_location(
    ds1: ray.data.Dataset,
    ds2: ray.data.Dataset,
    query: str = "intersects is True",
    cols1: list[str] | None = None,
    cols2: list[str] | None = None,
    area_inters_column_name: str | None = None,
    min_area_intersect: float | None = None,
    discard_nonmatching: bool = True,
    size: float | None = None,
    salt: bool = False,
    broadcast: bool | None = None,
) -> ray.data.Dataset:
    """Spatial join (geoops.join_by_location, _geoops_sql.py:2185-2342):
    inner pairs where the relations query holds; with
    ``discard_nonmatching=False`` also layer1 rows with no match (left
    join, l2 columns null — reference's UNION ALL anti part :2298-2311).
    Optional exact intersection-area column + min-area filter
    (:2213-2233)."""
    size = size or OPTIONS.cell_size
    q = RelationQuery(query)
    if q.mentions_disjoint_true:
        # join emits candidate PAIRS, so a disjoint-satisfiable query is
        # ill-defined (it would have to emit the cross product); the
        # reference appends "and intersects is True" with a warning
        # (avoid_disjoint, _geoops_sql.py:2469-2485) — mirror that.
        import warnings

        query = f"({query}) and intersects is True"
        warnings.warn(
            "spatial relation query is satisfied by disjoint features; "
            f"'intersects is True' was added: {query}",
            stacklevel=2,
        )
        q = RelationQuery(query)
    need_area = area_inters_column_name or min_area_intersect
    cols1 = list(cols1 or _attr_cols(ds1))
    cols2 = list(cols2 or _attr_cols(ds2))

    def group_fn(g1, ga1, g2, ga2, cell):
        ia, ib = bbox_join_auto(ga1.bounds(), ga2)
        if len(ia) and cell is not None:
            ref = _ref_cell(ga1.bounds()[ia], ga2.bounds()[ib], size)
            own = ref == cell
            ia, ib = ia[own], ib[own]
        if len(ia):
            ok = evaluate_pairs(q, ga1, ia, ga2, ib)
            ia, ib = ia[ok], ib[ok]
        out = _pair_table(g1, ia, g2, ib)
        if need_area:
            areas = _pair_intersection_areas(ga1, ia, ga2, ib)
            if min_area_intersect:
                keep = areas >= min_area_intersect
                out = out.take(pa.array(np.flatnonzero(keep)))
                areas = areas[keep]
            if area_inters_column_name:
                out = out.append_column(
                    area_inters_column_name, pa.array(areas, pa.float64())
                )
        return out

    matched = cell_cogroup(
        ds1, ds2, group_fn, cols1, cols2, size=size, salt=salt,
        broadcast=broadcast,
    )
    if discard_nonmatching:
        return matched
    # left part: layer1 rows whose doc_id never matched, l2 columns null
    # (reference UNION ALL anti part, _geoops_sql.py:2298-2311)
    ordered1 = list(dict.fromkeys(["doc_id", *cols1, _GEOM]))
    ordered2 = list(dict.fromkeys(["doc_id", *cols2, _GEOM]))
    flags = _match_flags(ds1, ds2, q, size, salt)
    unmatched = flags.filter(expr="matched == 0")
    l1_full = _prefix_dataset(ds1, "l1_", ordered1)
    from .agg import default_nparts

    anti = l1_full.join(
        unmatched.map_batches(
            lambda b: b.select(["l1_doc_id"]), batch_format="pyarrow"
        ),
        join_type="inner",
        num_partitions=default_nparts(),
        on=("l1_doc_id",),
        aggregator_ray_remote_args=JOIN_AGGREGATOR_ARGS,
    )
    f2 = _prefixed_schema(ds2.schema().base_schema, "l2_", ordered2)
    out_names = ["l1_" + c for c in ordered1] + [f.name for f in f2]
    if area_inters_column_name:
        out_names.append(area_inters_column_name)

    def add_nulls(batch: pa.Table) -> pa.Table:
        for f in f2:
            batch = batch.append_column(f.name, pa.nulls(len(batch), f.type))
        if area_inters_column_name:
            batch = batch.append_column(
                area_inters_column_name, pa.nulls(len(batch), pa.float64())
            )
        return batch.select(out_names)

    anti = anti.map_batches(add_nulls, batch_format="pyarrow")
    matched = matched.map_batches(
        lambda b: b.select(out_names), batch_format="pyarrow"
    )
    return matched.union(anti)


def _attr_cols(ds: ray.data.Dataset) -> list[str]:
    names = ds.schema().base_schema.names
    return [n for n in names if n not in ("doc_id", _GEOM, "spans")]


def _prefix_dataset(ds: ray.data.Dataset, prefix: str, cols: list[str]) -> ray.data.Dataset:
    cols = list(dict.fromkeys(cols))

    def fn(batch: pa.Table) -> pa.Table:
        return pa.table({prefix + c: batch.column(c) for c in cols})

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _pair_table(g1: pa.Table, ia: np.ndarray, g2: pa.Table, ib: np.ndarray) -> pa.Table:
    left = g1.take(pa.array(ia))
    right = g2.take(pa.array(ib))
    cols = {c: left.column(c) for c in left.column_names}
    cols.update({c: right.column(c) for c in right.column_names})
    return pa.table(cols)


def _pair_intersection_areas(
    ga1: GeometryArray, ia: np.ndarray, ga2: GeometryArray, ib: np.ndarray
) -> np.ndarray:
    """Exact area of g1∩g2 per pair (rect and clip fast paths, sweep
    otherwise)."""
    from ..geom.convexclip import clip_areas, clip_pairs
    from ..geom.overlay import polygon_overlay, ring_signed_area
    from .relation import detect_rects

    out = np.zeros(len(ia), dtype=np.float64)
    if len(ia) == 0:
        return out
    r1, r2 = detect_rects(ga1), detect_rects(ga2)
    b1a, b2a = ga1.bounds(), ga2.bounds()
    fast = r1[ia] & r2[ib]
    if fast.any():
        k = np.flatnonzero(fast)
        b1 = b1a[ia[k]]
        b2 = b2a[ib[k]]
        w = np.minimum(b1[:, 2], b2[:, 2]) - np.maximum(b1[:, 0], b2[:, 0])
        h = np.minimum(b1[:, 3], b2[:, 3]) - np.maximum(b1[:, 1], b2[:, 1])
        out[k] = np.maximum(w, 0) * np.maximum(h, 0)
    # small ring × rect / convex ring: batched clip; every result ring's
    # shoelace area is exact (a bridge's two edges cancel), trusted or not
    if not fast.all():
        k, P, cnt, _ = clip_pairs(ga1, ia, ga2, ib, r1, r2, ~fast, check=False)
        out[k] = clip_areas(P, cnt)
        fast[k] = True
    for k in np.flatnonzero(~fast):
        i, j = int(ia[k]), int(ib[k])
        parts = polygon_overlay(ga1._parts_of(i), ga2._parts_of(j), "intersection")
        out[k] = sum(abs(ring_signed_area(r)) for p in parts for r in p[:1]) - sum(
            abs(ring_signed_area(r)) for p in parts for r in p[1:]
        )
    return out


def _match_flags(
    ds1: ray.data.Dataset,
    ds2: ray.data.Dataset,
    q: RelationQuery,
    size: float,
    salt: bool = False,
    expand1: float = 0.0,
    distance: float | None = None,
    with_area: bool = False,
) -> ray.data.Dataset:
    """Per layer1 doc_id: any-candidate-match flag (+ summed intersection
    area). Emits (l1_doc_id, matched_local, n_cand, area) per cell, then a
    vectorized groupby aggregate — the semi/anti-join spine of
    export_by_location/_distance (_geoops_sql.py:1604-1663)."""

    def group_fn(g1, ga1, g2, ga2, cell):
        b1 = ga1.bounds()
        if expand1:
            b1 = b1.copy()
            b1[:, :2] -= expand1
            b1[:, 2:] += expand1
        n1 = len(g1)
        own_rows = (
            np.ones(n1, dtype=bool)
            if cell is None
            else _owner_cell(b1, size) == cell
        )
        ia, ib = bbox_join_auto(ga1.bounds(), ga2, expand=expand1)
        matched = np.zeros(n1, dtype=np.int64)
        ncand = np.zeros(n1, dtype=np.int64)
        area = np.zeros(n1, dtype=np.float64)
        if len(ia) and cell is not None:
            ref = _ref_cell(b1[ia], ga2.bounds()[ib], size)
            own_pairs = ref == cell
            ia, ib = ia[own_pairs], ib[own_pairs]
        if len(ia):
            if distance is not None:
                ok = pair_distances(ga1, ia, ga2, ib) <= distance
            else:
                ok = evaluate_pairs(q, ga1, ia, ga2, ib)
            np.add.at(ncand, ia, 1)
            np.add.at(matched, ia[ok], 1)
            if with_area:
                areas = _pair_intersection_areas(ga1, ia[ok], ga2, ib[ok])
                np.add.at(area, ia[ok], areas)
        emit = own_rows | (matched > 0) | (ncand > 0)
        idx = np.flatnonzero(emit)
        return pa.table(
            {
                "l1_doc_id": g1.column("l1_doc_id").take(pa.array(idx)),
                "matched": pa.array((matched[idx] > 0).astype(np.int64), pa.int64()),
                "n_cand": pa.array(ncand[idx], pa.int64()),
                "area": pa.array(area[idx], pa.float64()),
            }
        )

    per_cell = cell_cogroup(
        ds1, ds2, group_fn, ["doc_id"], ["doc_id"], size=size,
        expand1=expand1, salt=salt,
    )
    from .agg import bucket_aggregate

    # combiner-first vectorized aggregate — Ray's groupby().aggregate()
    # costs ~100-200µs Python PER KEY, and the key here is a row id
    return bucket_aggregate(
        per_cell,
        ["l1_doc_id"],
        [("matched", "max", "matched"), ("n_cand", "sum", "n_cand"),
         ("area", "sum", "area")],
    )


def _matched_pairs_stream(
    ds1: ray.data.Dataset,
    ds2: ray.data.Dataset,
    q: RelationQuery,
    size: float,
    salt: bool,
    expand1: float = 0.0,
    distance: float | None = None,
    with_area: bool = False,
    emit_candidates: bool = False,
    subdivide2: int = 0,
) -> ray.data.Dataset:
    """Per-cell stream of OWNED candidate pairs for layer1:
    (l1_doc_id, matched, area). No per-doc aggregate — consumers dedup /
    reduce the (small) matched stream themselves. ~#pairs rows instead of
    ~#layer1 rows, which skips the 10^6-group shuffle of _match_flags."""

    def group_fn(g1, ga1, g2, ga2, cell):
        b1 = ga1.bounds()
        if expand1:
            b1 = b1.copy()
            b1[:, :2] -= expand1
            b1[:, 2:] += expand1
        ia, ib = bbox_join_auto(ga1.bounds(), ga2, expand=expand1)
        if len(ia) and cell is not None:
            ref = _ref_cell(b1[ia], ga2.bounds()[ib], size)
            own = ref == cell
            ia, ib = ia[own], ib[own]
        if distance is not None:
            ok = pair_distances(ga1, ia, ga2, ib) <= distance if len(ia) else np.zeros(0, bool)
        else:
            ok = evaluate_pairs(q, ga1, ia, ga2, ib) if len(ia) else np.zeros(0, bool)
        if not emit_candidates:
            ia, ib = ia[ok], ib[ok]
            ok = np.ones(len(ia), dtype=bool)
        area = np.zeros(len(ia), dtype=np.float64)
        if with_area and len(ia):
            area[ok] = _pair_intersection_areas(ga1, ia[ok], ga2, ib[ok])
        return pa.table(
            {
                "l1_doc_id": g1.column("l1_doc_id").take(pa.array(ia)),
                "matched": pa.array(ok.astype(np.int8), pa.int8()),
                "area": pa.array(area, pa.float64()),
            }
        )

    return cell_cogroup(
        ds1, ds2, group_fn, ["doc_id"], ["doc_id"], size=size,
        expand1=expand1, salt=salt, subdivide2=subdivide2,
    )


def _semi_filter_by_ids(
    l1: ray.data.Dataset,
    keep: ray.data.Dataset,
    mode: str,
    area_col: str | None,
    broadcast_limit: int,
) -> ray.data.Dataset:
    """Filter the wide layer1 rows by a (materialized, reduced) id
    Dataset. ``mode='keep'``: keep ids present (attaching ``area_col``);
    ``mode='drop'``: keep ids ABSENT (the De-Morgan complement set).

    Path choice by measured cardinality: small id sets are pulled once to
    the driver and broadcast via ``ray.put`` (one object-store read per
    task); big sets go through a distributed hash join — no driver
    materialization ever exceeds ``broadcast_limit`` rows."""
    import ray as _ray

    n = keep.count()  # metadata count — `keep` is materialized
    if n <= broadcast_limit:
        rows = keep.take_all()
        ids = np.array([r["l1_doc_id"] for r in rows], dtype=np.int64)
        order = np.argsort(ids)
        ids = ids[order]
        areas = (
            np.array([rows[i]["area"] for i in order], dtype=np.float64)
            if area_col
            else None
        )
        ref = _ray.put((ids, areas))

        def fn(batch: pa.Table) -> pa.Table:
            kid, kar = _ray.get(ref)
            mine = batch.column("l1_doc_id").to_numpy()
            pos = np.clip(np.searchsorted(kid, mine), 0, max(len(kid) - 1, 0))
            hit = (kid[pos] == mine) if len(kid) else np.zeros(len(mine), bool)
            if mode == "drop":
                hit = ~hit
            idx = np.flatnonzero(hit)
            out = batch.take(pa.array(idx))
            if area_col:
                out = out.append_column(
                    area_col, pa.array(kar[pos[idx]], pa.float64())
                )
            return out

        return l1.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)
    # distributed path: hash join (semi via inner, anti via left_outer +
    # null-marker filter)
    if mode == "keep":
        cols = ["l1_doc_id"] + (["area"] if area_col else [])
        out = l1.join(
            keep.map_batches(lambda b: b.select(cols), batch_format="pyarrow"),
            join_type="inner", num_partitions=max(32, n // 1_000_000),
            on=("l1_doc_id",), aggregator_ray_remote_args=JOIN_AGGREGATOR_ARGS,
        )
        if area_col:
            out = out.map_batches(
                lambda b: b.rename_columns(
                    [area_col if c == "area" else c for c in b.column_names]
                ),
                batch_format="pyarrow",
            )
        return out
    marked = keep.map_batches(
        lambda b: pa.table(
            {
                "l1_doc_id": b.column("l1_doc_id"),
                "__drop": pa.array(np.ones(len(b), np.int8)),
            }
        ),
        batch_format="pyarrow",
    )
    joined = l1.join(
        marked, join_type="left_outer",
        num_partitions=max(32, n // 1_000_000), on=("l1_doc_id",),
        aggregator_ray_remote_args=JOIN_AGGREGATOR_ARGS,
    )
    return joined.filter(expr="__drop is null").drop_columns(["__drop"])


def export_by_location(
    ds1: ray.data.Dataset,
    ds2: ray.data.Dataset,
    query: str = "intersects is True",
    area_inters_column_name: str | None = None,
    min_area_intersect: float | None = None,
    size: float | None = None,
    salt: bool = False,
    broadcast_limit: int | None = None,
) -> ray.data.Dataset:
    """Spatial semi-join: keep layer1 rows where the query holds
    (geoops.export_by_location → _geoops_sql.py:1541-1736).

    Disjoint-satisfiable queries follow the reference's De Morgan rewrite
    (:2436-2445): the query must hold for ALL bbox candidates (NOT EXISTS
    a candidate failing it), and rows with zero candidates are kept
    (:1617-1630) — NOT merely "exists a candidate satisfying it".

    Shape: one cell co-shuffle emitting only the owned candidate pairs →
    distributed groupby(l1_doc_id) reduce (never a driver take_all of the
    pair stream) → semi-filter of the wide layer1 rows, broadcast when
    the reduced id set is measured small, hash join otherwise."""
    size = size or OPTIONS.cell_size
    q = RelationQuery(query)
    include_disjoint = q.mentions_disjoint_true
    with_area = bool(area_inters_column_name or min_area_intersect)
    broadcast_limit = broadcast_limit or OPTIONS.broadcast_id_limit
    subdivide2 = 0
    if query.strip().lower() == "intersects is true" and not with_area:
        # EXISTS(any piece intersects) ⟺ EXISTS(whole intersects): safe to
        # subdivide complex layer2 geometries (reference complexpoly
        # path, _geoops_sql.py:1893-1929)
        from .overlay_ops import _SUBDIVIDE_DIFFERENCE

        subdivide2 = _SUBDIVIDE_DIFFERENCE
    pairs = _matched_pairs_stream(
        ds1, ds2, q, size, salt,
        with_area=with_area, emit_candidates=include_disjoint,
        subdivide2=subdivide2,
    )
    from .agg import bucket_aggregate

    flags = bucket_aggregate(
        pairs,
        ["l1_doc_id"],
        [("matched", "sum", "n_match"), ("matched", "count", "n_cand"),
         ("area", "sum", "area")],
    )
    full_cols = [c for c in ds1.schema().base_schema.names if c != _GEOM] + [_GEOM]
    l1 = _prefix_dataset(ds1, "l1_", full_cols)
    if include_disjoint:
        if min_area_intersect:
            # min_area is an ADDITIONAL conjunct on the intersection
            # area (reference test_export_by_location.py:84-88:
            # "within is False" + min_area 1000 → 16): zero-candidate
            # rows have area 0 and fail it, so the usual
            # keep-on-no-candidates rule flips to a keep-set
            kept = flags.filter(
                expr=(
                    "n_match >= n_cand and "
                    f"area >= {float(min_area_intersect)}"
                )
            ).materialize()
            return _semi_filter_by_ids(
                l1, kept, "keep", area_inters_column_name, broadcast_limit
            )
        # keep rows where ALL candidates satisfy the query, or no
        # candidates exist → drop-set = ids with any failing candidate
        # (smaller than the keep-set and covers zero-candidate rows)
        drop = flags.filter(expr="n_match < n_cand").materialize()
        return _semi_filter_by_ids(l1, drop, "drop", None, broadcast_limit)
    kept = flags.filter(expr="n_match > 0")
    if min_area_intersect:
        kept = kept.filter(expr=f"area >= {float(min_area_intersect)}")
    kept = kept.materialize()
    return _semi_filter_by_ids(
        l1, kept, "keep", area_inters_column_name, broadcast_limit
    )


def export_by_distance(
    ds1: ray.data.Dataset,
    ds2: ray.data.Dataset,
    max_distance: float,
    size: float | None = None,
    salt: bool = False,
    broadcast_limit: int | None = None,
) -> ray.data.Dataset:
    """Semi-join within distance (geoops.export_by_distance →
    _geoops_sql.py:1739-1802): bbox expanded by max_distance + exact
    ST_Distance <= d EXISTS — pair stream → distributed groupby dedup →
    broadcast / hash-join semi-filter (no unbounded driver take_all)."""
    size = size or OPTIONS.cell_size
    broadcast_limit = broadcast_limit or OPTIONS.broadcast_id_limit
    pairs = _matched_pairs_stream(
        ds1, ds2, RelationQuery("intersects is True"), size, salt,
        expand1=max_distance, distance=max_distance,
    )
    from .agg import bucket_aggregate

    kept = (
        bucket_aggregate(pairs, ["l1_doc_id"], [("matched", "max", "m")])
        .map_batches(
            lambda b: b.select(["l1_doc_id"]), batch_format="pyarrow"
        )
        .materialize()
    )
    full_cols = [c for c in ds1.schema().base_schema.names if c != _GEOM] + [_GEOM]
    l1 = _prefix_dataset(ds1, "l1_", full_cols)
    return _semi_filter_by_ids(l1, kept, "keep", None, broadcast_limit)


def join_attributes(
    ds1: ray.data.Dataset,
    ds2: ray.data.Dataset,
    on: list[str] | None = None,
    how: str = "inner",
    num_partitions: int | None = None,
    left_on: list[str] | str | None = None,
    right_on: list[str] | str | None = None,
) -> ray.data.Dataset:
    """Attribute equi-join keeping layer1 geometry (geoops.join,
    _geoops_sql.py:2105-2182) — Ray Data hash join, non-spatial.
    Partition count scales with the pool unless pinned.

    ``left_on``/``right_on`` (the reference's input1_on/input2_on,
    geoops.py join) allow different key column names per side — the
    right keys are renamed to the left names before the hash join, so
    the join key appears once in the output under the left name (the
    reference's behavior)."""
    from .agg import default_nparts

    if on is None:
        if left_on is None or right_on is None:
            raise TypeError("join needs on=[...] or left_on/right_on")
        lo = [left_on] if isinstance(left_on, str) else list(left_on)
        ro = [right_on] if isinstance(right_on, str) else list(right_on)
        if len(lo) != len(ro):
            raise ValueError("left_on and right_on need equal lengths")
        ren = dict(zip(ro, lo))

        def rename(b: pa.Table) -> pa.Table:
            return b.rename_columns(
                [ren.get(c, c) for c in b.column_names]
            )

        ds2 = ds2.map_batches(rename, batch_format="pyarrow")
        on = lo
    ds2_nogeo = ds2.map_batches(
        lambda b: b.drop_columns([c for c in (_GEOM, "spans") if c in b.column_names]),
        batch_format="pyarrow",
    )
    jt = {"inner": "inner", "left": "left_outer"}[how]
    return ds1.join(
        ds2_nogeo, join_type=jt,
        num_partitions=num_partitions or default_nparts(),
        on=tuple(on), left_suffix="_1", right_suffix="_2",
        aggregator_ray_remote_args=JOIN_AGGREGATOR_ARGS,
    )


def delete_duplicate_geometries(
    ds: ray.data.Dataset,
    priority_column: str | None = None,
    priority_ascending: bool = True,
) -> ray.data.Dataset:
    """Drop rows whose geometry ST_Equals an earlier-priority row
    (geoops.delete_duplicate_geometries, _geoops_sql.py:164-249). Dedup
    key = canonical-form sha1 (FULL 160-bit digest — no truncation, so
    key equality is exact at any scale) → hash-partition groupby → keep
    the FIRST_VALUE by priority (reference :198-225).

    The dominant shapes — single-part, single-ring polygons and lines
    (every union_full_self intersection piece) — are canonicalized
    VECTORIZED over the packed coordinate slab: closing-vertex strip,
    shoelace orientation, lex-min rotation and the reversal gather are
    all whole-batch numpy; the per-row Python cost is one sha1 over a
    slab slice. Multi-part / holed rows take the structural fallback."""
    import hashlib

    def _canon_ring(ring: np.ndarray) -> bytes:
        """Canonical byte form of a closed ring: CCW orientation, start
        rotated to the lexicographically smallest vertex — so rings with
        the same point set but different connectivity hash differently
        (ST_Equals-faithful, unlike a bare vertex multiset)."""
        from ..geom.overlay import ensure_ccw, ensure_closed

        r = ensure_ccw(ensure_closed(np.round(ring, 9) + 0.0))[:-1]
        if len(r) == 0:
            return b""
        ks = np.lexsort((r[:, 1], r[:, 0]))
        k = int(ks[0])
        ties = np.flatnonzero((r == r[k]).all(axis=1))
        if len(ties) == 1:
            return np.roll(r, -k, axis=0).tobytes()
        # duplicated lex-min vertex: smallest rotation among the tied
        # starts — invariant to the ring's stored start and orientation
        return min(np.roll(r, -int(t), axis=0).tobytes() for t in ties)

    def _canon_line(r: np.ndarray) -> bytes:
        """Direction-invariant canonical byte form of a polyline
        (ST_Equals holds between a line and its reverse); closed lines
        are additionally rotation-invariant (topologically the same
        closed curve regardless of stored start). The b'C' tag keeps a
        closed line (stored without its closing vertex) from colliding
        with an open line through the same vertex sequence."""
        if len(r) > 1 and (r[0] == r[-1]).all():
            body = r[:-1]
            best = None
            for seq in (body, body[::-1]):
                ks = np.lexsort((seq[:, 1], seq[:, 0]))
                k = int(ks[0])
                ties = np.flatnonzero((seq == seq[k]).all(axis=1))
                cand = min(
                    np.roll(seq, -int(t), axis=0).tobytes() for t in ties
                )
                best = cand if best is None or cand < best else best
            return b"C" + best
        fwd = np.ascontiguousarray(r).tobytes()
        bwd = np.ascontiguousarray(r[::-1]).tobytes()
        return min(fwd, bwd)

    def keyed(batch: pa.Table) -> pa.Table:
        ga = decode_geometry(batch)
        n = len(ga)
        keys: list[str | None] = [None] * n
        lo, hi = ga.geom_coord_ranges()
        from ..geom.array import (
            LINESTRING,
            MULTILINESTRING,
            MULTIPOLYGON,
            POINT,
            POLYGON,
        )

        # vectorized fast path 1: pure point rows key on their coordinate
        is_pt = (ga.types == POINT) & (hi - lo == 1)
        if is_pt.any():
            pts = np.round(ga.coords[lo[is_pt.nonzero()[0]]], 9) + 0.0
            for j, i in enumerate(np.flatnonzero(is_pt)):
                keys[i] = f"P{pts[j, 0]}_{pts[j, 1]}"

        # vectorized fast path 2: single-part single-ring polygons/lines
        geo, po = ga.geom_offsets, ga.part_offsets
        nparts = geo[1:] - geo[:-1]
        nrings = po[geo[1:]] - po[geo[:-1]]
        prim_poly = np.isin(ga.types, (POLYGON, MULTIPOLYGON))
        prim_line = np.isin(ga.types, (LINESTRING, MULTILINESTRING))
        vec = (nparts == 1) & (nrings == 1) & (prim_poly | prim_line)
        vec &= hi - lo > 0
        vidx = np.flatnonzero(vec)
        if len(vidx):
            R = np.round(ga.coords, 9) + 0.0  # +0.0 normalizes -0.0
            x, y = np.ascontiguousarray(R[:, 0]), np.ascontiguousarray(R[:, 1])
            s = lo[vidx].astype(np.int64)
            e = hi[vidx].astype(np.int64)
            pol = prim_poly[vidx]
            closed = pol & (e - s > 1) & (x[e - 1] == x[s]) & (y[e - 1] == y[s])
            e = e - closed
            L = e - s
            # shoelace orientation over [s,e) with wraparound (cumsum of
            # global consecutive-pair cross terms — no reduceat edges)
            cr = x[:-1] * y[1:] - x[1:] * y[:-1]
            cs = np.concatenate([[0.0], np.cumsum(cr)])
            ccw = (cs[e - 1] - cs[s] + x[e - 1] * y[s] - x[s] * y[e - 1]) >= 0
            # lines: ST_Equals treats a line and its reverse as equal, so
            # canonicalize direction by the lexicographically smaller
            # endpoint; equal endpoints (closed lines — where rotation
            # would also matter) route to the structural fallback
            fwd_lt = (x[s] < x[e - 1]) | (
                (x[s] == x[e - 1]) & (y[s] <= y[e - 1])
            )
            line_tie = ~pol & (x[s] == x[e - 1]) & (y[s] == y[e - 1])
            ccw = np.where(pol, ccw, fwd_lt)
            # ragged positions: w = within-ring offset, gpos = global idx
            startw = np.concatenate([[0], np.cumsum(L)[:-1]]).astype(np.int64)
            w = np.arange(int(L.sum()), dtype=np.int64) - np.repeat(startw, L)
            gpos = np.repeat(s, L) + w
            # lex-min (x, then y) vertex per ring via two reduceat passes
            xg, yg = x[gpos], y[gpos]
            minx = np.minimum.reduceat(xg, startw)
            is_minx = xg == np.repeat(minx, L)
            miny = np.minimum.reduceat(np.where(is_minx, yg, np.inf), startw)
            is_min = is_minx & (yg == np.repeat(miny, L))
            # a DUPLICATED lex-min vertex makes the rotation start
            # ambiguous (start-dependent) — route those rare rings to the
            # structural fallback, whose min-rotation tie-break is
            # start/orientation-invariant
            Lr = np.repeat(L, L)
            multi = pol & (np.add.reduceat(is_min.astype(np.int64), startw) > 1)
            multi |= line_tie  # closed-line rotation → structural fallback
            # unique lex-min: its stored index IS the pivot (invariant)
            pivot = np.minimum.reduceat(np.where(is_min, w, Lr), startw)
            # lines start at whichever endpoint is lex-smaller (forward:
            # index 0; reversed: index L-1 walking backwards)
            pivot = np.where(pol, pivot, np.where(ccw, 0, L - 1))
            dirn = np.where(ccw, 1, -1)
            canon_w = (np.repeat(pivot, L) + np.repeat(dirn, L) * w) % np.repeat(L, L)
            slab = np.ascontiguousarray(R[np.repeat(s, L) + canon_w]).tobytes()
            mv = memoryview(slab)
            offs = startw * 16
            tb = np.where(pol, POLYGON, LINESTRING).astype(np.uint8)
            if multi.any():
                vec[vidx[multi]] = False  # → structural fallback below
            for j, i in enumerate(vidx):
                if multi[j]:
                    continue
                h = hashlib.sha1(mv[offs[j] : offs[j] + int(L[j]) * 16])
                h.update(tb[j : j + 1].tobytes())
                keys[i] = h.hexdigest()

        for i in np.flatnonzero(~is_pt & ~vec):
            # structural fallback: per part, canonical rings (outer
            # first, holes sorted); parts sorted — invariant to part/ring
            # order and ring start/orientation, sensitive to connectivity
            parts = ga._parts_of(int(i))
            pt = ga.part_types(int(i))
            part_blobs = []
            for part in parts:
                if pt == POLYGON:
                    rings = [_canon_ring(part[0])] + sorted(
                        _canon_ring(r) for r in part[1:]
                    )
                else:
                    # direction-invariant (ST_Equals: a line equals its
                    # reverse); closed lines additionally canonicalize
                    # rotation over the interior vertices
                    rings = [_canon_line(np.round(r, 9) + 0.0) for r in part]
                part_blobs.append(b"\x01".join(rings))
            blob = b"\x02".join(sorted(part_blobs)) + bytes([pt % 256])
            keys[i] = hashlib.sha1(blob).hexdigest()
        return batch.append_column("__geomkey", pa.array(keys, pa.string()))

    keyed_ds = ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)

    # A per-key map_groups (and even Ray's groupby().count()) costs one
    # Python call PER KEY — the dominant cost on a mostly-unique layer.
    # Instead: hash-partition keys into a FIXED number of salt buckets
    # (__part = hash(key) % nparts — same key, same bucket), group by the
    # bucket (nparts Python calls total), and pick the first-per-key
    # VECTORIZED inside each bucket: one arrow sort + run-boundary mask.
    sort_keys = [("__geomkey", "ascending")]
    if priority_column is not None:
        sort_keys.append(
            (priority_column, "ascending" if priority_ascending else "descending")
        )

    def first_per_key(block: pa.Table) -> pa.Table:
        drop = ["__geomkey", "__part"]
        if len(block) == 0:
            # tolerant select: a column-less Sort-output empty partition
            # has nothing to drop
            return block.select(
                [c for c in block.column_names if c not in drop]
            )
        sk = list(sort_keys)
        if "doc_id" in block.column_names:
            sk.append(("doc_id", "ascending"))  # deterministic tie-break
        srt = block.take(pc.sort_indices(block, sort_keys=sk))
        k = srt.column("__geomkey").to_numpy(zero_copy_only=False)
        firsts = np.ones(len(k), dtype=bool)
        firsts[1:] = k[1:] != k[:-1]
        return srt.filter(pa.array(firsts)).drop_columns(drop)

    from .agg import _salt_parts, default_nparts

    nparts = default_nparts()  # fixed at the driver: same key, same part

    return (
        keyed_ds.map_batches(
            lambda b: _salt_parts(b, ["__geomkey"], nparts),
            batch_format="pyarrow",
        )
        .groupby("__part")
        .map_groups(first_per_key, batch_format="pyarrow")
    )
