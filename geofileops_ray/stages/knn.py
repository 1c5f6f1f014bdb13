"""join_nearest — kNN spatial join via cell-ring expansion.

Reference: geoops.join_nearest (geoops.py:3190-3301) runs spatialite
``knn2`` seeded at ST_Centroid(g1) with ``radius`` (initial search
distance), ``max_items`` (=nb_nearest) and an ``expand`` flag, emitting
``pos`` rank + distance (_geoops_sql.py:2581-2697).

Ray shape (SURVEY.md §7.1 step 5): driver loop of rounds with doubling
search radius. In a round with radius E: layer1 rows are assigned to the
single cell holding their centroid; layer2 rows are replicated to every
cell within E of their bbox. A layer1 row finalizes when its k-th
candidate distance is ≤ E — then no unseen layer2 row can be nearer
(any geometry within d ≤ E of the centroid has a bbox overlapping the
centroid's cell expanded by E, hence is present in the group). Unfinished
rows re-enter the next round at 2E. With ``expand=False`` a single round
at ``radius`` runs and only neighbours within ``radius`` are returned —
exactly knn2's radius-limited mode.

Candidate ranking inside a group is exact: bbox lower-bound distances
sort the candidates, exact geometry distances are computed in increasing
lower-bound order until the lower bound exceeds the current k-th exact
distance.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..config import OPTIONS
from ..geom import GeometryArray, from_wkb
from ..geom.measure import centroid
from ..geom.predicates import pair_distance
from ..tiling.cells import CELL_OFFSET, CELL_SHIFT, assign_cells, cell_of_point
from .geometry_batch import decode_geometry
from .relation import detect_rects
from .spatial_join import _attr_cols, _prefixed_schema, _probe_collect

_GEOM = "geometry"


def _knn_block(
    ga1: GeometryArray,
    ga2: GeometryArray,
    k: int,
    rects1: np.ndarray,
    rects2: np.ndarray,
    ids2: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized exact kNN of every ga1 row against the whole ga2 layer
    by planar ST_Distance, ties broken by layer2 doc_id.

    Returns flat ``(rows, js, dists)`` (row-major, pos order within a
    row) plus per-row ``counts`` and ``kth`` (distance of the k-th
    neighbour; +inf when fewer than k exist). Bbox-to-bbox lower-bound
    distances (a true lower bound of pair_distance, exact when both
    sides are axis-aligned rects/points) are computed as one (chunked)
    numpy broadcast; exact refinement runs only for non-rect pairs
    inside the argpartition window, and the window grows until no
    excluded candidate's lower bound can beat the current k-th exact
    distance."""
    n1, n2 = len(ga1), len(ga2)
    empty = np.empty(0, np.int64)
    if n1 == 0 or n2 == 0:
        return (
            empty, empty, np.empty(0, np.float64),
            np.zeros(n1, np.int64), np.full(n1, np.inf),
        )
    b1 = ga1.bounds()
    b2 = ga2.bounds()
    tie = ids2 if ids2 is not None else np.arange(n2, dtype=np.int64)
    all_rect2 = bool(rects2.all())
    out_rows: list[np.ndarray] = []
    out_js: list[np.ndarray] = []
    out_ds: list[np.ndarray] = []
    counts = np.zeros(n1, np.int64)
    kth = np.full(n1, np.inf)
    # cap the (rows × n2) lower-bound matrix at ~32 MB per chunk
    chunk = max(1, 4_000_000 // n2)
    kk = min(k, n2)
    for s in range(0, n1, chunk):
        e = min(n1, s + chunk)
        m = e - s
        dx = np.maximum(
            np.maximum(b2[None, :, 0] - b1[s:e, 2, None], b1[s:e, 0, None] - b2[None, :, 2]),
            0.0,
        )
        dy = np.maximum(
            np.maximum(b2[None, :, 1] - b1[s:e, 3, None], b1[s:e, 1, None] - b2[None, :, 3]),
            0.0,
        )
        lb = np.hypot(dx, dy)
        exact_chunk = all_rect2 and bool(rects1[s:e].all())
        mcand = n2 if exact_chunk and kk == n2 else min(n2, max(kk + 8, 2 * kk))
        while True:
            if mcand < n2:
                part = np.argpartition(lb, mcand - 1, axis=1)[:, :mcand]
                # smallest lower bound among EXCLUDED candidates per row
                excl_lb = np.partition(lb, mcand, axis=1)[:, mcand]
            else:
                part = np.broadcast_to(np.arange(n2), (m, n2)).copy()
                excl_lb = np.full(m, np.inf)
            d = np.take_along_axis(lb, part, axis=1)
            if not exact_chunk:
                nr = ~(rects1[s:e, None] & rects2[part])
                if nr.any():
                    ri, ci = np.nonzero(nr)
                    for a, c in zip(ri, ci):
                        d[a, c] = pair_distance(
                            ga1, s + int(a), ga2, int(part[a, c])
                        )
            order = np.lexsort((tie[part], d), axis=1)[:, :kk]
            js = np.take_along_axis(part, order, axis=1)
            dd = np.take_along_axis(d, order, axis=1)
            dk = dd[:, kk - 1] if kk else np.zeros(m)
            # a tie at the cutoff (excl_lb == dk) could still swap in a
            # smaller doc_id — widen the window until provably complete
            if mcand >= n2 or not (excl_lb <= dk).any():
                break
            mcand = min(n2, mcand * 4)
        out_rows.append(np.repeat(np.arange(s, e, dtype=np.int64), kk))
        out_js.append(js.ravel().astype(np.int64))
        out_ds.append(dd.ravel())
        counts[s:e] = kk
        kth[s:e] = dk if kk >= k else np.inf
    return (
        np.concatenate(out_rows), np.concatenate(out_js),
        np.concatenate(out_ds), counts, kth,
    )


def _ranks(rows: np.ndarray) -> np.ndarray:
    """1-based position within each run of equal (sorted) row ids."""
    if len(rows) == 0:
        return np.empty(0, np.int64)
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    idx = np.arange(len(rows), dtype=np.int64)
    lens = np.diff(np.r_[starts, len(rows)])
    return idx - np.repeat(idx[starts], lens) + 1


def _exact_knn(
    ga1: GeometryArray,
    i: int,
    ga2: GeometryArray,
    k: int,
    ids2: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(indices, distances) of the ≤k nearest layer2 rows to geometry i
    by brute-force ST_Distance, ties broken by layer2 doc_id. Test
    oracle for _knn_block — not used in the pipeline."""
    n2 = len(ga2)
    d = np.array([pair_distance(ga1, i, ga2, j) for j in range(n2)])
    tie = ids2 if ids2 is not None else np.arange(n2, dtype=np.int64)
    order = np.lexsort((tie, d))[: min(k, n2)]
    return order.astype(np.int64), d[order]


def _dist_cols(ga1, rows1, ga2, rows2, dists, crs_epsg, user_snap=None):
    """distance_crs = planar CRS-unit distance (the kNN metric);
    distance = great-circle meters between the planar nearest points,
    inverse-projected to lon/lat (reference emits both — ST_Distance +
    knn2 distance_crs, _geoops_sql.py:2652-2671; here the geodesic is
    spherical, geom/crs.py R_MEAN, documented). Without a CRS the two
    columns are equal (planar). ``user_snap`` re-installs any
    register_crs() registrations in this worker process."""
    cols = {"distance_crs": pa.array(dists, pa.float64())}
    if crs_epsg is None:
        cols["distance"] = pa.array(dists, pa.float64())
    else:
        from ..geom.crs import geodesic_xy, install_user_crs
        from .relation import pair_nearest_points_batch

        if user_snap:
            install_user_crs(user_snap)

        pts = pair_nearest_points_batch(ga1, rows1, ga2, rows2, dists)
        cols["distance"] = pa.array(
            geodesic_xy(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3], crs_epsg),
            pa.float64(),
        )
    return cols


def _nonempty_mask(col) -> pa.Array:
    """Per row: True unless the WKB is NULL or EMPTY, without a decode.
    A NULL or EMPTY geometry's WKB is ≤ 13 bytes (header + zero count),
    except POINT EMPTY: a 21-byte point whose x is NaN. The smallest real
    geometry is a 21-byte point, so a length scan suffices, plus for the
    21-byte rows the x at byte offset 5, read in the byte order that
    byte 0 names."""
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    lens = pc.fill_null(pc.binary_length(col), 0).to_numpy(zero_copy_only=False)
    keep = lens >= 21
    pts = np.flatnonzero(lens == 21)
    if len(pts):
        wide = pa.types.is_large_binary(col.type)
        offs = np.frombuffer(
            col.buffers()[1], dtype=np.int64 if wide else np.int32
        )[col.offset:]
        data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
        start = offs[pts].astype(np.int64)
        raw = data[start[:, None] + np.arange(5, 13)]
        big_endian = data[start] == 0
        raw[big_endian] = raw[big_endian, ::-1]
        keep[pts] = ~np.isnan(np.ascontiguousarray(raw).view("<f8")[:, 0])
    return pa.array(keep)


def _drop_empty_rows(t: pa.Table) -> pa.Table:
    keep = _nonempty_mask(t.column(_GEOM))
    return t if pc.all(keep).as_py() else t.filter(keep)


def _broadcast_knn(
    ds1: ray.data.Dataset,
    tbl2: pa.Table,
    k: int,
    radius: float,
    expand: bool,
    ordered1: list[str],
    ordered2: list[str],
    f2: list[pa.Field],
    crs_epsg: int | None = None,
) -> ray.data.Dataset:
    """Exact kNN with the whole (already byte-cap-probed) layer2
    broadcast once (ray.put): per batch, vectorized bbox lower-bound
    distances + exact refinement."""
    import ray as _ray

    tbl2 = tbl2.combine_chunks().select(ordered2)
    ga2 = from_wkb(tbl2.column(_GEOM))
    rects2 = detect_rects(ga2)
    ids2 = tbl2.column("doc_id").to_numpy()
    ga2.bounds()  # precompute cache before broadcast
    ref = _ray.put((tbl2, ga2, rects2, ids2))
    from ..geom.crs import user_crs_snapshot

    user_snap = user_crs_snapshot() if crs_epsg is not None else None

    def fn(batch: pa.Table) -> pa.Table:
        t2, ga2_local, r2, i2 = _ray.get(ref)
        ga1 = from_wkb(batch.column(_GEOM))
        rects1 = detect_rects(ga1)
        rows1, rows2, dists, _, _ = _knn_block(ga1, ga2_local, k, rects1, r2, i2)
        if not expand:
            keep = dists <= radius
            rows1, rows2, dists = rows1[keep], rows2[keep], dists[keep]
        poss = _ranks(rows1)
        left = batch.select(ordered1).take(pa.array(rows1, pa.int64()))
        right = t2.take(pa.array(rows2, pa.int64()))
        cols = {"l1_" + c: left.column(c) for c in ordered1}
        cols.update({"l2_" + c: right.column(c) for c in ordered2})
        cols["pos"] = pa.array(poss.astype(np.int64), pa.int64())
        cols.update(
            _dist_cols(ga1, rows1, ga2_local, rows2, dists, crs_epsg, user_snap)
        )
        return pa.table(cols)

    return ds1.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=OPTIONS.batch_size,
    )


def join_nearest(
    ds1: ray.data.Dataset,
    ds2: ray.data.Dataset,
    nb_nearest: int = 1,
    radius: float | None = None,
    expand: bool = True,
    cols1: list[str] | None = None,
    cols2: list[str] | None = None,
    size: float | None = None,
    max_rounds: int = 6,
    broadcast_threshold: int | None = None,
    crs_epsg: int | None = None,
) -> ray.data.Dataset:
    """kNN join emitting (l1_*, l2_*, pos, distance, distance_crs); pos
    is the 1-based rank by planar distance (ties broken by layer2 doc_id
    via the stable lower-bound ordering). distance_crs is the planar
    CRS-unit distance; distance is the spherical geodesic in meters when
    ``crs_epsg`` names a supported projection (geom/crs.py), else equal
    to distance_crs."""
    size = size or OPTIONS.cell_size
    radius = radius or size

    # NULL/EMPTY-geometry rows take part in no nearest relation (the
    # reference's expected count is nb_nearest × (rows with non-empty
    # geometry), test_geofileops_twolayers.py:1465-1524 — the parcel
    # fixture carries one EMPTY multipolygon). Schemas are read from the
    # inputs, before the filter stage, so a materialized input is not
    # probed.
    def _drop_null_geom(ds):
        return ds.map_batches(
            _drop_empty_rows, batch_format="pyarrow", zero_copy_batch=True
        )

    from ..geom.crs import user_crs_snapshot

    # driver-side snapshot: register_crs state must travel into the
    # worker kernels that compute the geodesic distance column
    user_snap = user_crs_snapshot() if crs_epsg is not None else None
    cols1 = list(cols1 or _attr_cols(ds1))
    cols2 = list(cols2 or _attr_cols(ds2))
    ordered1 = list(dict.fromkeys(["doc_id", *cols1, _GEOM]))
    ordered2 = list(dict.fromkeys(["doc_id", *cols2, _GEOM]))
    sch2 = ds2.schema().base_schema
    f1 = _prefixed_schema(ds1.schema().base_schema, "l1_", ordered1)
    f2 = _prefixed_schema(sch2, "l2_", ordered2)
    all_fields = f1 + f2
    ds1 = _drop_null_geom(ds1)

    # broadcast fast path: a small layer2 is shipped ONCE via ray.put
    # and every batch runs exact kNN against it — no rounds, no shuffle
    # (the broadcast-small-side rule; the cell-ring path below is the
    # both-sides-large scale path). The gate is the same BYTE cap as
    # the sjoin broadcast (config.broadcast_bytes, default 128 MB) so a
    # wide layer2 can't blow the object-store copy the way a row count
    # gate would let it — probed with a streaming partial scan that
    # aborts at the cap (never a full materialization of a big side).
    cap = (
        OPTIONS.broadcast_bytes
        if broadcast_threshold is None
        else broadcast_threshold
    )
    plain2 = [sch2.field(c) for c in ordered2]
    tbl2 = _probe_collect(ds2, plain2, cap, prefix="")
    if tbl2 is not None:
        return _broadcast_knn(
            ds1, _drop_empty_rows(tbl2), nb_nearest, radius, expand,
            ordered1, ordered2, f2, crs_epsg,
        )
    ds2 = _drop_null_geom(ds2)

    def project(ds, side, expand_dist):
        prefix = f"l{side + 1}_"

        def fn(batch: pa.Table) -> pa.Table:
            ga = decode_geometry(batch)
            cols = {}
            n = len(batch)
            for f in all_fields:
                if f.name.startswith(prefix):
                    cols[f.name] = batch.column(f.name[len(prefix):]).combine_chunks()
                else:
                    cols[f.name] = pa.nulls(n, f.type)
            cols["__side"] = pa.array(np.full(n, side, dtype=np.int8))
            out = pa.table(cols)
            if side == 0:
                cen = centroid(ga)
                cells = cell_of_point(cen[:, 0], cen[:, 1], size)
                return out.append_column("__cell", pa.array(cells, pa.int64()))
            b = ga.bounds().copy()
            b[:, :2] -= expand_dist
            b[:, 2:] += expand_dist
            rows, cells = assign_cells(b, size)
            out = out.take(pa.array(rows))
            return out.append_column("__cell", pa.array(cells, pa.int64()))

        return ds.map_batches(
            fn, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=OPTIONS.batch_size,
        )

    remaining = ds1
    results: list[ray.data.Dataset] = []
    E = radius
    n_rounds = max_rounds if expand else 1
    for rnd in range(n_rounds):
        t1 = project(remaining, 0, 0.0)
        t2 = project(ds2, 1, E)
        tagged = t1.union(t2)
        bound = E
        # on the LAST round, emit the best-effort top-k for rows that
        # still aren't provably complete instead of silently dropping
        # them (reference knn2 keeps expanding until max_items found)
        last_round = rnd == n_rounds - 1

        def per_group(group: pa.Table) -> pa.Table:
            g1 = group.filter(pc.equal(group.column("__side"), 0)).select(
                [f.name for f in f1]
            )
            g2 = group.filter(pc.equal(group.column("__side"), 1)).select(
                [f.name for f in f2]
            )
            ga1 = from_wkb(g1.column("l1_" + _GEOM))
            ga2 = from_wkb(g2.column("l2_" + _GEOM))
            rects1 = detect_rects(ga1)
            rects2 = detect_rects(ga2)
            ids2 = g2.column("l2_doc_id").to_numpy()
            rows1, rows2, dists, counts, kth = _knn_block(
                ga1, ga2, nb_nearest, rects1, rects2, ids2
            )
            if not expand:
                keep = dists <= bound
                rows1, rows2, dists = rows1[keep], rows2[keep], dists[keep]
                done_flags = np.ones(len(ga1), dtype=bool)
            else:
                if last_round:
                    done_flags = np.ones(len(ga1), dtype=bool)
                else:
                    # a row is provably complete when no layer2 row ABSENT
                    # from this cell group can beat its k-th distance:
                    # absent rows have geom-dist > E - reach, where reach
                    # is the centroid→farthest-bbox-corner distance of g1
                    # (0 for points); so require kth + reach <= E
                    if len(ga1):
                        b1 = ga1.bounds()
                        cens = centroid(ga1)
                        reach = np.hypot(
                            np.maximum(cens[:, 0] - b1[:, 0], b1[:, 2] - cens[:, 0]),
                            np.maximum(cens[:, 1] - b1[:, 1], b1[:, 3] - cens[:, 1]),
                        )
                    else:
                        reach = np.empty(0)
                    done_flags = (counts >= nb_nearest) & (kth + reach <= bound)
                keep = done_flags[rows1]
                rows1, rows2, dists = rows1[keep], rows2[keep], dists[keep]
            poss = _ranks(rows1)
            out1 = g1.take(pa.array(rows1, pa.int64()))
            out2 = g2.take(pa.array(rows2, pa.int64()))
            cols = {c: out1.column(c) for c in out1.column_names}
            cols.update({c: out2.column(c) for c in out2.column_names})
            cols["pos"] = pa.array(poss, pa.int64())
            cols.update(
                _dist_cols(ga1, rows1, ga2, rows2, dists, crs_epsg, user_snap)
            )
            cols["__done"] = pa.array(
                [True] * len(rows1), pa.bool_()
            )
            done_t = pa.table(cols)
            # unfinished layer1 rows re-emitted bare for the next round
            undone = np.flatnonzero(~np.asarray(done_flags, dtype=bool))
            if len(undone):
                u1 = g1.take(pa.array(undone))
                ucols = {c: u1.column(c) for c in u1.column_names}
                for f in f2:
                    ucols[f.name] = pa.nulls(len(undone), f.type)
                ucols["pos"] = pa.nulls(len(undone), pa.int64())
                ucols["distance"] = pa.nulls(len(undone), pa.float64())
                ucols["distance_crs"] = pa.nulls(len(undone), pa.float64())
                ucols["__done"] = pa.array([False] * len(undone), pa.bool_())
                done_t = pa.concat_tables(
                    [done_t, pa.table({k: ucols[k] for k in cols})]
                )
            return done_t

        round_out = (
            tagged.groupby("__cell")
            .map_groups(per_group, batch_format="pyarrow")
            .materialize()
        )
        results.append(round_out.filter(expr="__done == True").drop_columns(["__done"]))
        undone_ds = round_out.filter(expr="__done == False")
        if not expand or undone_ds.count() == 0:
            break
        # rebuild a bare layer1 dataset for the next round
        remaining = undone_ds.map_batches(
            lambda b: pa.table(
                {c: b.column("l1_" + c) for c in ordered1}
            ),
            batch_format="pyarrow",
        )
        E *= 2.0

    merged = results[0]
    for r in results[1:]:
        merged = merged.union(r)
    return merged
