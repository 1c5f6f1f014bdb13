"""Single-layer operations as stateless ``map_batches`` stages.

Each function mirrors a reference public op (SURVEY.md §2.2/§2.3):
buffer (geofileops/geoops.py:637 → _geoops_sql.py:49-113), convexhull
(geoops.py:908), simplify (geoops.py:1787), makevalid (geoops.py:1420),
isvalid (geoops.py:1315), apply/apply_vectorized (geoops.py:399-634),
select (geoops.py:1620), clip_by_geometry (geoops.py:857),
export_by_bounds (geoops.py:1262), warp (geoops.py:1561),
update_column (fileops.py:1522-1620).

All are embarrassingly-parallel batch transforms over zero-copy Arrow
(``batch_format="pyarrow"``); the streaming executor pipelines them with
reads/writes — no temp files, no merge step.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np
import pyarrow as pa

import ray.data

from ..config import OPTIONS
from ..geom import GeometryArray
from ..geom import algorithms as alg
from ..geom import measure as meas
from .geometry_batch import (
    add_bounds,
    decode_geometry,
    encode_geometry,
    geometry_op,
    run_sql_on_batch,
)


def _apply_op(
    ds: ray.data.Dataset,
    kernel: Callable[[GeometryArray], GeometryArray] | None = None,
    **post,
) -> ray.data.Dataset:
    """THE single place the single-layer map_batches knobs are set
    (batch format / zero-copy / batch size); ``post`` passes through to
    geometry_op, including its batch_kernel row-mode hook."""
    return ds.map_batches(
        geometry_op(kernel, **post),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=OPTIONS.batch_size,
    )


def buffer(
    ds: ray.data.Dataset,
    distance: float,
    quadrantsegments: int = 5,
    endcap_style: str = "round",
    join_style: str = "round",
    mitre_limit: float = 5.0,
    single_sided: bool = False,
    **post,
) -> ray.data.Dataset:
    """ST_Buffer analogue; negative distance keeps polygons only
    (reference wraps in ST_CollectionExtract(...,3), _geoops_sql.py:67-83).
    Default quadrantsegments=5 matches geoops.py:637-656."""
    return _apply_op(
        ds,
        lambda ga: alg.buffer(
            ga,
            distance,
            quad_segs=quadrantsegments,
            cap_style=endcap_style,
            join_style=join_style,
            mitre_limit=mitre_limit,
            single_sided=single_sided,
        ),
        **post,
    )


def convexhull(ds: ray.data.Dataset, **post) -> ray.data.Dataset:
    return _apply_op(ds, alg.convex_hull, **post)


def simplify(
    ds: ray.data.Dataset,
    tolerance: float,
    algorithm: str = "rdp",
    lookahead: int = 8,
    **post,
) -> ray.data.Dataset:
    """Simplify with 'rdp' | 'lang' | 'lang+' | 'vw' (reference geoops.simplify
    algorithm= param, SimplifyAlgorithm _geometry_util.py:32-38)."""
    return _apply_op(
        ds, lambda ga: alg.simplify(ga, tolerance, algorithm, lookahead), **post
    )


def makevalid(ds: ray.data.Dataset, **post) -> ray.data.Dataset:
    return _apply_op(ds, alg.make_valid, **post)


def isvalid(
    ds: ray.data.Dataset, only_invalid: bool = True
) -> ray.data.Dataset:
    """Validity report (reference isvalid, _geoops_sql.py:252-326):
    with ``only_invalid`` (the reference default) only failing rows are
    emitted, each with its isvalidreason; ``only_invalid=False`` keeps
    every row and adds an ``isvalid`` flag ('Valid Geometry' reason for
    the passing rows, the Spatialite convention)."""

    def fn(batch: pa.Table) -> pa.Table:
        ga = decode_geometry(batch)
        valid, reasons = alg.is_valid_detail(ga)
        if not only_invalid:
            out = batch.append_column(
                "isvalid", pa.array(valid.astype(bool), pa.bool_())
            )
            return out.append_column(
                "isvalidreason",
                pa.array(
                    [
                        "Valid Geometry" if v else (r or "Invalid Geometry")
                        for v, r in zip(valid, reasons)
                    ],
                    pa.string(),
                ),
            )
        bad = np.flatnonzero(~valid)
        out = batch.take(pa.array(bad))
        out = out.append_column(
            "isvalidreason", pa.array([reasons[i] for i in bad], pa.string())
        )
        return out

    return ds.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=OPTIONS.batch_size,
    )


def apply(
    ds: ray.data.Dataset,
    func: Callable,
    only_geom_input: bool = True,
    **post,
) -> ray.data.Dataset:
    """Arbitrary per-geometry Python func (geom → geom), like geoops.apply
    (cloudpickled to workers there — natively serialized here). ``func``
    receives/returns a single-geometry GeometryArray slice.

    ``only_geom_input=False`` — the reference's row mode
    (geoops.py:403,430-432): ``func(row)`` receives the full row as a
    dict (attribute values + ``geometry`` as the 1-row slice) and
    returns the new geometry; slower, like the reference documents."""

    if only_geom_input:
        def kernel(ga: GeometryArray) -> GeometryArray:
            from ..geom import concat

            outs = [func(ga.take(np.array([i]))) for i in range(len(ga))]
            return concat(outs)

        return _apply_op(ds, kernel, **post)

    def batch_kernel(batch: pa.Table, ga: GeometryArray) -> GeometryArray:
        from ..geom import concat

        rows = batch.drop_columns(["geometry"]).to_pylist()
        outs = [
            func({**row, "geometry": ga.take(np.array([i]))})
            for i, row in enumerate(rows)
        ]
        return concat(outs)

    return _apply_op(ds, batch_kernel=batch_kernel, **post)


def apply_vectorized(
    ds: ray.data.Dataset, func: Callable[[GeometryArray], GeometryArray], **post
) -> ray.data.Dataset:
    """Batch-level geometry UDF (geoops.apply_vectorized analogue)."""
    return _apply_op(ds, func, **post)


@functools.lru_cache(maxsize=2)
def _select_connection(st_functions: bool):
    """One DuckDB connection per worker process and flag, reused by
    every ``select`` task the process runs (a Ray worker runs one task
    at a time), so the ST_* set is registered once per process."""
    import duckdb

    from .sqlfuncs import register_st_functions

    con = duckdb.connect()
    if st_functions:
        register_st_functions(con)
    return con


def select(ds: ray.data.Dataset, sql: str) -> ray.data.Dataset:
    """User SQL over the layer (reference: SQLite dialect with
    {batch_filter} placeholders, geoops.py:1620-1786). Here: DuckDB over
    each Arrow batch registered as view ``batch`` — Ray block boundaries
    play the role of {batch_filter}; the query must be batch-safe
    (row-wise / windowless), same caveat as the reference's nb_parallel>1
    mode. A task map: a pool actor would hold its CPU for the whole
    stage and starve the upstream read on a 1-CPU session."""
    from .sqlfuncs import wants_st

    st_functions = wants_st(sql)

    def fn(batch: pa.Table) -> pa.Table:
        con = _select_connection(st_functions)
        con.register("batch", batch)
        try:
            return con.execute(sql).arrow()
        finally:
            con.unregister("batch")

    return ds.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=OPTIONS.batch_size,
    )


def update_column(
    ds: ray.data.Dataset, name: str, expression: str
) -> ray.data.Dataset:
    """fileops.update_column analogue. ``expression`` may reference scalar
    geometry functions as columns: area, length, perimeter, npoints,
    minx/miny/maxx/maxy (precomputed per batch, SURVEY.md §2.7), plus any
    DuckDB SQL over the attribute columns."""

    def fn(batch: pa.Table) -> pa.Table:
        ga = decode_geometry(batch)
        cen = meas.centroid(ga)
        helpers = {
            "area": meas.area(ga),
            "length": meas.length(ga),
            "perimeter": meas.perimeter(ga),
            "npoints": ga.num_coords().astype(np.float64),
            "centroid_x": cen[:, 0],
            "centroid_y": cen[:, 1],
        }
        work = batch
        for k, v in helpers.items():
            if k in work.column_names:
                work = work.drop_columns([k])
            work = work.append_column(k, pa.array(v, pa.float64()))
        work = add_bounds(work, ga)
        out = run_sql_on_batch(
            work, f"SELECT *, ({expression}) AS __upd FROM batch"
        )
        keep = [c for c in batch.column_names if c != name]
        res = out.select(keep)
        return res.append_column(name, out.column("__upd"))

    return ds.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=OPTIONS.batch_size,
    )


def clip_by_geometry(
    ds: ray.data.Dataset, clip_wkb: bytes, **post
) -> ray.data.Dataset:
    """Clip every row by one constant geometry (geoops.clip_by_geometry →
    _geoops_ogr.py:17-54). The constant is captured in the task closure —
    shipped once per task, not per row."""
    from ..geom import from_wkb
    from ..geom.array import POLYGON
    from ..geom.overlay import parts_to_geom, polygon_overlay

    def kernel(ga: GeometryArray) -> GeometryArray:
        clip_ga = from_wkb([clip_wkb])
        clip_parts = clip_ga._parts_of(0)
        geoms = []
        for i in range(len(ga)):
            if ga.part_types(i) != POLYGON:
                geoms.append((int(ga.types[i]), ga._parts_of(i)))
                continue
            res = polygon_overlay(ga._parts_of(i), clip_parts, "intersection")
            geoms.append(parts_to_geom(res))
        return GeometryArray.from_parts(geoms)

    return _apply_op(ds, kernel, **post)


def export_by_bounds(
    ds: ray.data.Dataset, bbox: tuple[float, float, float, float]
) -> ray.data.Dataset:
    """bbox spatial filter (geoops.export_by_bounds → _geoops_ogr.py:57-77):
    vectorized bbox-intersects predicate, no decode of non-candidates once
    bounds columns exist."""

    def fn(batch: pa.Table) -> pa.Table:
        ga = decode_geometry(batch)
        b = ga.bounds()
        keep = (
            (b[:, 0] <= bbox[2])
            & (b[:, 2] >= bbox[0])
            & (b[:, 1] <= bbox[3])
            & (b[:, 3] >= bbox[1])
        )
        return batch.take(pa.array(np.flatnonzero(keep)))

    return ds.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=OPTIONS.batch_size,
    )


def reproject(
    ds: ray.data.Dataset, src_epsg: int, dst_epsg: int, **post
) -> ray.data.Dataset:
    """Reproject every geometry src→dst CRS (the copy_layer(dst_crs=...)
    path of the reference, fileops.py:3043-3373) — vectorized transform
    over the batch coordinate slab (geom/crs.py, built-in projection
    math + any register_crs()-registered CRS)."""
    from ..geom.crs import install_user_crs, transform_xy, user_crs_snapshot

    # snapshot at the DRIVER: register_crs state is process-local and
    # would otherwise be empty in the Ray workers running the kernel
    user_snap = user_crs_snapshot()

    def kernel(ga: GeometryArray) -> GeometryArray:
        if user_snap:
            install_user_crs(user_snap)
        x, y = transform_xy(ga.coords[:, 0], ga.coords[:, 1], src_epsg, dst_epsg)
        return ga.with_coords(np.stack([x, y], axis=1))

    return _apply_op(ds, kernel, **post)


def warp(
    ds: ray.data.Dataset, matrix: tuple[float, float, float, float, float, float],
    **post,
) -> ray.data.Dataset:
    """Affine coordinate transform x' = a·x + b·y + c, y' = d·x + e·y + f —
    the polynomial-order-1 case of geoops.warp (_geoops_ogr.py:80-108)."""
    a, b, c, d, e, f = matrix

    def kernel(ga: GeometryArray) -> GeometryArray:
        xy = ga.coords
        out = np.empty_like(xy)
        out[:, 0] = a * xy[:, 0] + b * xy[:, 1] + c
        out[:, 1] = d * xy[:, 0] + e * xy[:, 1] + f
        return ga.with_coords(out)

    return _apply_op(ds, kernel, **post)


def warp_gcps(
    ds: ray.data.Dataset,
    gcps: list[tuple],
    algorithm: str = "polynomial",
    order: int | None = None,
    **post,
) -> ray.data.Dataset:
    """GCP-based warp (rubbersheeting) — the full geoops.warp surface
    (geoops.py:1561-1612, _geoops_ogr.py:80-108): ``algorithm`` is
    "polynomial" (order 1/2/3, auto-selected from the gcp count when
    None) or "tps". The transform is fitted ONCE here on the driver
    (geom/warpfit.py) and the small coefficient vectors ride into every
    map_batches task as closure state — per batch the whole coordinate
    slab is transformed in one vectorized evaluation."""
    from ..geom import warpfit

    if algorithm == "polynomial":
        ax, ay, order = warpfit.fit_polynomial(gcps, order)

        def kernel(ga: GeometryArray) -> GeometryArray:
            xy = ga.coords
            nx, ny = warpfit.apply_polynomial(xy[:, 0], xy[:, 1], ax, ay, order)
            return ga.with_coords(np.stack([nx, ny], axis=1))

    elif algorithm == "tps":
        src, wx, wy = warpfit.fit_tps(gcps)

        def kernel(ga: GeometryArray) -> GeometryArray:
            xy = ga.coords
            nx, ny = warpfit.apply_tps(xy[:, 0], xy[:, 1], src, wx, wy)
            return ga.with_coords(np.stack([nx, ny], axis=1))

    else:
        raise ValueError(f"algorithm must be 'polynomial' or 'tps', got {algorithm!r}")

    return _apply_op(ds, kernel, **post)
