"""Per-layer measurements of the traced run.

``geom`` kernels run without Ray on one fixed block of the workload's
input; ``tiling`` runs on the whole left input at the engine's cell size;
``io`` writes and reads one block as a GeoPackage (the
``gpkg_roundtrip`` workload reports its own op phases instead). The
Python-loop kernels run on a fixed number of pairs so that their cost
does not grow with the input size. Every function returns
``{metric name: (value, unit)}``.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pyarrow as pa

import ray.data

from geofileops_ray.geom import (
    bbox_join,
    from_wkb,
    pair_distance,
    pair_intersects,
    polygon_overlay,
    to_wkb_arrow,
    union_all_parts,
)
from geofileops_ray.io import read_gpkg, write_gpkg
from geofileops_ray.tiling import assign_cells, compute_salt_map
from geofileops_ray.util import collect

from .checks import wkb_polygons

PAIR_CAP = 512  # candidate pairs given to the per-pair kernels
UNION_GROUP = 64  # geometries per union_all_parts call
UNION_GROUPS = 4
DIST_ROWS = (32, 16)  # pair_distance on the first 32 x 16 rows
REPS = 3


def timed(fn, reps: int = REPS) -> tuple[float, object]:
    """(median seconds over ``reps`` calls, last result)."""
    times, out = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def _polygonal(wkb: pa.ChunkedArray) -> bool:
    return all(len(wkb_polygons(b)) for b in wkb.slice(0, 16).to_pylist())


def geom_metrics(a: pa.Table, b: pa.Table) -> dict[str, tuple]:
    wa, wb = a.column("geometry"), b.column("geometry")
    decode_s, ga = timed(lambda: from_wkb(wa))
    encode_s, _ = timed(lambda: to_wkb_arrow(ga))
    gb = from_wkb(wb)
    join_s, (ia, ib) = timed(lambda: bbox_join(ga.bounds(), gb.bounds()))
    pairs = list(zip(ia[:PAIR_CAP].tolist(), ib[:PAIR_CAP].tolist()))

    def intersects():
        return sum(pair_intersects(ga, i, gb, j) for i, j in pairs)

    inter_s, hits = timed(intersects)

    # polygon kernels: on A x B when A is polygonal, else on B x B
    pg, pw = (ga, wa) if _polygonal(wa) else (gb, wb)
    parts_p = [wkb_polygons(x) for x in pw.to_pylist()]
    parts_b = [wkb_polygons(x) for x in wb.to_pylist()]
    oa, ob = bbox_join(pg.bounds(), gb.bounds())
    ov_pairs = list(zip(oa[:PAIR_CAP].tolist(), ob[:PAIR_CAP].tolist()))
    overlay_s, _ = timed(
        lambda: [polygon_overlay(parts_p[i], parts_b[j], "intersection")
                 for i, j in ov_pairs]
    )
    groups = [
        parts_p[k:k + UNION_GROUP]
        for k in range(0, min(len(parts_p), UNION_GROUP * UNION_GROUPS), UNION_GROUP)
    ]
    union_s, _ = timed(lambda: [union_all_parts(g) for g in groups])

    na, nb = min(DIST_ROWS[0], len(ga)), min(DIST_ROWS[1], len(gb))
    dist_s, _ = timed(
        lambda: [pair_distance(ga, i, gb, j) for i in range(na) for j in range(nb)]
    )
    return {
        "geom.wkb.decode_s": (decode_s, "s"),
        "geom.wkb.encode_s": (encode_s, "s"),
        "geom.strtree.bbox_join_s": (join_s, "s"),
        "geom.strtree.candidates": (float(len(ia)), "count"),
        "geom.predicates.intersects_s": (inter_s, "s"),
        "geom.predicates.hit_ratio": (hits / len(pairs) if pairs else 0.0, "ratio"),
        "geom.overlay.polygon_overlay_s": (overlay_s, "s"),
        "geom.overlay.union_all_parts_s": (union_s, "s"),
        "geom.predicates.pair_distance_s": (dist_s, "s"),
    }


def tiling_metrics(left: ray.data.Dataset, size: float) -> dict[str, tuple]:
    bounds = from_wkb(collect(left.select_columns(["geometry"])).column("geometry")).bounds()
    assign_s, (rows, cells) = timed(lambda: assign_cells(bounds, size), reps=5)
    _, counts = np.unique(cells, return_counts=True)
    salt = compute_salt_map(left, size)
    return {
        "tiling.assign_cells_s": (assign_s, "s"),
        "tiling.replication": (len(rows) / max(len(bounds), 1), "ratio"),
        "tiling.cell_rows_max_over_mean": (float(counts.max() / counts.mean()), "ratio"),
        "tiling.salted_cells": (float(len(salt)), "count"),
    }


def gpkg_block_metrics(block: pa.Table, path: str) -> dict[str, tuple]:
    block = block.drop_columns([c for c in ("spans",) if c in block.column_names])
    ds = ray.data.from_arrow(block)
    b = from_wkb(block.column("geometry")).bounds()
    # a box over the lower-left quarter of the block's extent
    box = (float(b[:, 0].min()), float(b[:, 1].min()),
           float(np.median(b[:, 2])), float(np.median(b[:, 3])))
    write_s, _ = timed(lambda: write_gpkg(ds, path))
    read_s, _ = timed(lambda: read_gpkg(path).materialize().count())
    bbox_s, _ = timed(lambda: read_gpkg(path, bbox=box).materialize().count())
    return {
        "io.gpkg.write_s": (write_s, "s"),
        "io.gpkg.read_s": (read_s, "s"),
        "io.gpkg.read_bbox_s": (bbox_s, "s"),
        "io.gpkg.bytes_per_row": (os.path.getsize(path) / max(block.num_rows, 1), "B/row"),
    }


def gpkg_phase_metrics(spans: list[dict], path: str, rows: int) -> dict[str, tuple]:
    """The same metrics from the ``io.gpkg.*`` spans of traced op calls
    that wrote ``rows`` rows to ``path``."""
    out = {}
    for phase in ("write", "read", "read_bbox"):
        times = [s["end"] - s["start"] for s in spans if s["name"] == f"io.gpkg.{phase}"]
        out[f"io.gpkg.{phase}_s"] = (statistics.median(times), "s")
    out["io.gpkg.bytes_per_row"] = (os.path.getsize(path) / rows, "B/row")
    return out
