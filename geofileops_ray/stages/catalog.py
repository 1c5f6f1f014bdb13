"""Catalog / schema-evolution ops + layer utilities.

Reference surface (SURVEY.md §2.1): get_layerinfo (fileops.py:322-460),
add/drop/rename/update_column (fileops.py:847-1620), copy_layer
(fileops.py:3043-3373), plus the subdivide stage used before two-layer
ops on complex geometries (_geoops_sql.py:1358-1444,
_sqlite_userdefined.py:217-270 gfo_subdivide).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import Max, Min

from ..config import OPTIONS
from ..geom import GeometryArray, from_wkb, to_wkb, to_wkb_arrow
from ..geom.array import POLYGON, TYPE_NAMES
from ..geom.overlay import parts_to_geom, polygon_overlay
from ..util import iter_blocks
from .geometry_batch import add_bounds, decode_geometry

_GEOM = "geometry"


@dataclass
class LayerInfo:
    """LayerInfo analogue (geofileops fileops.py:216-286): featurecount,
    total_bounds, geometry type name, column names/types."""

    featurecount: int
    total_bounds: tuple[float, float, float, float]
    geometrytypename: str
    columns: dict[str, str]
    # CRS of the layer (fileops.py:2611-2705 get_crs): engine layers are
    # CRS-agnostic Arrow tables, so the code travels as metadata supplied
    # at read time (io.readwrite.read_layer crs=...) — None = unknown
    crs: "object | None" = None


def layer_info(ds: ray.data.Dataset, crs_epsg: int | None = None) -> LayerInfo:
    from ..geom.crs import get_crs

    sch = ds.schema().base_schema
    cols = {f.name: str(f.type) for f in sch if f.name != _GEOM}
    b = (
        ds.map_batches(
            lambda t: add_bounds(t).select(["minx", "miny", "maxx", "maxy"]),
            batch_format="pyarrow",
        ).aggregate(Min("minx"), Min("miny"), Max("maxx"), Max("maxy"))
    )
    n = ds.count()
    sample = ds.limit(1).take_all()
    tname = "UNKNOWN"
    if sample:
        tname = TYPE_NAMES.get(int(from_wkb([sample[0][_GEOM]]).types[0]), "UNKNOWN")
    return LayerInfo(
        featurecount=n,
        total_bounds=(b["min(minx)"], b["min(miny)"], b["max(maxx)"], b["max(maxy)"]),
        geometrytypename=tname,
        columns=cols,
        crs=get_crs(crs_epsg),
    )


def add_column(ds: ray.data.Dataset, name: str, value) -> ray.data.Dataset:
    """Constant or per-row callable column (fileops.add_column; computed
    SQL expressions go through stages.single_layer.update_column)."""

    def fn(batch: pa.Table) -> pa.Table:
        if callable(value):
            vals = pa.array([value(r) for r in batch.to_pylist()])
        else:
            vals = pa.array([value] * len(batch))
        if name in batch.column_names:
            batch = batch.drop_columns([name])
        return batch.append_column(name, vals)

    return ds.map_batches(fn, batch_format="pyarrow")


def drop_column(ds: ray.data.Dataset, name: str) -> ray.data.Dataset:
    return ds.map_batches(
        lambda b: b.drop_columns([name]) if name in b.column_names else b,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def rename_column(ds: ray.data.Dataset, old: str, new: str) -> ray.data.Dataset:
    def fn(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            [new if c == old else c for c in batch.column_names]
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def copy_layer(
    src_path: str,
    dst_path: str,
    columns: list[str] | None = None,
    where: str | None = None,
    transform=None,
    src_crs: int | None = None,
    dst_crs: int | None = None,
) -> None:
    """copy_layer analogue: read → optional filter/projection/transform →
    optional reprojection (fileops.py:3043-3373 dst_crs path) → parallel
    write (no temp files / single-writer merge)."""
    from ..io.readwrite import read_layer, write_layer

    ds = read_layer(src_path, columns=columns)
    if where:
        ds = ds.filter(expr=where)
    if transform is not None:
        ds = transform(ds)
    if dst_crs is not None and dst_crs != src_crs:
        if src_crs is None:
            raise ValueError("dst_crs given without src_crs")
        from .single_layer import reproject

        ds = reproject(ds, src_crs, dst_crs)
    write_layer(ds, dst_path)


def layer_digest(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    mode: str = "wkb",
) -> ray.data.Dataset:
    """Order-insensitive content digest of a layer — the object-store
    analogue of the reference's file compare ``gfo.cmp``
    (fileops.py:2706-3480): two layers hold the same multiset of
    (id, geometry) rows iff their digests AND row counts match.

    Per row ``h = md5_number_lower(key)`` (DuckDB-reproducible, like
    textops.dedup); digest = ``sum(h) mod (2^63 - 1)``. Partial sums are
    combined per batch BEFORE the reduce, so the aggregate moves one
    int per block regardless of layer size.

    mode 'wkb': key = "<id>|<hex(wkb)>" (full geometry content);
    mode 'bbox': key = "<id>|<int bounds>" (oracle-mirrorable when
    coordinates are integral — the driver query uses this)."""
    import hashlib

    _MOD = (1 << 63) - 1

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        if mode == "wkb":
            keys = [
                f"{i}|{g.hex().upper()}" if g is not None else f"{i}|"
                for i, g in zip(ids, batch.column(_GEOM).to_pylist())
            ]
        else:
            b = decode_geometry(batch).bounds()
            keys = [
                f"{i}|{int(r[0])}|{int(r[1])}|{int(r[2])}|{int(r[3])}"
                for i, r in zip(ids, b)
            ]
        from ..util import md5_u64 as _md5_u64

        s = 0
        for k in keys:
            s += _md5_u64(k)
        return pa.table(
            {
                "part_sum": pa.array([s % _MOD], pa.int64()),
                "part_rows": pa.array([len(keys)], pa.int64()),
            }
        )

    # one tiny row per block leaves the cluster (NOT one per input row);
    # the exact big-int fold happens on the driver so the int64 column
    # never overflows (sum of per-block residues ≡ total mod M)
    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()
    return ray.data.from_items(
        [
            {
                "digest": sum(r["part_sum"] for r in parts) % _MOD,
                "nb_rows": int(sum(r["part_rows"] for r in parts)),
            }
        ]
    )


def cmp_layers(
    ds1: ray.data.Dataset, ds2: ray.data.Dataset, id_col: str = "doc_id"
) -> bool:
    """True iff both layers hold the same multiset of (id, geometry)
    rows (reference gfo.cmp for files)."""
    a = layer_digest(ds1, id_col).take_all()[0]
    b = layer_digest(ds2, id_col).take_all()[0]
    return a == b


def subdivide_rows(
    batch: pa.Table, max_coords: int, column: str = _GEOM
) -> tuple[pa.Table, np.ndarray]:
    """The subdivide batch kernel: each row whose ``column`` geometry has
    more than ``max_coords`` coordinates becomes one row per grid piece,
    its other columns repeated; every other row keeps its bytes. Returns
    the new table and each row's ``part_seq`` (0 for untouched rows);
    the table is ``batch`` itself when no row is over the limit. A WKB
    byte-length scan picks the rows that may be over it (a 2-D
    coordinate takes 16 bytes), so only those are decoded."""
    import pyarrow.compute as pc

    col = batch.column(column)
    lens = pc.fill_null(pc.binary_length(col), 0).to_numpy(zero_copy_only=False)
    cand = np.flatnonzero((lens - 9) // 16 > max_coords)
    untouched = batch, np.zeros(len(batch), np.int64)
    if len(cand) == 0:
        return untouched
    ga = from_wkb(col.take(pa.array(cand, pa.int64())))
    over = ga.num_coords() > max_coords
    if not over.any():
        return untouched
    big = cand[over]
    pieces: list[tuple[int, list]] = []
    npieces = np.ones(len(batch), dtype=np.int64)
    for k, i in zip(np.flatnonzero(over), big):
        done = _grid_pieces(ga._parts_of(int(k)), ga.bounds()[k], max_coords)
        npieces[i] = len(done)
        pieces.extend(parts_to_geom(res) for res in done)
    rows = np.repeat(np.arange(len(batch), dtype=np.int64), npieces)
    starts = np.repeat(np.cumsum(npieces) - npieces, npieces)
    seq = np.arange(len(rows), dtype=np.int64) - starts
    # geometry source per output row: the input bytes, or the next piece
    geom_idx = rows.copy()
    is_piece = np.zeros(len(batch), dtype=bool)
    is_piece[big] = True
    is_piece = is_piece[rows]
    geom_idx[is_piece] = len(batch) + np.arange(int(is_piece.sum()))
    orig = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    piece_wkb = to_wkb_arrow(GeometryArray.from_parts(pieces)).cast(orig.type)
    geom = pa.concat_arrays([orig, piece_wkb]).take(pa.array(geom_idx))
    out = batch.take(pa.array(rows))
    out = out.set_column(out.schema.get_field_index(column), column, geom)
    return out, seq


def subdivide_table(
    t: pa.Table, max_coords: int, column: str = _GEOM
) -> pa.Table:
    """``t`` with each ``column`` geometry over ``max_coords``
    coordinates split into grid pieces (``subdivide_rows``), rows kept
    in order; ``t`` itself when a WKB byte-length scan finds no row that
    can be over the limit, so a simple table launches nothing. Otherwise
    only the candidate rows are split, by a Ray map over one block per
    pool CPU, so a layer of complex geometries is split in parallel."""
    import pyarrow.compute as pc

    from .agg import pool_cpus

    lens = pc.fill_null(pc.binary_length(t.column(column)), 0).to_numpy(
        zero_copy_only=False
    )
    over = (lens - 9) // 16 > max_coords
    if not over.any():
        return t
    rows = np.arange(len(t), dtype=np.int64)
    cand = t.filter(pa.array(over)).append_column("__src", pa.array(rows[over]))
    chunks = np.array_split(np.arange(len(cand)), min(len(cand), pool_cpus()))
    split = ray.data.from_arrow(
        [cand.slice(int(c[0]), len(c)) for c in chunks]
    ).map_batches(
        lambda b: subdivide_rows(b, max_coords, column)[0],
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )
    rest = t.filter(pa.array(~over)).append_column("__src", pa.array(rows[~over]))
    out = pa.concat_tables([rest, *iter_blocks(split)])
    # a stable sort: each row's pieces stay together, in piece order
    out = out.take(pc.sort_indices(out.column("__src")))
    return out.drop_columns(["__src"]).combine_chunks()


def _grid_pieces(parts: list, b: np.ndarray, max_coords: int) -> list:
    """Quadtree split of one geometry until each cell piece is under the
    budget; a split that no longer reduces the piece's coordinate count
    (budget below the minimum closed-ring size) stops — bounded work
    even for unsatisfiable budgets.
    Pad the root bbox: an exact-bbox root makes the first cut edges
    tangent to the geometry hull (near-parallel overlay = the sweep's
    worst conditioning); padding keeps every cut line strictly
    transversal to the boundary extremes."""
    budget = max(max_coords, 8)
    pad = 0.01 * max(b[2] - b[0], b[3] - b[1], 1.0)
    pieces = [(b[0] - pad, b[1] - pad, b[2] + pad, b[3] + pad)]
    done: list = []
    for _ in range(6):
        nxt = []
        for rect in pieces:
            res = polygon_overlay(parts, [[_rect_ring(rect)]], "intersection")
            if not res:
                continue
            ncoords = sum(len(r) for p in res for r in p)
            if ncoords <= budget or rect[2] - rect[0] < 1e-9:
                done.append(res)
            else:
                mx = (rect[0] + rect[2]) / 2
                my = (rect[1] + rect[3]) / 2
                nxt.extend(
                    [
                        (rect[0], rect[1], mx, my),
                        (mx, rect[1], rect[2], my),
                        (rect[0], my, mx, rect[3]),
                        (mx, my, rect[2], rect[3]),
                    ]
                )
        pieces = nxt
        if not pieces:
            break
    for rect in pieces:  # leftover splits at max depth
        res = polygon_overlay(parts, [[_rect_ring(rect)]], "intersection")
        if res:
            done.append(res)
    return done


def subdivide(
    ds: ray.data.Dataset, max_coords: int | None = None
) -> ray.data.Dataset:
    """Split geometries with more than ``max_coords`` coordinates along a
    grid (reference gfo_subdivide / pygeoops.subdivide, default trigger
    2000 coords for difference, 15000 for intersection,
    _geoops_sql.py:1893-1929). Output rows carry ``orig_doc_id`` + a
    ``part_seq`` so downstream re-union by original fid is a groupby."""
    max_coords = max_coords or OPTIONS.subdivide_coords

    def subdivide_batch(batch: pa.Table) -> pa.Table:
        out, seq = subdivide_rows(batch, max_coords)
        out = out.append_column("orig_doc_id", out.column("doc_id"))
        return out.append_column("part_seq", pa.array(seq, pa.int64()))

    return ds.map_batches(subdivide_batch, batch_format="pyarrow", zero_copy_batch=True)


def _max_coords_estimate(ds: ray.data.Dataset) -> int:
    """Cheap upper bound on the max per-geometry coordinate count of a
    layer, from WKB byte lengths only (no decode): one column-pruned scan
    + tiny aggregate — the subdivide probe (reference _subdivide_layer
    scans the layer the same way, _geoops_sql.py:1358-1444)."""
    import pyarrow.compute as pc

    def fn(b: pa.Table) -> pa.Table:
        n = pc.max(pc.binary_length(b.column(_GEOM))).as_py() if len(b) else 0
        return pa.table({"m": pa.array([int(n or 0)], pa.int64())})

    r = ds.map_batches(fn, batch_format="pyarrow").aggregate(Max("m"))
    return max(0, (int(r["max(m)"] or 0) - 9) // 16)


def _subdivided_or_none(
    ds: ray.data.Dataset, max_coords: int
) -> ray.data.Dataset | None:
    """Subdivide complex geometries into grid pieces retaining the
    original doc_id (one row per piece), or None when the probe says no
    geometry exceeds the budget (zero overhead then)."""
    if max_coords <= 0 or _max_coords_estimate(ds) <= max_coords:
        return None
    sub = subdivide(ds, max_coords)
    return sub.map_batches(
        lambda b: b.drop_columns(["orig_doc_id", "part_seq"]),
        batch_format="pyarrow",
    )


def _rect_ring(rect) -> np.ndarray:
    x0, y0, x1, y1 = rect
    return np.array(
        [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], dtype=np.float64
    )


# ------------------------------------------------- layer-store catalog ops
#
# The reference's geofile-level catalog (fileops.py:114-180 listlayers,
# :462-576 get_only_layer/get_default_layer, :1496-1520 rename_layer,
# :961-977 get_layer_geometrytypes, :847-960 add_columns). Our layer
# store is a directory of named parquet layers (one file or one
# partition-dir per layer), so these are thin path/metadata ops; the
# geometry-type probe is the only distributed one.


def listlayers(path: str) -> list[str]:
    """Layer names inside a layer-store directory (fileops.py:114-180).
    A bare ``<name>.parquet`` file is a single-layer store."""
    import os

    if os.path.isfile(path):
        if path.endswith(".gpkg"):
            from ..io.gpkg import listlayers_gpkg

            return listlayers_gpkg(path)
        return [os.path.splitext(os.path.basename(path))[0]]
    out = []
    for entry in sorted(os.listdir(path)):
        if entry.startswith(("_", ".")):
            continue  # sidecars (_layer_styles.parquet) — Ray's parquet
            # discovery skips these prefixes too
        if entry.endswith(".styles.parquet"):
            continue  # single-file store's style sidecar, not a layer
        if entry.endswith(".parquet"):
            out.append(entry[: -len(".parquet")])
        elif os.path.isdir(os.path.join(path, entry)):
            out.append(entry)
    return out


def get_only_layer(path: str) -> str:
    """The single layer of a store; raises if ambiguous (fileops.py:462-530)."""
    layers = listlayers(path)
    if len(layers) != 1:
        raise ValueError(f"expected exactly one layer in {path}, found {layers}")
    return layers[0]


def get_default_layer(path: str) -> str:
    """Default layer name = store stem (fileops.py:562-576)."""
    import os

    base = os.path.basename(path.rstrip("/"))
    return base[: -len(".parquet")] if base.endswith(".parquet") else base


def rename_layer(path: str, layer: str, new_layer: str) -> None:
    """Rename one layer inside a store directory (fileops.py:1496-1520)."""
    import os

    src = os.path.join(path, f"{layer}.parquet")
    dst = os.path.join(path, f"{new_layer}.parquet")
    if not os.path.exists(src):
        src = os.path.join(path, layer)
        dst = os.path.join(path, new_layer)
    if os.path.exists(dst):
        raise FileExistsError(dst)
    os.rename(src, dst)


def add_columns(ds: ray.data.Dataset, columns: dict[str, object]) -> ray.data.Dataset:
    """Add several constant/expression columns in ONE projection pass
    (fileops.py:847-960 add_columns loops add_column; here a single
    map_batches)."""

    def fn(batch: pa.Table) -> pa.Table:
        for name, value in columns.items():
            batch = batch.append_column(
                name, pa.array([value] * batch.num_rows)
            )
        return batch

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def get_layer_geometrytypes(ds: ray.data.Dataset) -> list[str]:
    """Distinct geometry type names in the layer (fileops.py:961-977):
    per-batch decode to type codes, tiny distinct-codes aggregate — the
    full geometry column never leaves the workers."""

    def fn(batch: pa.Table) -> pa.Table:
        ga = from_wkb(batch.column(_GEOM))
        return pa.table({"code": pa.array(np.unique(ga.types).astype(np.int64))})

    codes = ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True).unique(
        "code"
    )
    return sorted(TYPE_NAMES[int(c)] for c in codes)


def create_spatial_index(ds: ray.data.Dataset, size: float | None = None):
    """R-tree analogue (fileops.py:621-708): this engine has no
    persistent index — two-layer ops cell-shuffle and build per-cell
    STRtree-style structures in the workers. The precomputable part is
    the HOT-CELL SALT MAP (cell id → split factor) the joins use to
    defeat skew; this returns it so callers can inspect/reuse it."""
    from ..config import OPTIONS as _O
    from ..tiling.cells import compute_salt_map

    return compute_salt_map(ds, size or _O.cell_size)


def has_spatial_index(ds: ray.data.Dataset) -> bool:
    """Always False: no persistent index exists by design (cell shuffle
    replaces it; see create_spatial_index)."""
    return False


def remove_spatial_index(ds: ray.data.Dataset) -> None:
    """No-op: nothing persistent to remove (see create_spatial_index)."""
    return None


# ------------------------------------------------- layer styles
#
# QGIS layer_styles table analogue (reference helpers/layerstyles.py:
# 15-137 get/add/remove over the Geopackage styling-extension table).
# Presentation metadata is tiny and driver-side, so the store carries it
# as a sidecar parquet table (`_layer_styles.parquet` in a store
# directory, `<store>.styles.parquet` next to a single-file store) with
# the extension's column layout.

_STYLE_COLS = [
    ("id", "int64"),
    ("f_table_catalog", "string"),
    ("f_table_schema", "string"),
    ("f_table_name", "string"),
    ("f_geometry_column", "string"),
    ("styleName", "string"),
    ("styleQML", "string"),
    ("styleSLD", "string"),
    ("useAsDefault", "int64"),
    ("description", "string"),
    ("owner", "string"),
    ("ui", "string"),
]


def _styles_path(path: str) -> str:
    import os

    if os.path.isdir(path):
        return os.path.join(path, "_layer_styles.parquet")
    return path + ".styles.parquet"


def _read_styles(path: str) -> pa.Table:
    import os

    import pyarrow.parquet as pq

    sp = _styles_path(path)
    if os.path.exists(sp):
        return pq.read_table(sp)
    return pa.table(
        {name: pa.array([], type=getattr(pa, typ)()) for name, typ in _STYLE_COLS}
    )


def get_layerstyles(path: str, layer: str | None = None, name: str | None = None):
    """Styles saved for a layer store, as a DataFrame indexed by ``id``
    (layerstyles.py:15-41; same filter semantics)."""
    df = _read_styles(path).to_pandas().set_index("id")
    if layer is not None:
        df = df.loc[df["f_table_name"] == layer]
    if name is not None:
        df = df.loc[df["styleName"] == name]
    return df


def add_layerstyle(
    path: str,
    layer: str,
    name: str,
    qml: str,
    sld: str = "",
    use_as_default: bool = False,
    description: str = "",
    owner: str = "",
    ui: str = "",
) -> None:
    """Add a style; duplicate (layer, name) is an error
    (layerstyles.py:44-111)."""
    import os

    import pyarrow.parquet as pq

    existing = _read_styles(path)
    if len(get_layerstyles(path, layer=layer, name=name)):
        raise ValueError(f"layer style already exists: {layer}/{name}")
    ids = existing.column("id").to_pylist()
    row = {
        "id": max(ids, default=0) + 1,
        "f_table_catalog": "",
        "f_table_schema": "",
        "f_table_name": layer,
        "f_geometry_column": "geom",
        "styleName": name,
        "styleQML": qml,
        "styleSLD": sld,
        "useAsDefault": 1 if use_as_default else 0,
        "description": description,
        "owner": owner,
        "ui": ui,
    }
    merged = pa.concat_tables(
        [existing, pa.table({k: pa.array([v]).cast(existing.schema.field(k).type)
                             for k, v in row.items()})]
    )
    sp = _styles_path(path)
    pq.write_table(merged, sp + ".tmp")
    os.replace(sp + ".tmp", sp)  # atomic: readers never see a torn table


def remove_layerstyle(path: str, id: int) -> None:
    """Remove a style by id; silently a no-op when no styles table
    exists (layerstyles.py:114-141)."""
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    sp = _styles_path(path)
    if not os.path.exists(sp):
        return
    tbl = pq.read_table(sp)
    kept = tbl.filter(pc.not_equal(tbl.column("id"), pa.scalar(id, pa.int64())))
    pq.write_table(kept, sp + ".tmp")
    os.replace(sp + ".tmp", sp)
