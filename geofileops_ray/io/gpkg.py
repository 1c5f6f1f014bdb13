"""GeoPackage (GPKG) layer endpoints — stdlib sqlite3, no GDAL.

The reference's primary format: every geofileops example starts with
``read_file("parcels.gpkg")`` (fileops.py:1621-1745; GPKG is the
default row of geofileops/util/geofiletypes.csv). A GeoPackage is a
SQLite database with three metadata tables and a standard geometry
blob header (OGC 12-128r15 §2.1.3) wrapping plain WKB — all of which
stdlib ``sqlite3`` plus this repo's WKB codec can handle directly.

Scale model: a .gpkg is a SINGLE FILE, so it is an interchange
endpoint like GeoJSON/CSV (the 100 TB path is partitioned
Parquet/Lance). The READ is still parallel: the driver probes
min/max rowid once, splits into ranges, and each Ray task opens the
file read-only (``file:...?mode=ro``) and scans its own
``_rowid_ BETWEEN lo AND hi`` window — embarrassingly parallel over
one file, with bbox pushdown into the GPKG r-tree when present. The
WRITE streams block-by-block through one sqlite connection (single
writer, like the reference's own GPKG append loop,
_geoops_sql.py:856-919) into a temporary file beside ``path``, which
``os.replace`` moves onto ``path`` only when the write succeeds. The
r-tree is bulk-loaded the way GDAL (>= 3.7) builds it: the bounds the
write loop computes are Sort-Tile-Recursive packed (Leutenegger et al.,
ICDE 1997) into full nodes, written straight into SQLite's rtree shadow
tables, instead of one R*-tree INSERT per row. The index is declared in
``gpkg_extensions`` with the extension's triggers, so edits by another
client keep it current, and EMPTY geometries carry the blob header's
empty flag.
"""

from __future__ import annotations

import contextlib
import errno
import math
import os
import sqlite3
import struct
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

_GEOM = "geometry"

# GPKG geometry blob header: magic 'GP', version 0, flags, srs_id
_GP_MAGIC = b"GP"

_ARROW_TO_SQL = [
    (pa.types.is_boolean, "BOOLEAN"),
    (pa.types.is_integer, "INTEGER"),
    (pa.types.is_floating, "REAL"),
    (pa.types.is_binary, "BLOB"),
    (pa.types.is_large_binary, "BLOB"),
    (pa.types.is_string, "TEXT"),
    (pa.types.is_large_string, "TEXT"),
]


def _sql_type(t: pa.DataType) -> str:
    for pred, name in _ARROW_TO_SQL:
        if pred(t):
            return name
    return "TEXT"  # degrade: stringly-typed


def _arrow_type(decl: str) -> pa.DataType:
    d = (decl or "").upper()
    if d == "BOOLEAN":
        return pa.bool_()
    if "INT" in d:
        return pa.int64()
    if d in ("REAL", "DOUBLE", "FLOAT") or "REAL" in d:
        return pa.float64()
    if "BLOB" in d:
        return pa.binary()
    return pa.string()


def gpkg_wrap(wkb: bytes | None, srs_id: int = 0) -> bytes | None:
    """WKB → GPKG geometry blob (little-endian header, no envelope)."""
    if wkb is None:
        return None
    return _GP_MAGIC + bytes([0, 0b00000001]) + struct.pack("<i", srs_id) + wkb


def gpkg_unwrap(blob: bytes | None) -> bytes | None:
    """GPKG geometry blob → the WKB payload (skips the envelope)."""
    if blob is None or len(blob) < 8 or blob[:2] != _GP_MAGIC:
        return blob  # be liberal: some writers store bare WKB
    flags = blob[3]
    env = (flags >> 1) & 0b111
    env_len = {0: 0, 1: 32, 2: 48, 3: 48, 4: 64}.get(env, 0)
    return bytes(blob[8 + env_len:])


def _ro(path: str) -> sqlite3.Connection:
    if not os.path.isfile(path):
        raise FileNotFoundError(errno.ENOENT, "GeoPackage not found", path)
    return sqlite3.connect(f"file:{os.path.abspath(path)}?mode=ro", uri=True)


def listlayers_gpkg(path: str) -> list[str]:
    with _ro(path) as con:
        rows = con.execute(
            "SELECT table_name FROM gpkg_contents "
            "WHERE data_type = 'features' ORDER BY table_name"
        ).fetchall()
    return [r[0] for r in rows]


def gpkg_crs(path: str, layer: str | None = None) -> int | None:
    """srs_id of the layer (EPSG code for organization EPSG rows)."""
    with _ro(path) as con:
        layer = layer or listlayers_gpkg(path)[0]
        row = con.execute(
            "SELECT srs_id FROM gpkg_geometry_columns WHERE table_name = ?",
            (layer,),
        ).fetchone()
    if row is None or row[0] is None or int(row[0]) <= 0:
        return None
    return int(row[0])


def _layer_meta(path: str, layer: str | None):
    with _ro(path) as con:
        if layer is None:
            layers = listlayers_gpkg(path)
            if len(layers) != 1:
                raise ValueError(
                    f"layer required: {path} has layers {layers}"
                )
            layer = layers[0]
        g = con.execute(
            "SELECT column_name FROM gpkg_geometry_columns "
            "WHERE table_name = ?",
            (layer,),
        ).fetchone()
        geom_col = g[0] if g else None
        info = con.execute(f'PRAGMA table_info("{layer}")').fetchall()
        # (cid, name, type, notnull, default, pk)
        cols = [(r[1], r[2], bool(r[5])) for r in info]
        lo, hi = con.execute(
            f'SELECT MIN(_rowid_), MAX(_rowid_) FROM "{layer}"'
        ).fetchone()
        has_rtree = (
            geom_col is not None
            and con.execute(
                "SELECT 1 FROM sqlite_master WHERE name = ?",
                (f"rtree_{layer}_{geom_col}",),
            ).fetchone()
            is not None
        )
    return layer, geom_col, cols, lo, hi, has_rtree


def read_gpkg(
    path: str,
    layer: str | None = None,
    columns: list[str] | None = None,
    bbox: tuple[float, float, float, float] | None = None,
    where: str | None = None,
    rows_per_task: int = 1 << 16,
) -> ray.data.Dataset:
    """GPKG layer → Dataset of (fid, attrs…, geometry WKB).

    Parallel single-file read: rowid ranges fan out over Ray tasks,
    each opening the file read-only. ``bbox`` pushes into the GPKG
    r-tree when the layer has one (the reference's spatial-index read),
    else filters per task on decoded bounds; ``where`` is a SQLite
    WHERE passthrough evaluated in-scan (the OGR attribute filter)."""
    path = os.path.abspath(path)
    layer_, geom_col, cols, lo, hi, has_rtree = _layer_meta(path, layer)
    sel_cols = [
        (n, decl, pk) for n, decl, pk in cols
        if columns is None or n in columns or n == geom_col or pk
    ]
    if lo is None:  # empty layer → one typed empty block
        lo, hi = 1, 0
    ranges = [
        (int(s), int(min(s + rows_per_task - 1, hi)))
        for s in range(int(lo), int(hi) + 1, rows_per_task)
    ] or [(1, 0)]

    names = [n for n, _d, _p in sel_cols]
    out_fields: list[pa.Field] = [pa.field("fid", pa.int64())]
    for n, decl, pk in sel_cols:
        if pk or n == geom_col:
            continue
        out_fields.append(pa.field(n, _arrow_type(decl)))
    if geom_col is not None:
        out_fields.append(pa.field(_GEOM, pa.binary()))
    out_schema = pa.schema(out_fields)

    def read_range(batch: pa.Table) -> pa.Table:
        los = batch.column("lo").to_pylist()
        his = batch.column("hi").to_pylist()
        out: dict[str, list] = {f.name: [] for f in out_schema}
        with _ro(path) as con:
            for lo_, hi_ in zip(los, his):
                conds = [f"_rowid_ BETWEEN {int(lo_)} AND {int(hi_)}"]
                if where:
                    conds.append(f"({where})")
                if bbox is not None and has_rtree:
                    conds.append(
                        f'_rowid_ IN (SELECT id FROM '
                        f'"rtree_{layer_}_{geom_col}" WHERE '
                        f"minx <= {float(bbox[2])!r} AND "
                        f"maxx >= {float(bbox[0])!r} AND "
                        f"miny <= {float(bbox[3])!r} AND "
                        f"maxy >= {float(bbox[1])!r})"
                    )
                q = (
                    "SELECT _rowid_, "
                    + ", ".join(f'"{n}"' for n in names)
                    + f' FROM "{layer_}" WHERE ' + " AND ".join(conds)
                )
                for r in con.execute(q):
                    out["fid"].append(int(r[0]))
                    for i, (n, _d, pk) in enumerate(sel_cols):
                        v = r[1 + i]
                        if n == geom_col:
                            out[_GEOM].append(gpkg_unwrap(v))
                        elif not pk:
                            out[n].append(v)
        # SQLite hands BOOLEAN values back as 0/1 integers
        t = pa.table(
            {
                f.name: pa.array(out[f.name], pa.int64()).cast(f.type)
                if pa.types.is_boolean(f.type)
                else pa.array(out[f.name], f.type)
                for f in out_schema
            }
        )
        if bbox is not None and not has_rtree and geom_col is not None:
            from ..geom.wkb import from_wkb

            b = from_wkb(t.column(_GEOM)).bounds()
            keep = (
                (b[:, 0] <= bbox[2]) & (b[:, 2] >= bbox[0])
                & (b[:, 1] <= bbox[3]) & (b[:, 3] >= bbox[1])
            )
            t = t.filter(pa.array(keep))
        return t

    rng = pa.table(
        {
            "lo": pa.array([r[0] for r in ranges], pa.int64()),
            "hi": pa.array([r[1] for r in ranges], pa.int64()),
        }
    )
    return ray.data.from_arrow(rng).map_batches(
        read_range, batch_format="pyarrow", batch_size=1
    )


_SRS_BASE = [
    # the three rows the spec requires
    ("Undefined cartesian SRS", -1, "NONE", -1, "undefined", None),
    ("Undefined geographic SRS", 0, "NONE", 0, "undefined", None),
    (
        "WGS 84 geodetic",
        4326,
        "EPSG",
        4326,
        'GEOGCS["WGS 84",DATUM["WGS_1984",SPHEROID["WGS 84",'
        '6378137,298.257223563]],PRIMEM["Greenwich",0],'
        'UNIT["degree",0.0174532925199433]]',
        None,
    ),
]


# one r-tree cell: rowid or child node number, then (minx, maxx, miny,
# maxy) as big-endian float32 (the rtree module's on-disk layout)
_RTREE_CELL = np.dtype([("id", ">i8"), ("c", ">f4", (4,))])
# SQLite's rtree rounds a float64 that float32 cannot hold by one of
# these factors (RNDTOWARDS / RNDAWAY in rtree.c)
_RND_TOWARDS = 1.0 - 2.0**-23
_RND_AWAY = 1.0 + 2.0**-23


def _rtree_box(b: np.ndarray) -> np.ndarray:
    """(minx, miny, maxx, maxy) float64 rows → r-tree float32 rows
    (minx, maxx, miny, maxy), mins rounded down and maxes up exactly as
    the rtree module rounds an INSERT, so each stored box contains its
    float64 bounds and matches what SQLite itself would store."""
    d = b[:, [0, 2, 1, 3]]
    f = d.astype(np.float32)
    lo = np.array([True, False, True, False])
    fix = np.where(lo, f > d, f < d)
    scale = np.where((d < 0) == lo, _RND_AWAY, _RND_TOWARDS)
    f[fix] = (d * scale)[fix].astype(np.float32)
    return f


def _str_order(boxes: np.ndarray, m: int) -> np.ndarray:
    """Sort-Tile-Recursive order of one tree level (Leutenegger et al.,
    ICDE 1997): sort by x centre, cut into ceil(sqrt(P)) slabs of whole
    nodes, sort each slab by y centre. Consecutive runs of ``m`` entries
    are then the level's nodes."""
    n = len(boxes)
    slab = m * (math.isqrt(-(-n // m) - 1) + 1)
    cx = boxes[:, 0].astype(np.float64) + boxes[:, 1]
    cy = boxes[:, 2].astype(np.float64) + boxes[:, 3]
    by_x = np.argsort(cx, kind="stable")
    return by_x[np.lexsort((cy[by_x], np.arange(n) // slab))]


def _pack_rtree(
    con: sqlite3.Connection, rtree: str, ids: np.ndarray, boxes: np.ndarray
) -> None:
    """Bulk-load a fresh, empty rtree virtual table: STR-pack the
    (rowid, float32 box) entries bottom-up into full nodes and write
    them straight into the ``_node`` / ``_rowid`` / ``_parent`` shadow
    tables. The root stays node 1; its first two bytes hold the depth."""
    (size,) = con.execute(
        f'SELECT length(data) FROM "{rtree}_node" WHERE nodeno = 1'
    ).fetchone()
    m = (size - 4) // _RTREE_CELL.itemsize
    node_t = np.dtype(
        {
            "names": ["hdr", "cells"],
            "formats": [(">u2", (2,)), (_RTREE_CELL, (m,))],
            "offsets": [0, 4],
            "itemsize": size,
        }
    )
    counts = [-(-len(ids) // m)]  # nodes per level, leaves first
    while counts[-1] > 1:
        counts.append(-(-counts[-1] // m))
    for level, count in enumerate(counts):
        base = 1 + sum(counts[level + 1:])  # numbered top-down, root = 1
        order = _str_order(boxes, m)
        ids, boxes = ids[order], boxes[order]
        n = len(ids)
        node = base + np.arange(n) // m
        nodes = np.zeros(count, node_t)
        nodes["hdr"][:, 1] = np.minimum(m, n - m * np.arange(count))
        pad = count * m - n
        cells = nodes["cells"]  # a view: writes land in ``nodes``
        cells["id"] = np.append(ids, np.zeros(pad, ids.dtype)).reshape(count, m)
        cells["c"] = np.append(
            boxes, np.zeros((pad, 4), boxes.dtype), axis=0
        ).reshape(count, m, 4)
        # leaf entries: rowid -> leaf; inner entries: child -> parent
        by_id = np.argsort(ids)
        con.executemany(
            f'INSERT INTO "{rtree}_{"parent" if level else "rowid"}"'
            " VALUES (?,?)",
            zip(ids[by_id].tolist(), node[by_id].tolist()),
        )
        if count == 1:
            nodes["hdr"][0, 0] = len(counts) - 1
            con.execute(
                f'UPDATE "{rtree}_node" SET data = ? WHERE nodeno = 1',
                (nodes.tobytes(),),
            )
        else:
            con.executemany(
                f'INSERT INTO "{rtree}_node" VALUES (?,?)',
                ((base + i, nodes[i].tobytes()) for i in range(count)),
            )
        starts = np.arange(0, n, m)
        boxes = np.column_stack(
            [
                np.minimum.reduceat(boxes[:, 0], starts),
                np.maximum.reduceat(boxes[:, 1], starts),
                np.minimum.reduceat(boxes[:, 2], starts),
                np.maximum.reduceat(boxes[:, 3], starts),
            ]
        )
        ids = base + np.arange(count, dtype=np.int64)


def _fids(col: pa.ChunkedArray | None, n: int, last: int) -> np.ndarray:
    """The rowid each of ``n`` rows gets in the fresh AUTOINCREMENT
    table whose largest rowid so far is ``last``: an explicit fid is
    kept, a NULL (or absent) fid gets one more than the largest rowid
    before it."""
    if col is None:
        return last + 1 + np.arange(n, dtype=np.int64)
    col = col.cast(pa.int64())
    vals = col.fill_null(0).to_numpy()
    null = col.is_null().to_numpy()
    if not null.any():
        return vals
    k = np.cumsum(null)  # NULLs up to and including each row
    g = np.where(null, np.iinfo(np.int64).min, vals - k)
    run = np.maximum(np.maximum.accumulate(g), last)
    return np.where(null, k + run, vals)


def _pylist(col: pa.ChunkedArray) -> list:
    """``col.to_pylist()``, through numpy where that gives the same
    Python values (string, binary and bool columns; numbers without
    NULLs), which is an order of magnitude faster."""
    t = col.type
    if (
        pa.types.is_string(t) or pa.types.is_large_string(t)
        or pa.types.is_binary(t) or pa.types.is_large_binary(t)
        or pa.types.is_boolean(t)
        or (pa.types.is_integer(t) or pa.types.is_floating(t))
        and col.null_count == 0
    ):
        return col.to_numpy().tolist()
    return col.to_pylist()


def _create_metadata(con: sqlite3.Connection, srs_id: int) -> None:
    con.execute("PRAGMA application_id = 0x47504B47")
    con.execute("PRAGMA user_version = 10300")
    con.execute(
        "CREATE TABLE gpkg_spatial_ref_sys (srs_name TEXT NOT NULL,"
        " srs_id INTEGER PRIMARY KEY, organization TEXT NOT NULL,"
        " organization_coordsys_id INTEGER NOT NULL,"
        " definition TEXT NOT NULL, description TEXT)"
    )
    con.executemany(
        "INSERT INTO gpkg_spatial_ref_sys VALUES (?,?,?,?,?,?)", _SRS_BASE
    )
    if srs_id not in (-1, 0, 4326):
        con.execute(
            "INSERT INTO gpkg_spatial_ref_sys VALUES (?,?,?,?,?,?)",
            (
                f"EPSG:{srs_id}", srs_id, "EPSG", srs_id,
                "undefined", "registered by geofileops_ray",
            ),
        )
    con.execute(
        "CREATE TABLE gpkg_contents (table_name TEXT NOT NULL PRIMARY"
        " KEY, data_type TEXT NOT NULL, identifier TEXT UNIQUE,"
        " description TEXT DEFAULT '', last_change DATETIME NOT NULL"
        " DEFAULT (strftime('%Y-%m-%dT%H:%M:%fZ','now')), min_x"
        " DOUBLE, min_y DOUBLE, max_x DOUBLE, max_y DOUBLE, srs_id"
        " INTEGER)"
    )
    con.execute(
        "CREATE TABLE gpkg_geometry_columns (table_name TEXT NOT NULL"
        " PRIMARY KEY, column_name TEXT NOT NULL, geometry_type_name"
        " TEXT NOT NULL, srs_id INTEGER NOT NULL, z TINYINT NOT NULL,"
        " m TINYINT NOT NULL)"
    )


# The GeoPackage RTree Spatial Index extension's triggers (GeoPackage
# 1.4, F.3), keeping rtree_<t>_<c> in step with edits made by any
# client that provides the ST_* functions. {t} table, {c} geometry
# column, {i} the integer primary key.
_RTREE_TRIGGERS = {
    "insert": """AFTER INSERT ON "{t}"
  WHEN (new."{c}" NOT NULL AND NOT ST_IsEmpty(NEW."{c}"))
BEGIN
  INSERT OR REPLACE INTO "rtree_{t}_{c}" VALUES (NEW."{i}",
    ST_MinX(NEW."{c}"), ST_MaxX(NEW."{c}"),
    ST_MinY(NEW."{c}"), ST_MaxY(NEW."{c}"));
END""",
    "update6": """AFTER UPDATE OF "{c}" ON "{t}"
  WHEN OLD."{i}" = NEW."{i}" AND
       (NEW."{c}" NOTNULL AND NOT ST_IsEmpty(NEW."{c}")) AND
       (OLD."{c}" NOTNULL AND NOT ST_IsEmpty(OLD."{c}"))
BEGIN
  UPDATE "rtree_{t}_{c}" SET
    minx = ST_MinX(NEW."{c}"), maxx = ST_MaxX(NEW."{c}"),
    miny = ST_MinY(NEW."{c}"), maxy = ST_MaxY(NEW."{c}")
  WHERE id = NEW."{i}";
END""",
    "update7": """AFTER UPDATE OF "{c}" ON "{t}"
  WHEN OLD."{i}" = NEW."{i}" AND
       (NEW."{c}" NOTNULL AND NOT ST_IsEmpty(NEW."{c}")) AND
       (OLD."{c}" ISNULL OR ST_IsEmpty(OLD."{c}"))
BEGIN
  INSERT INTO "rtree_{t}_{c}" VALUES (NEW."{i}",
    ST_MinX(NEW."{c}"), ST_MaxX(NEW."{c}"),
    ST_MinY(NEW."{c}"), ST_MaxY(NEW."{c}"));
END""",
    "update2": """AFTER UPDATE OF "{c}" ON "{t}"
  WHEN OLD."{i}" = NEW."{i}" AND
       (NEW."{c}" ISNULL OR ST_IsEmpty(NEW."{c}"))
BEGIN
  DELETE FROM "rtree_{t}_{c}" WHERE id = OLD."{i}";
END""",
    "update5": """AFTER UPDATE ON "{t}"
  WHEN OLD."{i}" != NEW."{i}" AND
       (NEW."{c}" NOTNULL AND NOT ST_IsEmpty(NEW."{c}"))
BEGIN
  DELETE FROM "rtree_{t}_{c}" WHERE id = OLD."{i}";
  INSERT OR REPLACE INTO "rtree_{t}_{c}" VALUES (NEW."{i}",
    ST_MinX(NEW."{c}"), ST_MaxX(NEW."{c}"),
    ST_MinY(NEW."{c}"), ST_MaxY(NEW."{c}"));
END""",
    "update4": """AFTER UPDATE ON "{t}"
  WHEN OLD."{i}" != NEW."{i}" AND
       (NEW."{c}" ISNULL OR ST_IsEmpty(NEW."{c}"))
BEGIN
  DELETE FROM "rtree_{t}_{c}" WHERE id IN (OLD."{i}", NEW."{i}");
END""",
    "delete": """AFTER DELETE ON "{t}"
  WHEN old."{c}" NOT NULL
BEGIN
  DELETE FROM "rtree_{t}_{c}" WHERE id = OLD."{i}";
END""",
}


def _register_rtree(con: sqlite3.Connection, table: str, column: str) -> None:
    """Declare ``rtree_<table>_<column>`` as the layer's spatial index:
    the ``gpkg_extensions`` row and the extension's triggers, created
    after the bulk load so none fires during the write."""
    con.execute(
        "CREATE TABLE gpkg_extensions (table_name TEXT, column_name TEXT,"
        " extension_name TEXT NOT NULL, definition TEXT NOT NULL,"
        " scope TEXT NOT NULL,"
        " CONSTRAINT ge_tce UNIQUE (table_name, column_name, extension_name))"
    )
    con.execute(
        "INSERT INTO gpkg_extensions VALUES (?,?,?,?,?)",
        (
            table, column, "gpkg_rtree_index",
            "http://www.geopackage.org/spec120/#extension_rtree",
            "write-only",
        ),
    )
    for name, body in _RTREE_TRIGGERS.items():
        con.execute(
            f'CREATE TRIGGER "rtree_{table}_{column}_{name}" '
            + body.format(t=table, c=column, i="fid")
        )


def write_gpkg(
    ds: ray.data.Dataset,
    path: str,
    layer: str | None = None,
    epsg: int | None = None,
    spatial_index: bool = True,
) -> None:
    """Dataset → GeoPackage file (spec-conformant metadata tables,
    geometry blobs, optional r-tree spatial index). Streams
    block-by-block through one writer connection.

    The file is built under a temporary name in the same directory and
    ``os.replace``-d onto ``path`` only once complete, so a failed
    write leaves no file behind and an existing file at ``path``
    untouched. The r-tree is bulk-loaded once at the end: the bounds
    and fids the write loop already has are STR-packed into full nodes
    (see ``_pack_rtree``), with no re-read of the written blobs and no
    row-by-row R*-tree insertion."""
    path = os.path.abspath(path)
    layer = layer or os.path.splitext(os.path.basename(path))[0]
    tmp = os.path.join(
        os.path.dirname(path),
        f".{os.path.basename(path)}.{uuid.uuid4().hex}.tmp",
    )
    try:
        con = sqlite3.connect(tmp)
        try:
            _write_layer(con, ds, layer, epsg, spatial_index)
            con.commit()
        finally:
            con.close()
        os.replace(tmp, path)
    except BaseException:
        for p in (tmp, tmp + "-journal"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(p)
        raise


def _write_layer(
    con: sqlite3.Connection,
    ds: ray.data.Dataset,
    layer: str,
    epsg: int | None,
    spatial_index: bool,
) -> None:
    from ..geom.wkb import from_wkb
    from ..geom.array import TYPE_NAMES as _T

    srs_id = int(epsg) if epsg is not None else 0
    header = gpkg_wrap(b"", srs_id)
    # the same header with the empty-geometry flag (bit 4) set
    empty_header = header[:3] + bytes([header[3] | 0b10000]) + header[4:]
    _create_metadata(con, srs_id)
    first = True
    bounds = [np.inf, np.inf, -np.inf, -np.inf]
    gtypes: set[str] = set()
    attr_cols: list[tuple[str, str]] = []
    last_fid = 0
    ids: list[np.ndarray] = []
    boxes: list[np.ndarray] = []
    for batch in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        if first:
            for f in batch.schema:
                if pa.types.is_nested(f.type):
                    raise TypeError(
                        f"write_gpkg: column {f.name!r} has nested type "
                        f"{f.type}; GeoPackage columns hold scalars, so "
                        "drop or flatten it before writing"
                    )
            attr_cols = [
                (f.name, _sql_type(f.type))
                for f in batch.schema
                if f.name not in (_GEOM, "fid")
            ]
            decls = ['"fid" INTEGER PRIMARY KEY AUTOINCREMENT'] + [
                f'"{n}" {t}' for n, t in attr_cols
            ] + [f'"{_GEOM}" BLOB']
            con.execute(f'CREATE TABLE "{layer}" (' + ", ".join(decls) + ")")
            first = False
        if len(batch) == 0:
            continue
        geom = batch.column(_GEOM)
        ga = from_wkb(geom)
        b = ga.bounds()
        ok = np.isfinite(b).all(axis=1)
        if ok.any():
            bounds[:2] = np.minimum(bounds[:2], b[ok, :2].min(axis=0)).tolist()
            bounds[2:] = np.maximum(bounds[2:], b[ok, 2:].max(axis=0)).tolist()
        for code in np.unique(ga.types):
            name = _T.get(int(code))
            if name and name != "MISSING":
                gtypes.add(name)
        fids = _fids(
            batch.column("fid") if "fid" in batch.column_names else None,
            len(batch),
            last_fid,
        )
        last_fid = max(last_fid, int(fids.max()))
        ids.append(fids[ok])
        boxes.append(_rtree_box(b[ok]))
        headers = pc.if_else(
            pa.array(ga.is_empty() & ~ga.is_missing()),
            pa.scalar(empty_header, geom.type),
            pa.scalar(header, geom.type),
        )
        blobs = pc.binary_join_element_wise(
            headers, geom, pa.scalar(b"", geom.type)
        )
        con.executemany(
            f'INSERT INTO "{layer}" VALUES ('
            + ",".join("?" * (len(attr_cols) + 2))
            + ")",
            zip(
                fids.tolist(),
                *(_pylist(batch.column(n)) for n, _t in attr_cols),
                _pylist(blobs),
            ),
        )
    if first:  # empty dataset: schema unknown beyond geometry
        con.execute(
            f'CREATE TABLE "{layer}" ("fid" INTEGER PRIMARY KEY'
            f' AUTOINCREMENT, "{_GEOM}" BLOB)'
        )
    gtype = gtypes.pop() if len(gtypes) == 1 else "GEOMETRY"
    con.execute(
        "INSERT INTO gpkg_contents (table_name, data_type,"
        " identifier, min_x, min_y, max_x, max_y, srs_id)"
        " VALUES (?,?,?,?,?,?,?,?)",
        (
            layer, "features", layer,
            *(v if np.isfinite(v) else None for v in bounds),
            srs_id,
        ),
    )
    con.execute(
        "INSERT INTO gpkg_geometry_columns VALUES (?,?,?,?,0,0)",
        (layer, _GEOM, gtype, srs_id),
    )
    if spatial_index and ids:  # any rows written
        rtree = f"rtree_{layer}_{_GEOM}"
        con.execute(
            f'CREATE VIRTUAL TABLE "{rtree}" USING'
            " rtree(id, minx, maxx, miny, maxy)"
        )
        ids_ = np.concatenate(ids)
        if len(ids_):
            _pack_rtree(con, rtree, ids_, np.concatenate(boxes))
        _register_rtree(con, layer, _GEOM)
