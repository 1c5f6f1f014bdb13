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
_geoops_sql.py:856-919).
"""

from __future__ import annotations

import errno
import os
import sqlite3
import struct

import numpy as np
import pyarrow as pa

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
    if "INT" in d or d == "BOOLEAN":
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
        t = pa.table(
            {f.name: pa.array(out[f.name], f.type) for f in out_schema}
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


def write_gpkg(
    ds: ray.data.Dataset,
    path: str,
    layer: str | None = None,
    epsg: int | None = None,
    spatial_index: bool = True,
) -> None:
    """Dataset → GeoPackage file (spec-conformant metadata tables,
    geometry blobs, optional r-tree spatial index). Streams
    block-by-block through one writer connection."""
    from ..geom.wkb import from_wkb
    from ..geom.array import TYPE_NAMES as _T

    path = os.path.abspath(path)
    layer = layer or os.path.splitext(os.path.basename(path))[0]
    srs_id = int(epsg) if epsg is not None else 0
    if os.path.exists(path):
        os.remove(path)
    con = sqlite3.connect(path)
    try:
        con.execute("PRAGMA application_id = 0x47504B47")
        con.execute("PRAGMA user_version = 10300")
        con.execute(
            "CREATE TABLE gpkg_spatial_ref_sys (srs_name TEXT NOT NULL,"
            " srs_id INTEGER PRIMARY KEY, organization TEXT NOT NULL,"
            " organization_coordsys_id INTEGER NOT NULL,"
            " definition TEXT NOT NULL, description TEXT)"
        )
        for name, sid, org, oid, definition, desc in _SRS_BASE:
            con.execute(
                "INSERT INTO gpkg_spatial_ref_sys VALUES (?,?,?,?,?,?)",
                (name, sid, org, oid, definition, desc),
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

        first = True
        bounds = [np.inf, np.inf, -np.inf, -np.inf]
        gtypes: set[str] = set()
        attr_cols: list[tuple[str, str]] = []
        n_rows = 0
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
                con.execute(
                    f'CREATE TABLE "{layer}" (' + ", ".join(decls) + ")"
                )
                first = False
            if len(batch) == 0:
                continue
            ga = from_wkb(batch.column(_GEOM))
            b = ga.bounds()
            ok = np.isfinite(b[:, 0])
            if ok.any():
                bounds[0] = min(bounds[0], float(b[ok, 0].min()))
                bounds[1] = min(bounds[1], float(b[ok, 1].min()))
                bounds[2] = max(bounds[2], float(b[ok, 2].max()))
                bounds[3] = max(bounds[3], float(b[ok, 3].max()))
            for code in np.unique(ga.types):
                name = _T.get(int(code))
                if name and name != "MISSING":
                    gtypes.add(name)
            wkbs = batch.column(_GEOM).to_pylist()
            attrs = [batch.column(n).to_pylist() for n, _t in attr_cols]
            fids = (
                batch.column("fid").to_pylist()
                if "fid" in batch.column_names
                else [None] * len(batch)
            )
            rows = [
                (
                    fids[i],
                    *(a[i] for a in attrs),
                    gpkg_wrap(wkbs[i], srs_id),
                )
                for i in range(len(batch))
            ]
            con.executemany(
                f'INSERT INTO "{layer}" VALUES ('
                + ",".join("?" * (len(attr_cols) + 2))
                + ")",
                rows,
            )
            n_rows += len(batch)
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
                None if bounds[0] == np.inf else bounds[0],
                None if bounds[1] == np.inf else bounds[1],
                None if bounds[2] == -np.inf else bounds[2],
                None if bounds[3] == -np.inf else bounds[3],
                srs_id,
            ),
        )
        con.execute(
            "INSERT INTO gpkg_geometry_columns VALUES (?,?,?,?,0,0)",
            (layer, _GEOM, gtype, srs_id),
        )
        if spatial_index and n_rows:
            con.execute(
                f'CREATE VIRTUAL TABLE "rtree_{layer}_{_GEOM}" USING'
                " rtree(id, minx, maxx, miny, maxy)"
            )
            rows2 = con.execute(
                f'SELECT _rowid_, "{_GEOM}" FROM "{layer}"'
            ).fetchall()
            ins = []
            wkb_list = [gpkg_unwrap(g) for _i, g in rows2]
            ga = from_wkb(pa.array(wkb_list, pa.binary()))
            bb = ga.bounds()
            for k, (rid, _g) in enumerate(rows2):
                if np.isfinite(bb[k, 0]):
                    ins.append(
                        (rid, bb[k, 0], bb[k, 2], bb[k, 1], bb[k, 3])
                    )
            con.executemany(
                f'INSERT INTO "rtree_{layer}_{_GEOM}" VALUES (?,?,?,?,?)',
                ins,
            )
        con.commit()
    finally:
        con.close()
