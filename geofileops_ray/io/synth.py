"""Deterministic synthetic geometry layers over the driver's ``documents``
table — the engine's canonical input per ``BASELINE.json`` ``input_hint``:

    doc_id : int64
    spans  : list<struct<kind:string, text:string, media_ref:string, offset:int32>>
    geometry : binary (ISO WKB)
    <scalar attr columns>

Every derived value is **pure int64 arithmetic on doc_id** (LCG-style hash
``h = doc_id * 2654435761 mod 2^32``) so the exact same layer can be
reproduced by the DuckDB oracle in plain SQL (see the ``*_CTE`` strings,
used by ``__ray_entry__.oracle_sql``). Coordinates are integers (parcels),
half-integers (zones) and quarter-integers (points): exact in float64, and
the three lattices never produce degenerate vertex-on-edge incidences
*across* layers, which keeps parcels×zones overlays exact.

Layer shapes mirror the reference's test corpus (FIXTURES.md):
``parcels``  ≈ tests/data/polygon-parcel.gpkg (48 agricultural parcels —
here sf-scaled, jittered-grid rectangles with a 20% dense "urban" cluster
in 625 cells to exercise hot-cell salting); ``zones`` ≈
polygon-zone.gpkg (large cover polygons, ~64% coverage); ``points`` ≈
point.gpkg.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

# ---------------------------------------------------------------- constants

_MULT = 2654435761  # Knuth multiplicative hash constant
_MOD = 4294967296  # 2^32
GRID_W = 100  # sparse grid columns
CELL = 10  # grid pitch (units)
URBAN_W = 25  # urban cluster is URBAN_W x URBAN_W grid cells


def _hash(doc_id: np.ndarray) -> np.ndarray:
    # exact doc_id * MULT mod 2^32 at ANY doc_id: reduce mod 2^32 first
    # and multiply in uint64 ((2^32-1)*MULT < 2^64). A plain int64
    # product silently wraps once doc_id exceeds 2^63/MULT ≈ 3.47e9 —
    # exactly the scale expand_documents targets — and would silently
    # diverge from the SQL mirror (which errors loudly on overflow).
    d = doc_id.astype(np.uint64) % np.uint64(_MOD)
    return ((d * np.uint64(_MULT)) % np.uint64(_MOD)).astype(np.int64)


# ------------------------------------------------------- WKB vector builders


def rect_wkb(minx, miny, maxx, maxy) -> pa.Array:
    """Vectorized WKB POLYGON (one CCW closed 5-point ring) per rectangle.

    93 bytes/row: header(13) + 5 xy pairs. Zero Python loops.
    """
    n = len(minx)
    coords = np.empty((n, 10), dtype="<f8")
    coords[:, 0], coords[:, 1] = minx, miny
    coords[:, 2], coords[:, 3] = maxx, miny
    coords[:, 4], coords[:, 5] = maxx, maxy
    coords[:, 6], coords[:, 7] = minx, maxy
    coords[:, 8], coords[:, 9] = minx, miny
    out = np.empty((n, 93), dtype=np.uint8)
    header = np.frombuffer(
        b"\x01\x03\x00\x00\x00\x01\x00\x00\x00\x05\x00\x00\x00", dtype=np.uint8
    )
    out[:, :13] = header
    out[:, 13:] = coords.view(np.uint8).reshape(n, 80)
    offsets = pa.array(np.arange(n + 1, dtype=np.int32) * 93)
    return pa.Array.from_buffers(
        pa.binary(), n, [None, offsets.buffers()[1], pa.py_buffer(out.tobytes())]
    )


def point_wkb(x, y) -> pa.Array:
    """Vectorized WKB POINT per row (21 bytes/row)."""
    n = len(x)
    coords = np.empty((n, 2), dtype="<f8")
    coords[:, 0], coords[:, 1] = x, y
    out = np.empty((n, 21), dtype=np.uint8)
    out[:, :5] = np.frombuffer(b"\x01\x01\x00\x00\x00", dtype=np.uint8)
    out[:, 5:] = coords.view(np.uint8).reshape(n, 16)
    offsets = pa.array(np.arange(n + 1, dtype=np.int32) * 21)
    return pa.Array.from_buffers(
        pa.binary(), n, [None, offsets.buffers()[1], pa.py_buffer(out.tobytes())]
    )


# ----------------------------------------------------------- span synthesis


def _spans_array(doc_id: np.ndarray, text: list[str]) -> pa.Array:
    """Three spans per doc: text / media / geom (input_hint interleaved
    shape). Deterministic from doc_id + the document's own text."""
    h = _hash(doc_id)
    kinds, texts, refs, offs = [], [], [], []
    for i in range(len(doc_id)):
        kinds.extend(("text", "media", "geom"))
        texts.extend(((text[i] or "")[:32], "", ""))
        refs.extend(("", f"media://{h[i] % 1000}", ""))
        offs.extend((0, 1, 2))
    structs = pa.StructArray.from_arrays(
        [
            pa.array(kinds, pa.string()),
            pa.array(texts, pa.string()),
            pa.array(refs, pa.string()),
            pa.array(offs, pa.int32()),
        ],
        names=["kind", "text", "media_ref", "offset"],
    )
    offsets = pa.array(np.arange(len(doc_id) + 1, dtype=np.int32) * 3)
    return pa.ListArray.from_arrays(offsets, structs)


# ---------------------------------------------------------- parcels (layer 1)


def _parcel_grid(doc_id: np.ndarray):
    h = _hash(doc_id)
    urban = h % 5 == 0
    gx = np.where(urban, (h // 7) % URBAN_W, doc_id % GRID_W)
    gy = np.where(urban, (h // 7) // URBAN_W % URBAN_W, doc_id // GRID_W)
    return h, gx, gy


def synth_parcels_batch(batch: pa.Table) -> pa.Table:
    """documents batch (doc_id, text, lang) → parcels layer batch."""
    doc_id = batch.column("doc_id").to_numpy()
    text = batch.column("text").to_pylist()
    h, gx, gy = _parcel_grid(doc_id)
    dx, dy = h % 5, (h // 5) % 5
    w, ht = 4 + (h // 25) % 5, 4 + (h // 125) % 5
    minx = (gx * CELL + dx).astype(np.float64)
    miny = (gy * CELL + dy).astype(np.float64)
    maxx = minx + w
    maxy = miny + ht
    cols = {
        "doc_id": pa.array(doc_id, pa.int64()),
        "spans": _spans_array(doc_id, text),
        "geometry": rect_wkb(minx, miny, maxx, maxy),
        "OIDN": pa.array(doc_id, pa.int64()),
        "UIDN": pa.array(doc_id + 1000000, pa.int64()),
        "GEWASGROEP": pa.array([f"G{v}" for v in h % 6], pa.string()),
        "HFDTLT": pa.array([f"C{v}" for v in h % 20], pa.string()),
        "LBLHFDTLT": pa.array([f"crop_{v}" for v in h % 20], pa.string()),
        "LENGTE": pa.array((2 * (w + ht)).astype(np.float64), pa.float64()),
        "OPPERVL": pa.array((w * ht).astype(np.float64), pa.float64()),
        "lang": batch.column("lang"),
    }
    return pa.table(cols)


# SQL mirror of synth_parcels_batch for the DuckDB oracle. Integer-exact.
PARCELS_CTE = """
parcels AS (
  SELECT doc_id,
         CAST(minx AS DOUBLE) AS minx, CAST(miny AS DOUBLE) AS miny,
         CAST(minx + w AS DOUBLE) AS maxx, CAST(miny + ht AS DOUBLE) AS maxy,
         doc_id AS OIDN, doc_id + 1000000 AS UIDN,
         'G' || CAST(h % 6 AS VARCHAR) AS GEWASGROEP,
         'C' || CAST(h % 20 AS VARCHAR) AS HFDTLT,
         'crop_' || CAST(h % 20 AS VARCHAR) AS LBLHFDTLT,
         CAST(2 * (w + ht) AS DOUBLE) AS LENGTE,
         CAST(w * ht AS DOUBLE) AS OPPERVL,
         lang
  FROM (
    SELECT doc_id, lang, h,
           (CASE WHEN h % 5 = 0 THEN (h // 7) % 25 ELSE doc_id % 100 END) * 10
             + h % 5 AS minx,
           (CASE WHEN h % 5 = 0 THEN ((h // 7) // 25) % 25 ELSE doc_id // 100 END) * 10
             + (h // 5) % 5 AS miny,
           4 + (h // 25) % 5 AS w,
           4 + (h // 125) % 5 AS ht
    FROM (SELECT doc_id, lang, (doc_id * 2654435761) % 4294967296 AS h
          FROM documents)
  )
)
"""


def read_documents(sf_dir: str, columns=("doc_id", "text", "lang")) -> ray.data.Dataset:
    # the driver tables are single small parquet files → a naive read is
    # ONE block and every downstream map/groupby runs serially. Force a
    # block count sized to the cluster so the streaming executor can
    # parallelize (at real scale the Lance/parquet dataset has many
    # fragments and this is a no-op).
    from ..config import OPTIONS

    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=list(columns),
        override_num_blocks=OPTIONS.read_blocks,
    )


def expand_documents(ds: ray.data.Dataset, repeat: int) -> ray.data.Dataset:
    """Deterministic scale multiplier: each document becomes ``repeat``
    documents with doc_id' = doc_id * repeat + j (pure int64 — the SQL
    mirror is ``documents CROSS JOIN generate_series(0, repeat-1)``).
    Used by bench.py to reach reference-benchmark row counts (≈515k
    parcels, benchmark_results.csv) from the small driver tables."""
    if repeat <= 1:
        return ds

    def fn(batch: pa.Table) -> pa.Table:
        n = len(batch)
        idx = np.repeat(np.arange(n, dtype=np.int64), repeat)
        out = batch.take(pa.array(idx))
        j = np.tile(np.arange(repeat, dtype=np.int64), n)
        ids = out.column("doc_id").to_numpy() * repeat + j
        return out.set_column(
            out.schema.get_field_index("doc_id"), "doc_id", pa.array(ids, pa.int64())
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def parcels_dataset(sf_dir: str, repeat: int = 1) -> ray.data.Dataset:
    """The canonical layer-1 Dataset: read documents (pruned to the 3 used
    columns) → encode stage extracting geometry + attrs from the doc."""
    return expand_documents(read_documents(sf_dir), repeat).map_batches(
        synth_parcels_batch, batch_format="pyarrow", zero_copy_batch=True
    )


# ------------------------------------------------------------ zones (layer 2)


def synth_zones_batch(batch: pa.Table) -> pa.Table:
    """documents batch → zones layer (1 zone per 100 docs; half-integer
    coords ⇒ degeneracy-free overlays vs parcels)."""
    doc_id = batch.column("doc_id").to_numpy()
    text = batch.column("text").to_pylist()
    sel = doc_id % 100 == 0
    doc_id = doc_id[sel]
    text = [t for t, s in zip(text, sel) if s]
    zid = doc_id // 100
    zgx, zgy = zid % 8, zid // 8
    minx = zgx * 125 + 0.5
    miny = zgy * 125 + 0.5
    cols = {
        "doc_id": pa.array(doc_id, pa.int64()),
        "spans": _spans_array(doc_id, text),
        "geometry": rect_wkb(minx, miny, minx + 100, miny + 100),
        "naam": pa.array([f"zone_{z}" for z in zid], pa.string()),
        "OIDN": pa.array(zid, pa.int64()),
    }
    return pa.table(cols)


ZONES_CTE = """
zones AS (
  SELECT doc_id,
         CAST(zgx * 125 AS DOUBLE) + 0.5 AS minx,
         CAST(zgy * 125 AS DOUBLE) + 0.5 AS miny,
         CAST(zgx * 125 AS DOUBLE) + 100.5 AS maxx,
         CAST(zgy * 125 AS DOUBLE) + 100.5 AS maxy,
         'zone_' || CAST(zid AS VARCHAR) AS naam,
         zid AS OIDN
  FROM (SELECT doc_id, doc_id // 100 AS zid, (doc_id // 100) % 8 AS zgx,
               (doc_id // 100) // 8 AS zgy
        FROM documents WHERE doc_id % 100 = 0)
)
"""


def zones_dataset(sf_dir: str, repeat: int = 1) -> ray.data.Dataset:
    return expand_documents(read_documents(sf_dir), repeat).map_batches(
        synth_zones_batch, batch_format="pyarrow", zero_copy_batch=True
    )


# -------------------------------------------------- triangles (layer 4, irregular)


def tri_wkb(ax, ay, bx, by, cx, cy) -> pa.Array:
    """Vectorized WKB POLYGON (one CCW closed 4-point ring) per triangle.

    77 bytes/row: header(13) + 4 xy pairs. Zero Python loops."""
    n = len(ax)
    coords = np.empty((n, 8), dtype="<f8")
    coords[:, 0], coords[:, 1] = ax, ay
    coords[:, 2], coords[:, 3] = bx, by
    coords[:, 4], coords[:, 5] = cx, cy
    coords[:, 6], coords[:, 7] = ax, ay
    out = np.empty((n, 77), dtype=np.uint8)
    header = np.frombuffer(
        b"\x01\x03\x00\x00\x00\x01\x00\x00\x00\x04\x00\x00\x00", dtype=np.uint8
    )
    out[:, :13] = header
    out[:, 13:] = coords.view(np.uint8).reshape(n, 64)
    offsets = pa.array(np.arange(n + 1, dtype=np.int32) * 77)
    return pa.Array.from_buffers(
        pa.binary(), n, [None, offsets.buffers()[1], pa.py_buffer(out.tobytes())]
    )


def _tri_params(doc_id: np.ndarray):
    """Pure-int64 triangle parameters, SQL-mirrorable (TRIANGLES_CTE).

    Docs come in PAIRS (pair = doc_id // 2) that tile one rectangle along
    a hash-chosen diagonal: the two right triangles share the full
    diagonal edge, so dissolve/union must merge NON-AXIS-ALIGNED edges —
    the general sweep path, not the rect fast path. w ≠ h always (avoids
    45° cases where trig hits exact float branch points)."""
    pair = doc_id // 2
    s = doc_id % 2
    hp = (pair.astype(np.int64) * _MULT) % _MOD
    pgx, pgy = pair % 100, pair // 100
    x0 = (pgx * 10 + hp % 2).astype(np.float64)
    y0 = (pgy * 10 + (hp // 2) % 2).astype(np.float64)
    w = (4 + (hp // 4) % 4).astype(np.int64)
    h0 = (4 + (hp // 16) % 4).astype(np.int64)
    h = h0 + (h0 == w)
    dt = (hp // 64) % 2  # 0 = main diagonal, 1 = anti-diagonal
    ori = (dt * 2 + s).astype(np.int64)  # 0 SE, 1 NW, 2 SW, 3 NE
    return pair, hp, x0, y0, w.astype(np.float64), h.astype(np.float64), ori


def synth_triangles_batch(batch: pa.Table) -> pa.Table:
    """documents batch → irregular right-triangle layer (4 orientations,
    varying slopes). Everything derives from doc_id, mirrored exactly by
    TRIANGLES_CTE for the DuckDB oracle."""
    doc_id = batch.column("doc_id").to_numpy()
    text = batch.column("text").to_pylist()
    pair, hp, x0, y0, w, h, ori = _tri_params(doc_id)
    x1, y1 = x0 + w, y0 + h
    # CCW vertex triples per orientation
    ax = np.select([ori == 0, ori == 1, ori == 2, ori == 3], [x0, x0, x0, x1])
    ay = np.select([ori == 0, ori == 1, ori == 2, ori == 3], [y0, y0, y0, y0])
    bx = np.select([ori == 0, ori == 1, ori == 2, ori == 3], [x1, x1, x1, x1])
    by = np.select([ori == 0, ori == 1, ori == 2, ori == 3], [y0, y1, y0, y1])
    cx = np.select([ori == 0, ori == 1, ori == 2, ori == 3], [x1, x0, x0, x0])
    cy = np.select([ori == 0, ori == 1, ori == 2, ori == 3], [y1, y1, y1, y1])
    cols = {
        "doc_id": pa.array(doc_id, pa.int64()),
        "spans": _spans_array(doc_id, text),
        "geometry": tri_wkb(ax, ay, bx, by, cx, cy),
        "pair": pa.array(pair, pa.int64()),
        "grp": pa.array([f"T{v}" for v in hp % 5], pa.string()),
        "tri_area": pa.array(w * h / 2.0, pa.float64()),
        "lang": batch.column("lang"),
    }
    return pa.table(cols)


# SQL mirror: bbox (x0,y0,x1,y1) + halfplane (a,b,c) with
# triangle = bbox ∩ {a*x + b*y <= c} — integer-exact coefficients.
TRIANGLES_CTE = """
triangles AS (
  SELECT doc_id, pair, grp, tri_area,
         CAST(x0 AS DOUBLE) AS x0, CAST(y0 AS DOUBLE) AS y0,
         CAST(x0 + w AS DOUBLE) AS x1, CAST(y0 + h AS DOUBLE) AS y1,
         CAST(w AS DOUBLE) AS w, CAST(h AS DOUBLE) AS h,
         CASE ori WHEN 0 THEN -h WHEN 1 THEN h WHEN 2 THEN h ELSE -h END AS a,
         CASE ori WHEN 0 THEN w WHEN 1 THEN -w WHEN 2 THEN w ELSE -w END AS b,
         CASE ori WHEN 0 THEN w*y0 - h*x0
                  WHEN 1 THEN h*x0 - w*y0
                  WHEN 2 THEN h*x0 + w*y0 + h*w
                  ELSE -(h*x0 + w*y0 + h*w) END AS c
  FROM (
    SELECT doc_id, pair, 'T' || CAST(hp % 5 AS VARCHAR) AS grp,
           CAST(w * h AS DOUBLE) / 2 AS tri_area,
           (pair % 100) * 10 + hp % 2 AS x0,
           (pair // 100) * 10 + (hp // 2) % 2 AS y0,
           w, h, ((hp // 64) % 2) * 2 + doc_id % 2 AS ori
    FROM (
      SELECT doc_id, pair, hp, 4 + (hp // 4) % 4 AS w,
             CASE WHEN 4 + (hp // 16) % 4 = 4 + (hp // 4) % 4
                  THEN 5 + (hp // 16) % 4 ELSE 4 + (hp // 16) % 4 END AS h
      FROM (SELECT doc_id, doc_id // 2 AS pair,
                   ((doc_id // 2) * 2654435761) % 4294967296 AS hp
            FROM documents)
    )
  )
)
"""


def triangles_dataset(sf_dir: str, repeat: int = 1) -> ray.data.Dataset:
    """The irregular layer-4 Dataset (right triangles, 4 orientations,
    diagonal-tiled pairs) — exercises the general boolean/predicate
    kernels, not the rectangle fast paths."""
    return expand_documents(read_documents(sf_dir), repeat).map_batches(
        synth_triangles_batch, batch_format="pyarrow", zero_copy_batch=True
    )


# ------------------------------------------------------ lines (layer 6)


def synth_lines_batch(batch: pa.Table) -> pa.Table:
    """documents batch → L-shaped 3-point polylines (axis-aligned,
    integer coords, one per 10-unit doc cell ⇒ pairwise disjoint; zone
    bounds are half-integers ⇒ never collinear with zone edges). Length
    of any line∩zone is closed-form 1D interval math in SQL."""
    doc_id = batch.column("doc_id").to_numpy()
    text = batch.column("text").to_pylist()
    h = _hash(doc_id)
    gx, gy = doc_id % GRID_W, doc_id // GRID_W
    px = (gx * 10 + h % 3).astype(np.float64)
    py = (gy * 10 + (h // 3) % 3).astype(np.float64)
    lh = (3 + (h // 9) % 5).astype(np.float64)
    lv = (3 + (h // 45) % 5).astype(np.float64)
    n = len(doc_id)
    coords = np.empty((n, 6), dtype="<f8")
    coords[:, 0], coords[:, 1] = px, py
    coords[:, 2], coords[:, 3] = px + lh, py
    coords[:, 4], coords[:, 5] = px + lh, py + lv
    out = np.empty((n, 57), dtype=np.uint8)
    out[:, :9] = np.frombuffer(
        b"\x01\x02\x00\x00\x00\x03\x00\x00\x00", dtype=np.uint8
    )
    out[:, 9:] = coords.view(np.uint8).reshape(n, 48)
    offsets = pa.array(np.arange(n + 1, dtype=np.int32) * 57)
    geom = pa.Array.from_buffers(
        pa.binary(), n, [None, offsets.buffers()[1], pa.py_buffer(out.tobytes())]
    )
    return pa.table(
        {
            "doc_id": pa.array(doc_id, pa.int64()),
            "spans": _spans_array(doc_id, text),
            "geometry": geom,
            "grp": pa.array([f"L{v}" for v in h % 4], pa.string()),
            "line_len": pa.array(lh + lv, pa.float64()),
        }
    )


LINES_CTE = """
lines AS (
  SELECT doc_id, grp,
         CAST(px AS DOUBLE) px, CAST(py AS DOUBLE) py,
         CAST(lh AS DOUBLE) lh, CAST(lv AS DOUBLE) lv,
         CAST(lh + lv AS DOUBLE) AS line_len
  FROM (
    SELECT doc_id, 'L' || CAST(h % 4 AS VARCHAR) AS grp,
           (doc_id % 100) * 10 + h % 3 AS px,
           (doc_id // 100) * 10 + (h // 3) % 3 AS py,
           3 + (h // 9) % 5 AS lh, 3 + (h // 45) % 5 AS lv
    FROM (SELECT doc_id, (doc_id * 2654435761) % 4294967296 AS h FROM documents)
  )
)
"""


def lines_dataset(sf_dir: str, repeat: int = 1) -> ray.data.Dataset:
    return expand_documents(read_documents(sf_dir), repeat).map_batches(
        synth_lines_batch, batch_format="pyarrow", zero_copy_batch=True
    )


# ------------------------------------------------- bowties (layer 5, invalid)


def synth_bowties_batch(batch: pa.Table) -> pa.Table:
    """documents batch → layer with deliberately INVALID self-intersecting
    rings for every doc with hash%3==0 (bowtie quad A,B,C,D where ring
    order crosses at the rect center) and a valid rectangle otherwise —
    the makevalid/isvalid fixture (reference tests
    tests/single_layer_operations/)."""
    doc_id = batch.column("doc_id").to_numpy()
    text = batch.column("text").to_pylist()
    h = _hash(doc_id)
    gx = doc_id % GRID_W
    gy = doc_id // GRID_W
    x0 = (gx * 10 + h % 2).astype(np.float64)
    y0 = (gy * 10 + (h // 2) % 2).astype(np.float64)
    w = (4 + (h // 4) % 4).astype(np.float64)
    ht = (4 + (h // 16) % 4).astype(np.float64)
    x1, y1 = x0 + w, y0 + ht
    bow = h % 3 == 0
    n = len(doc_id)
    # ring: A(x0,y0) B(x1,y0) then C/D swapped for bowties → crossing
    coords = np.empty((n, 10), dtype="<f8")
    coords[:, 0], coords[:, 1] = x0, y0
    coords[:, 2], coords[:, 3] = x1, y0
    coords[:, 4] = np.where(bow, x0, x1)
    coords[:, 5] = y1
    coords[:, 6] = np.where(bow, x1, x0)
    coords[:, 7] = y1
    coords[:, 8], coords[:, 9] = x0, y0
    out = np.empty((n, 93), dtype=np.uint8)
    out[:, :13] = np.frombuffer(
        b"\x01\x03\x00\x00\x00\x01\x00\x00\x00\x05\x00\x00\x00", dtype=np.uint8
    )
    out[:, 13:] = coords.view(np.uint8).reshape(n, 80)
    offsets = pa.array(np.arange(n + 1, dtype=np.int32) * 93)
    geom = pa.Array.from_buffers(
        pa.binary(), n, [None, offsets.buffers()[1], pa.py_buffer(out.tobytes())]
    )
    return pa.table(
        {
            "doc_id": pa.array(doc_id, pa.int64()),
            "spans": _spans_array(doc_id, text),
            "geometry": geom,
            "rect_area": pa.array(w * ht, pa.float64()),
        }
    )


BOWTIES_CTE = """
bowties AS (
  SELECT doc_id, h % 3 = 0 AS is_bowtie, CAST(w * ht AS DOUBLE) AS rect_area
  FROM (
    SELECT doc_id, h, 4 + (h // 4) % 4 AS w, 4 + (h // 16) % 4 AS ht
    FROM (SELECT doc_id, (doc_id * 2654435761) % 4294967296 AS h FROM documents)
  )
)
"""


def bowties_dataset(sf_dir: str, repeat: int = 1) -> ray.data.Dataset:
    return expand_documents(read_documents(sf_dir), repeat).map_batches(
        synth_bowties_batch, batch_format="pyarrow", zero_copy_batch=True
    )


# ----------------------------------------------------------- points (layer 3)


def synth_points_batch(batch: pa.Table) -> pa.Table:
    """documents batch → point layer (quarter-integer coords ⇒ never on a
    parcel or zone edge)."""
    doc_id = batch.column("doc_id").to_numpy()
    text = batch.column("text").to_pylist()
    h, gx, gy = _parcel_grid(doc_id)
    px = (gx * CELL + h % 9).astype(np.float64) + 0.25
    py = (gy * CELL + (h // 9) % 9).astype(np.float64) + 0.25
    cols = {
        "doc_id": pa.array(doc_id, pa.int64()),
        "spans": _spans_array(doc_id, text),
        "geometry": point_wkb(px, py),
        "naam": pa.array([f"pt_{d}" for d in doc_id], pa.string()),
        "x": pa.array(px, pa.float64()),
        "y": pa.array(py, pa.float64()),
    }
    return pa.table(cols)


POINTS_CTE = """
points AS (
  SELECT doc_id,
         CAST(gx * 10 + h % 9 AS DOUBLE) + 0.25 AS x,
         CAST(gy * 10 + (h // 9) % 9 AS DOUBLE) + 0.25 AS y,
         'pt_' || CAST(doc_id AS VARCHAR) AS naam
  FROM (
    SELECT doc_id, h,
           CASE WHEN h % 5 = 0 THEN (h // 7) % 25 ELSE doc_id % 100 END AS gx,
           CASE WHEN h % 5 = 0 THEN ((h // 7) // 25) % 25 ELSE doc_id // 100 END AS gy
    FROM (SELECT doc_id, (doc_id * 2654435761) % 4294967296 AS h FROM documents)
  )
)
"""


def points_dataset(sf_dir: str, repeat: int = 1) -> ray.data.Dataset:
    return expand_documents(read_documents(sf_dir), repeat).map_batches(
        synth_points_batch, batch_format="pyarrow", zero_copy_batch=True
    )


# ------------------------------------------------- zigzags (layer 7, lines)


def synth_zigzag_batch(batch: pa.Table) -> pa.Table:
    """documents batch → zigzag polylines for the LANG/LANG+ simplify
    oracles: per doc, n_pts = 6 + h%40 points at (px+i, py+(i%2)*0.25).
    Amplitude 0.25 < tol 0.5 means every Lang look-ahead window (8)
    accepts at full width (perpendicular ≤ vertical deviation ≤ 0.25),
    so kept-point count is the closed form 1 + ceil((n_pts-1)/8) and
    LANG+ converges to the 2 endpoints — both SQL-expressible
    (ZIGZAGS_CTE)."""
    doc_id = batch.column("doc_id").to_numpy()
    text = batch.column("text").to_pylist()
    h = _hash(doc_id)
    gx, gy = doc_id % GRID_W, doc_id // GRID_W
    px = (gx * 10).astype(np.float64)
    py = (gy * 10).astype(np.float64)
    n_pts = (6 + h % 40).astype(np.int64)
    nrows = len(doc_id)
    sizes = 9 + n_pts * 16
    offs = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(sizes, out=offs[1:])
    buf = np.zeros(int(offs[-1]), dtype=np.uint8)
    for r in range(nrows):
        o = int(offs[r])
        k = int(n_pts[r])
        buf[o] = 1
        buf[o + 1 : o + 5] = np.frombuffer(
            np.uint32(2).tobytes(), dtype=np.uint8
        )
        buf[o + 5 : o + 9] = np.frombuffer(
            np.uint32(k).tobytes(), dtype=np.uint8
        )
        i = np.arange(k, dtype=np.float64)
        coords = np.empty((k, 2), dtype="<f8")
        coords[:, 0] = px[r] + i
        coords[:, 1] = py[r] + (i % 2) * 0.25
        buf[o + 9 : o + 9 + k * 16] = coords.view(np.uint8).ravel()
    geom = pa.Array.from_buffers(
        pa.binary(),
        nrows,
        [None, pa.array(offs, pa.int32()).buffers()[1], pa.py_buffer(buf.tobytes())],
    )
    return pa.table(
        {
            "doc_id": pa.array(doc_id, pa.int64()),
            "spans": _spans_array(doc_id, text),
            "geometry": geom,
            "n_pts": pa.array(n_pts, pa.int64()),
        }
    )


ZIGZAGS_CTE = """
zigzags AS (
  SELECT doc_id,
         (doc_id % 100) * 10 AS px, (doc_id // 100) * 10 AS py,
         6 + h % 40 AS n_pts
  FROM (SELECT doc_id, (doc_id * 2654435761) % 4294967296 AS h FROM documents)
)
"""


def zigzags_dataset(sf_dir: str, repeat: int = 1) -> ray.data.Dataset:
    return expand_documents(read_documents(sf_dir), repeat).map_batches(
        synth_zigzag_batch, batch_format="pyarrow", zero_copy_batch=True
    )


# --------------------------------------- lshapes (layer 8, CONCAVE polygons)


def poly6_wkb(xs: np.ndarray, ys: np.ndarray) -> pa.Array:
    """Vectorized WKB POLYGON with one CCW closed 7-point ring per row.

    ``xs``/``ys`` are (n, 6) vertex arrays. 125 bytes/row: header(13) +
    7 xy pairs. Zero Python loops."""
    n = len(xs)
    coords = np.empty((n, 14), dtype="<f8")
    coords[:, 0:12:2] = xs
    coords[:, 1:13:2] = ys
    coords[:, 12] = xs[:, 0]
    coords[:, 13] = ys[:, 0]
    out = np.empty((n, 125), dtype=np.uint8)
    header = np.frombuffer(
        b"\x01\x03\x00\x00\x00\x01\x00\x00\x00\x07\x00\x00\x00", dtype=np.uint8
    )
    out[:, :13] = header
    out[:, 13:] = coords.view(np.uint8).reshape(n, 112)
    offsets = pa.array(np.arange(n + 1, dtype=np.int32) * 125)
    return pa.Array.from_buffers(
        pa.binary(), n, [None, offsets.buffers()[1], pa.py_buffer(out.tobytes())]
    )


def _lshape_params(doc_id: np.ndarray):
    """Pure-int64 staircase parameters, SQL-mirrorable (LSHAPES_CTE).

    Docs come in PAIRS (pair = doc_id // 2) that split one w×h rectangle
    along a hash-chosen one-step staircase into two interlocking CONCAVE
    L-shapes (6 vertices, one reflex corner each). Both shapes' bboxes
    cover their notch, so bbox overlap does NOT imply intersects — the
    discriminating case for disjoint-query semantics — and every
    predicate/overlay on them must take the general (non-convex) kernel
    path, not the rect or convex fast paths. Max extent 9 < grid pitch
    10, so distinct pairs never touch (keeps dissolve part counts
    closed-form)."""
    pair = doc_id // 2
    s = doc_id % 2
    hp = (pair.astype(np.int64) * _MULT) % _MOD
    x0 = ((pair % 100) * 10 + hp % 2).astype(np.int64)
    y0 = ((pair // 100) * 10 + (hp // 2) % 2).astype(np.int64)
    ay = 1 + (hp // 4) % 3
    by = ay + 1 + (hp // 12) % 3
    h = by + 1 + (hp // 36) % 2
    w = 4 + (hp // 108) % 5
    bx = 1 + (hp // 540) % (w - 1)
    return pair, s, hp, x0, y0, ay, by, h, w, bx


def synth_lshapes_batch(batch: pa.Table) -> pa.Table:
    """documents batch → concave L-shape layer. Everything derives from
    doc_id, mirrored exactly by LSHAPES_CTE for the DuckDB oracle."""
    doc_id = batch.column("doc_id").to_numpy()
    text = batch.column("text").to_pylist()
    pair, s, hp, x0, y0, ay, by, h, w, bx = _lshape_params(doc_id)
    lo = s == 0  # lower-left L (bottom slab + left tower); else upper-right
    xs = np.empty((len(doc_id), 6), dtype=np.float64)
    ys = np.empty_like(xs)
    # s=0 CCW: (0,0)(w,0)(w,ay)(bx,ay)(bx,by)(0,by)  [reflex at (bx,ay)]
    # s=1 CCW: (bx,ay)(w,ay)(w,h)(0,h)(0,by)(bx,by)  [reflex at (bx,by)]
    xs[:, 0] = np.where(lo, 0, bx)
    ys[:, 0] = np.where(lo, 0, ay)
    xs[:, 1] = w
    ys[:, 1] = np.where(lo, 0, ay)
    xs[:, 2] = w
    ys[:, 2] = np.where(lo, ay, h)
    xs[:, 3] = np.where(lo, bx, 0)
    ys[:, 3] = np.where(lo, ay, h)
    xs[:, 4] = np.where(lo, bx, 0)
    ys[:, 4] = np.where(lo, by, by)
    xs[:, 5] = np.where(lo, 0, bx)
    ys[:, 5] = by
    xs += x0[:, None]
    ys += y0[:, None]
    larea = np.where(lo, w * ay + bx * (by - ay), w * (h - by) + (w - bx) * (by - ay))
    perim = 2 * (w + np.where(lo, by, h - ay))
    cols = {
        "doc_id": pa.array(doc_id, pa.int64()),
        "spans": _spans_array(doc_id, text),
        "geometry": poly6_wkb(xs, ys),
        "pair": pa.array(pair, pa.int64()),
        "grp": pa.array([f"L{v}" for v in hp % 5], pa.string()),
        "larea": pa.array(larea.astype(np.float64), pa.float64()),
        "perim": pa.array(perim.astype(np.float64), pa.float64()),
        "lang": batch.column("lang"),
    }
    return pa.table(cols)


# SQL mirror: each L-shape decomposed into two interior-disjoint
# axis-aligned rects r1/r2 (areas, overlaps and point-in tests all
# decompose over them) plus its bbox — integer-exact.
LSHAPES_CTE = """
lshapes AS (
  SELECT doc_id, pair, grp, s, w, h, ay, by, bx,
         CAST(CASE WHEN s = 0 THEN w*ay + bx*(by-ay)
                   ELSE w*(h-by) + (w-bx)*(by-ay) END AS DOUBLE) AS larea,
         CAST(2 * (w + CASE WHEN s = 0 THEN by ELSE h - ay END) AS DOUBLE) AS perim,
         CAST(CASE WHEN s = 0 THEN x0 ELSE x0 + bx END AS DOUBLE) AS r1x0,
         CAST(CASE WHEN s = 0 THEN y0 ELSE y0 + ay END AS DOUBLE) AS r1y0,
         CAST(x0 + w AS DOUBLE) AS r1x1,
         CAST(CASE WHEN s = 0 THEN y0 + ay ELSE y0 + by END AS DOUBLE) AS r1y1,
         CAST(x0 AS DOUBLE) AS r2x0,
         CAST(CASE WHEN s = 0 THEN y0 + ay ELSE y0 + by END AS DOUBLE) AS r2y0,
         CAST(CASE WHEN s = 0 THEN x0 + bx ELSE x0 + w END AS DOUBLE) AS r2x1,
         CAST(CASE WHEN s = 0 THEN y0 + by ELSE y0 + h END AS DOUBLE) AS r2y1,
         CAST(x0 AS DOUBLE) AS bbx0,
         CAST(CASE WHEN s = 0 THEN y0 ELSE y0 + ay END AS DOUBLE) AS bby0,
         CAST(x0 + w AS DOUBLE) AS bbx1,
         CAST(CASE WHEN s = 0 THEN y0 + by ELSE y0 + h END AS DOUBLE) AS bby1
  FROM (
    SELECT doc_id, pair, s, 'L' || CAST(hp % 5 AS VARCHAR) AS grp,
           (pair % 100) * 10 + hp % 2 AS x0,
           (pair // 100) * 10 + (hp // 2) % 2 AS y0,
           ay, by, by + 1 + (hp // 36) % 2 AS h, w,
           1 + (hp // 540) % (w - 1) AS bx
    FROM (
      SELECT doc_id, pair, s, hp, ay, ay + 1 + (hp // 12) % 3 AS by,
             4 + (hp // 108) % 5 AS w
      FROM (SELECT doc_id, doc_id // 2 AS pair, doc_id % 2 AS s,
                   ((doc_id // 2) * 2654435761) % 4294967296 AS hp,
                   1 + (((doc_id // 2) * 2654435761) % 4294967296 // 4) % 3 AS ay
            FROM documents)
    )
  )
)
"""


def lshapes_dataset(sf_dir: str, repeat: int = 1) -> ray.data.Dataset:
    """The concave layer-8 Dataset (interlocking staircase L-shapes) —
    exercises the general non-convex boolean/predicate kernels AND the
    bbox-overlap-without-intersection case (the notch) that rect and
    convex layers can never produce."""
    return expand_documents(read_documents(sf_dir), repeat).map_batches(
        synth_lshapes_batch, batch_format="pyarrow", zero_copy_batch=True
    )


# ------------------------------------ lines2 (layer 9b, line×line overlays)


def synth_lines2_batch(batch: pa.Table) -> pa.Table:
    """documents batch → 2-point segments targeting the ``lines`` layer's
    doc cells: even docs are HORIZONTAL bars collinear with the L's
    horizontal run (overlap length = exact 1D interval math); odd docs
    are VERTICAL crossers that intersect the run at a single POINT only
    — the lower-primitive rule must drop them from line×line
    intersection output. Integer/half-integer lattice ⇒ exact SQL."""
    doc_id = batch.column("doc_id").to_numpy()
    h = _hash(doc_id)
    gx, gy = doc_id % GRID_W, doc_id // GRID_W
    px = (gx * 10 + h % 3).astype(np.float64)
    py = (gy * 10 + (h // 3) % 3).astype(np.float64)
    d2 = (h // 225) % 5
    l2 = 2 + (h // 1125) % 5
    even = doc_id % 2 == 0
    x0 = np.where(even, px + d2, px + 0.5)
    y0 = np.where(even, py, py - 0.5)
    x1 = np.where(even, px + d2 + l2, px + 0.5)
    y1 = np.where(even, py, py + 1.5)
    n = len(doc_id)
    coords = np.empty((n, 4), dtype="<f8")
    coords[:, 0], coords[:, 1] = x0, y0
    coords[:, 2], coords[:, 3] = x1, y1
    out = np.empty((n, 41), dtype=np.uint8)
    out[:, :9] = np.frombuffer(
        b"\x01\x02\x00\x00\x00\x02\x00\x00\x00", dtype=np.uint8
    )
    out[:, 9:] = coords.view(np.uint8).reshape(n, 32)
    offsets = pa.array(np.arange(n + 1, dtype=np.int32) * 41)
    geom = pa.Array.from_buffers(
        pa.binary(), n, [None, offsets.buffers()[1], pa.py_buffer(out.tobytes())]
    )
    return pa.table(
        {
            "doc_id": pa.array(doc_id, pa.int64()),
            "geometry": geom,
            "kind2": pa.array(
                np.where(even, "hbar", "vcross").tolist(), pa.string()
            ),
        }
    )


# SQL mirror: the overlap length of lines2 (even docs) against the
# lines layer's horizontal run is closed-form interval math; odd docs
# never contribute line-primitive output.
LINES2_CTE = """
lines2 AS (
  SELECT doc_id,
         CAST(px + d2 AS DOUBLE) AS hx0, CAST(px + d2 + l2 AS DOUBLE) AS hx1,
         CAST(py AS DOUBLE) AS hy,
         doc_id % 2 = 0 AS is_hbar
  FROM (
    SELECT doc_id,
           (doc_id % 100) * 10 + h % 3 AS px,
           (doc_id // 100) * 10 + (h // 3) % 3 AS py,
           (h // 225) % 5 AS d2, 2 + (h // 1125) % 5 AS l2
    FROM (SELECT doc_id, (doc_id * 2654435761) % 4294967296 AS h FROM documents)
  )
)
"""


def lines2_dataset(sf_dir: str, repeat: int = 1) -> ray.data.Dataset:
    return expand_documents(read_documents(sf_dir), repeat).map_batches(
        synth_lines2_batch, batch_format="pyarrow", zero_copy_batch=True
    )


# ----------------- mixed cover (layer 9c, heterogeneous line+polygon layer2)


def _seg_wkb(x0, y0, x1, y1) -> pa.Array:
    """Vectorized WKB LINESTRING (2 points) per row — 41 bytes/row."""
    n = len(x0)
    coords = np.empty((n, 4), dtype="<f8")
    coords[:, 0], coords[:, 1] = x0, y0
    coords[:, 2], coords[:, 3] = x1, y1
    out = np.empty((n, 41), dtype=np.uint8)
    out[:, :9] = np.frombuffer(
        b"\x01\x02\x00\x00\x00\x02\x00\x00\x00", dtype=np.uint8
    )
    out[:, 9:] = coords.view(np.uint8).reshape(n, 32)
    offsets = pa.array(np.arange(n + 1, dtype=np.int32) * 41)
    return pa.Array.from_buffers(
        pa.binary(), n, [None, offsets.buffers()[1], pa.py_buffer(out.tobytes())]
    )


def synth_mixedsubj_batch(batch: pa.Table) -> pa.Table:
    """documents batch → horizontal 8-unit subject segments, one per doc
    at (px, py+0.5)→(px+8, py+0.5) on the 10-unit doc grid — the layer1
    side of the heterogeneous-overlay fixture."""
    doc_id = batch.column("doc_id").to_numpy()
    px = ((doc_id % GRID_W) * 10).astype(np.float64)
    py = ((doc_id // GRID_W) * 10).astype(np.float64)
    return pa.table(
        {
            "doc_id": pa.array(doc_id, pa.int64()),
            "geometry": _seg_wkb(px, py + 0.5, px + 8, py + 0.5),
        }
    )


def synth_mixedcover_batch(batch: pa.Table) -> pa.Table:
    """documents batch → a HETEROGENEOUS layer2: per doc one collinear
    hbar LINESTRING (y=py+0.5, x∈[px+a, px+a+wl]) AND one rect POLYGON
    (x∈[px+c, px+c+2], y∈[py, py+1]) — both are bbox candidates of the
    same subject segment, so every overlay group sees MIXED line+polygon
    candidates (the reference handles any mix via lower-primitive
    extraction, _geoops_sql.py:1880-1891). Intervals sometimes overlap
    (a+wl > c) so the union-merge path is exercised; closed-form 1-D
    interval math in MIXEDCOVER_CTE."""
    doc_id = batch.column("doc_id").to_numpy()
    h = _hash(doc_id)
    px = ((doc_id % GRID_W) * 10).astype(np.float64)
    py = ((doc_id // GRID_W) * 10).astype(np.float64)
    a = (h % 3).astype(np.float64)
    wl = (2 + (h // 3) % 2).astype(np.float64)
    c = (3 + (h // 6) % 3).astype(np.float64)
    bars = pa.table(
        {
            "doc_id": pa.array(doc_id * 2, pa.int64()),
            "geometry": _seg_wkb(px + a, py + 0.5, px + a + wl, py + 0.5),
            "ckind": pa.array(["hbar"] * len(doc_id), pa.string()),
        }
    )
    rects = pa.table(
        {
            "doc_id": pa.array(doc_id * 2 + 1, pa.int64()),
            "geometry": rect_wkb(px + c, py, px + c + 2, py + 1),
            "ckind": pa.array(["rect"] * len(doc_id), pa.string()),
        }
    )
    return pa.concat_tables([bars, rects])


# SQL mirror — per doc the subject segment [0,8] (local x) is covered by
# the union of [a, a+wl] (hbar) and [c, c+2] (rect); both lie inside
# [0,8], so covered length = wl + 2 − overlap and the difference/clip
# lengths are closed-form.
MIXEDCOVER_CTE = """
mixedcover AS (
  SELECT doc_id,
         CAST(h % 3 AS DOUBLE) AS a,
         CAST(2 + (h // 3) % 2 AS DOUBLE) AS wl,
         CAST(3 + (h // 6) % 3 AS DOUBLE) AS c
  FROM (SELECT doc_id, (doc_id * 2654435761) % 4294967296 AS h FROM documents)
)
"""


def mixedsubj_dataset(sf_dir: str, repeat: int = 1) -> ray.data.Dataset:
    return expand_documents(read_documents(sf_dir), repeat).map_batches(
        synth_mixedsubj_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def mixedcover_dataset(sf_dir: str, repeat: int = 1) -> ray.data.Dataset:
    return expand_documents(read_documents(sf_dir), repeat).map_batches(
        synth_mixedcover_batch, batch_format="pyarrow", zero_copy_batch=True
    )
