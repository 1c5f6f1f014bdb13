"""GeoPackage endpoints (io/gpkg.py): stdlib-sqlite read/write,
spec-conformant metadata, r-tree bbox pushdown, parallel rowid-range
read, read_file/to_file dispatch."""

import os
import sqlite3

import numpy as np
import pyarrow as pa
import pytest

import ray
import ray.data

from geofileops_ray.geom.wkb import from_wkb, to_wkb
from geofileops_ray.geom.wkt import from_wkt, to_wkt
from geofileops_ray.io.gpkg import (
    gpkg_crs,
    gpkg_unwrap,
    gpkg_wrap,
    listlayers_gpkg,
    read_gpkg,
    write_gpkg,
)
from geofileops_ray.io.readwrite import read_layer, write_layer
from geofileops_ray.util import collect

WKTS = [
    "POINT (1 2)",
    "LINESTRING (0 0, 1 0, 1 1)",
    "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
    "MULTIPOLYGON (((5 5, 6 5, 6 6, 5 6, 5 5)))",
]


def _sample_ds():
    wkb = to_wkb(from_wkt(WKTS))
    t = pa.table(
        {
            "fid": pa.array([10, 11, 12, 13], pa.int64()),
            "naam": pa.array(["a", "b", "c", "d"], pa.string()),
            "v": pa.array([0.5, 1.5, 2.5, 3.5], pa.float64()),
            "geometry": pa.array(wkb, pa.binary()),
        }
    )
    return ray.data.from_arrow(t), t


def test_blob_wrap_roundtrip():
    wkb = to_wkb(from_wkt(["POINT (3 4)"]))[0]
    blob = gpkg_wrap(wkb, srs_id=31370)
    assert blob[:2] == b"GP" and gpkg_unwrap(blob) == wkb
    assert gpkg_unwrap(None) is None and gpkg_wrap(None) is None
    # liberal: bare WKB passes through
    assert gpkg_unwrap(wkb) == wkb


def test_gpkg_roundtrip_and_metadata(ray_session, tmp_path):
    ds, t = _sample_ds()
    p = str(tmp_path / "layer.gpkg")
    write_gpkg(ds, p, epsg=31370)
    # spec surface a GDAL/QGIS reader would touch
    con = sqlite3.connect(p)
    (app_id,) = con.execute("PRAGMA application_id").fetchone()
    assert app_id == 0x47504B47
    assert con.execute(
        "SELECT data_type, srs_id FROM gpkg_contents"
    ).fetchall() == [("features", 31370)]
    assert con.execute(
        "SELECT geometry_type_name FROM gpkg_geometry_columns"
    ).fetchone()[0] == "GEOMETRY"  # mixed types
    srs = dict(
        con.execute(
            "SELECT srs_id, organization FROM gpkg_spatial_ref_sys"
        ).fetchall()
    )
    assert srs[31370] == "EPSG" and 4326 in srs
    con.close()
    assert listlayers_gpkg(p) == ["layer"]
    assert gpkg_crs(p) == 31370
    back = collect(read_gpkg(p)).sort_by("fid")
    assert back.column("fid").to_pylist() == [10, 11, 12, 13]
    assert back.column("naam").to_pylist() == t.column("naam").to_pylist()
    assert back.column("v").to_pylist() == t.column("v").to_pylist()
    assert to_wkt(from_wkb(back.column("geometry"))) == WKTS


@pytest.mark.parametrize(
    "col",
    [
        pa.array([[1, 2], []], pa.list_(pa.int64())),
        pa.array([{"a": 1}, {"a": 2}], pa.struct([("a", pa.int64())])),
        pa.array([[("k", 1)], []], pa.map_(pa.string(), pa.int64())),
    ],
    ids=["list", "struct", "map"],
)
def test_gpkg_nested_column_rejected(ray_session, tmp_path, col):
    """A nested column has no GeoPackage column type: write_gpkg names
    the column and its Arrow type before writing any row, instead of
    failing inside sqlite3 with a generic binding error."""
    wkb = to_wkb(from_wkt(["POINT (1 2)", "POINT (3 4)"]))
    t = pa.table({"nested": col, "geometry": pa.array(wkb, pa.binary())})
    p = str(tmp_path / "nested.gpkg")
    with pytest.raises(TypeError, match=r"'nested'.*" + str(col.type)[:4]):
        write_gpkg(ray.data.from_arrow(t), p)
    assert os.listdir(tmp_path) == []  # no layer-less file, no temp file


def test_gpkg_failed_write_keeps_existing_file(ray_session, tmp_path):
    """The write goes to a temporary file that replaces ``path`` only on
    success: a failing write leaves the old GeoPackage byte-identical."""
    ds, _t = _sample_ds()
    p = tmp_path / "layer.gpkg"
    write_gpkg(ds, str(p))
    before = p.read_bytes()
    wkb = to_wkb(from_wkt(["POINT (1 2)"]))
    bad = pa.table(
        {
            "nested": pa.array([[1]], pa.list_(pa.int64())),
            "geometry": pa.array(wkb, pa.binary()),
        }
    )
    with pytest.raises(TypeError, match="nested"):
        write_gpkg(ray.data.from_arrow(bad), str(p))
    assert p.read_bytes() == before
    assert os.listdir(tmp_path) == ["layer.gpkg"]


def test_gpkg_boolean_roundtrip(ray_session, tmp_path):
    """A bool column is declared BOOLEAN and read back as bool, NULLs
    kept."""
    wkb = to_wkb(from_wkt(["POINT (1 2)", "POINT (3 4)", "POINT (5 6)"]))
    t = pa.table(
        {
            "ok": pa.array([True, None, False], pa.bool_()),
            "geometry": pa.array(wkb, pa.binary()),
        }
    )
    p = str(tmp_path / "flags.gpkg")
    write_gpkg(ray.data.from_arrow(t), p)
    back = collect(read_gpkg(p)).sort_by("fid")
    assert back.schema.field("ok").type == pa.bool_()
    assert back.column("ok").to_pylist() == [True, None, False]


def test_gpkg_missing_file(tmp_path):
    p = str(tmp_path / "absent.gpkg")
    for fn in (read_gpkg, listlayers_gpkg):
        with pytest.raises(FileNotFoundError, match="absent.gpkg"):
            fn(p)


def test_gpkg_dispatch_where_bbox(ray_session, tmp_path):
    ds, _t = _sample_ds()
    p = str(tmp_path / "layer.gpkg")
    write_layer(ds, p)  # dispatch by suffix
    # bbox pushdown through the r-tree: only the two polygons
    out = collect(read_layer(p, bbox=(3.5, 3.5, 7.0, 7.0)))
    assert sorted(out.column("naam").to_pylist()) == ["c", "d"]
    # SQLite where passthrough
    out2 = collect(read_layer(p, where="v > 2.0"))
    assert sorted(out2.column("naam").to_pylist()) == ["c", "d"]
    # columns pruning keeps fid + geometry
    out3 = collect(read_gpkg(p, columns=["naam"]))
    assert set(out3.column_names) == {"fid", "naam", "geometry"}


def test_gpkg_parallel_range_read(ray_session, tmp_path):
    """Many rowid ranges → many tasks over one file; all rows arrive
    exactly once."""
    n = 1000
    sq = to_wkb(from_wkt(["POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))"]))[0]
    t = pa.table(
        {
            "fid": pa.array(range(1, n + 1), pa.int64()),
            "k": pa.array([i % 7 for i in range(n)], pa.int64()),
            "geometry": pa.array([sq] * n, pa.binary()),
        }
    )
    p = str(tmp_path / "big.gpkg")
    write_gpkg(ray.data.from_arrow(t), p)
    ds = read_gpkg(p, rows_per_task=64)  # ~16 tasks
    got = collect(ds)
    assert got.num_rows == n
    assert sorted(got.column("fid").to_pylist()) == list(range(1, n + 1))


def test_gpkg_synthetic_corpus_pipeline(ray_session, tmp_path):
    """parcels → GPKG → re-read → intersection runs — the reference's
    canonical flow (gpkg in, gpkg out)."""
    import geofileops_ray.io as gio
    from geofileops_ray.stages.overlay_ops import intersection

    parcels = gio.parcels_dataset("/root/testdata/sf0.001").map_batches(
        lambda b: b.select(["doc_id", "GEWASGROEP", "geometry"]),
        batch_format="pyarrow",
    )
    zones = gio.zones_dataset("/root/testdata/sf0.001").map_batches(
        lambda b: b.select(["doc_id", "naam", "geometry"]),
        batch_format="pyarrow",
    )
    pp = str(tmp_path / "parcels.gpkg")
    pz = str(tmp_path / "zones.gpkg")
    write_gpkg(parcels, pp, epsg=31370)
    write_gpkg(zones, pz, epsg=31370)
    direct = collect(
        intersection(parcels, zones, cols1=["GEWASGROEP"], cols2=["naam"])
    )
    via = collect(
        intersection(
            read_gpkg(pp), read_gpkg(pz),
            cols1=["GEWASGROEP"], cols2=["naam"],
        )
    )
    assert via.num_rows == direct.num_rows
    a = sorted(
        zip(
            via.column("l1_GEWASGROEP").to_pylist(),
            via.column("l2_naam").to_pylist(),
        )
    )
    b = sorted(
        zip(
            direct.column("l1_GEWASGROEP").to_pylist(),
            direct.column("l2_naam").to_pylist(),
        )
    )
    assert a == b


def test_reads_gdal_written_gpkg(ray_session):
    """TRUE interop: the reference repo ships a GDAL-written GeoPackage
    (geofileops/util/test.gpkg — a real Flanders parcel, EPSG:31370,
    with GDAL's own r-tree). Our stdlib reader must get the
    attributes, the MULTIPOLYGON geometry and the r-tree bbox path
    right on a file we did not write."""
    import numpy as np

    from geofileops_ray.geom.measure import area

    p = "/root/reference/geofileops/util/test.gpkg"
    assert listlayers_gpkg(p) == ["test"]
    assert gpkg_crs(p) == 31370
    t = collect(read_gpkg(p))
    assert t.num_rows == 1
    row = t.to_pylist()[0]
    assert row["GEWASGROEP"] == "Grasland" and row["OPPERVL"] == 4816.51
    ga = from_wkb(t.column("geometry"))
    assert int(ga.types[0]) == 6  # MULTIPOLYGON
    assert float(np.sum(area(ga))) == pytest.approx(4816.514, abs=1e-2)
    b = ga.bounds()
    # bbox through GDAL's own rtree_test_geom index
    hit = collect(read_gpkg(p, bbox=(156000, 196400, 156200, 196600)))
    assert hit.num_rows == 1
    miss = collect(read_gpkg(p, bbox=(0, 0, 1, 1)))
    assert miss.num_rows == 0
    assert b[0, 0] == pytest.approx(156094.28, abs=0.01)


# ---------------------------------------------------------------- r-tree

M = 51  # cells per node: 1228-byte nodes at SQLite's default 4 KiB page


def _box_wkts(boxes):
    return [
        f"POLYGON (({x0!r} {y0!r}, {x1!r} {y0!r}, {x1!r} {y1!r}, "
        f"{x0!r} {y1!r}, {x0!r} {y0!r}))"
        for x0, y0, x1, y1 in np.asarray(boxes).tolist()
    ]


def _random_boxes(n, seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-500.0, 1500.0, (n, 2))
    size = rng.uniform(0.01, 40.0, (n, 2))
    return np.hstack([lo, lo + size])


def _write_boxes(tmp_path, boxes, fid=None, name="boxes"):
    t = pa.table(
        {
            **({} if fid is None else {"fid": pa.array(fid, pa.int64())}),
            "geometry": pa.array(to_wkb(from_wkt(_box_wkts(boxes))), pa.binary()),
        }
    )
    p = str(tmp_path / f"{name}.gpkg")
    write_gpkg(ray.data.from_arrow(t), p)
    return p, f"rtree_{name}_geometry"


def _rtree_rows(con, rtree):
    return con.execute(f'SELECT * FROM "{rtree}" ORDER BY id').fetchall()


@pytest.mark.parametrize(
    "n,depth,nodes", [(1, 0, 1), (M, 0, 1), (M + 1, 1, 3), (M * M + 1, 2, 55)]
)
def test_rtree_packed_tree_shape(ray_session, tmp_path, n, depth, nodes):
    """STR-packed trees of 1, M, M+1 and M²+1 entries: SQLite's own
    rtreecheck() accepts each, the root records the expected depth,
    nodes are full (M²+1 entries take 52 leaves, 2 inner nodes and the
    root) and every row is indexed once."""
    p, rt = _write_boxes(tmp_path, _random_boxes(n, seed=n))
    con = sqlite3.connect(p)
    try:
        (root,) = con.execute(
            f'SELECT data FROM "{rt}_node" WHERE nodeno = 1'
        ).fetchone()
        assert len(root) == 4 + 24 * M
        assert int.from_bytes(root[:2], "big") == depth
        assert con.execute(f"SELECT rtreecheck('{rt}')").fetchone() == ("ok",)
        assert con.execute(f'SELECT count(*) FROM "{rt}"').fetchone() == (n,)
        assert con.execute(f'SELECT count(*) FROM "{rt}_node"').fetchone() == (nodes,)
    finally:
        con.close()


def test_rtree_matches_sqlite_inserts(ray_session, tmp_path):
    """Stored float32 boxes and the ids every window query returns are
    those of an rtree filled by SQLite INSERTs of the same float64
    bounds."""
    boxes = _random_boxes(3000, seed=7)
    p, rt = _write_boxes(tmp_path, boxes)
    con = sqlite3.connect(p)
    try:
        con.execute("CREATE VIRTUAL TABLE ref USING rtree(id, minx, maxx, miny, maxy)")
        con.executemany(
            "INSERT INTO ref VALUES (?,?,?,?,?)",
            [(i + 1, b[0], b[2], b[1], b[3]) for i, b in enumerate(boxes.tolist())],
        )
        assert _rtree_rows(con, rt) == _rtree_rows(con, "ref")
        rng = np.random.default_rng(8)
        for x, y, w in zip(*rng.uniform([-600, -600, 1], [1600, 1600, 300], (300, 3)).T):
            cond = f"minx <= {x + w!r} AND maxx >= {x!r} AND miny <= {y + w!r} AND maxy >= {y!r}"
            got = con.execute(f'SELECT id FROM "{rt}" WHERE {cond} ORDER BY id').fetchall()
            ref = con.execute(f"SELECT id FROM ref WHERE {cond} ORDER BY id").fetchall()
            assert got == ref
    finally:
        con.close()


def test_rtree_float32_boxes_contain_bounds(ray_session, tmp_path):
    """Coordinates float32 cannot hold round outward: mins down, maxes
    up, on both sides of zero."""
    boxes = np.array(
        [
            [0.1, 0.1, 1e7 + 0.3, 1e7 + 0.3],
            [-1e7 - 0.3, -0.1, -0.1, 0.1],
            [1e7 + 0.3, -1e7 - 0.7, 1e7 + 0.7, -1e7 - 0.3],
        ]
    )
    p, rt = _write_boxes(tmp_path, boxes)
    con = sqlite3.connect(p)
    try:
        rows = _rtree_rows(con, rt)
    finally:
        con.close()
    for (rid, minx, maxx, miny, maxy), b in zip(rows, boxes):
        assert minx <= b[0] and miny <= b[1] and maxx >= b[2] and maxy >= b[3]
        assert [minx, maxx, miny, maxy] != [b[0], b[2], b[1], b[3]]


def test_rtree_skips_null_and_empty(ray_session, tmp_path):
    """NULL and EMPTY geometries get a fid but no r-tree entry; a layer
    of nothing else gets an empty, valid r-tree."""
    wkts = ["POINT (1 2)", "POLYGON EMPTY", None, "LINESTRING (0 0, 5 5)",
            "POINT EMPTY"]
    wkb = [None if w is None else to_wkb(from_wkt([w]))[0] for w in wkts]
    cases = {"mixed": wkb, "none": [wkb[1], None, wkb[4]]}
    for name, geoms in cases.items():
        t = pa.table({"geometry": pa.array(geoms, pa.binary())})
        p = str(tmp_path / f"{name}.gpkg")
        write_gpkg(ray.data.from_arrow(t), p)
        rt = f"rtree_{name}_geometry"
        con = sqlite3.connect(p)
        try:
            assert con.execute(f"SELECT rtreecheck('{rt}')").fetchone() == ("ok",)
            ids = [r[0] for r in _rtree_rows(con, rt)]
            fids = [r[0] for r in con.execute(f'SELECT fid FROM "{name}"')]
        finally:
            con.close()
        assert fids == list(range(1, len(geoms) + 1))
        assert ids == ([1, 4] if name == "mixed" else [])


def test_rtree_explicit_unsorted_fids(ray_session, tmp_path):
    """An explicit, unsorted fid column indexes each row under its own
    fid: the bbox read around each box finds exactly that row."""
    boxes = np.array([[10 * i, 0, 10 * i + 5, 5] for i in range(120)], float)
    fids = np.random.default_rng(3).permutation(np.arange(1000, 1120))
    p, rt = _write_boxes(tmp_path, boxes, fid=fids)
    con = sqlite3.connect(p)
    try:
        assert con.execute(f"SELECT rtreecheck('{rt}')").fetchone() == ("ok",)
        stored = {r[0]: r[1] for r in _rtree_rows(con, rt)}
    finally:
        con.close()
    assert {int(f): float(b[0]) for f, b in zip(fids, boxes)} == stored
    hit = collect(read_gpkg(p, bbox=(51.0, 1.0, 54.0, 4.0)))
    assert hit.column("fid").to_pylist() == [int(fids[5])]


def test_rtree_null_fids_numbered_like_autoincrement(ray_session, tmp_path):
    """NULL fids get the rowids SQLite's AUTOINCREMENT would give them,
    and the r-tree indexes each row under its rowid."""
    fid = [None, 7, None, 3, None, None, 20, None]
    boxes = np.array([[i, i, i + 1, i + 1] for i in range(len(fid))], float)
    p, rt = _write_boxes(tmp_path, boxes, fid=fid)
    ref = sqlite3.connect(":memory:")
    ref.execute("CREATE TABLE t (fid INTEGER PRIMARY KEY AUTOINCREMENT, k)")
    ref.executemany("INSERT INTO t VALUES (?,?)", [(f, k) for k, f in enumerate(fid)])
    expect = [r[0] for r in ref.execute("SELECT fid FROM t ORDER BY k")]
    ref.close()
    con = sqlite3.connect(p)
    try:
        fids = [r[0] for r in con.execute('SELECT fid FROM "boxes" ORDER BY fid')]
        by_minx = {r[1]: r[0] for r in _rtree_rows(con, rt)}
    finally:
        con.close()
    assert fids == sorted(expect)
    assert [by_minx[float(i)] for i in range(len(fid))] == expect


def test_rtree_insert_after_bulk_load(ray_session, tmp_path):
    """SQLite keeps maintaining a bulk-loaded tree: an INSERT into the
    depth-2 tree leaves rtreecheck() ok and the new row findable."""
    p, rt = _write_boxes(tmp_path, _random_boxes(M * M + 1, seed=5))
    con = sqlite3.connect(p)
    try:
        con.execute(f'INSERT INTO "{rt}" VALUES (999999, 1, 2, 3, 4)')
        assert con.execute(f"SELECT rtreecheck('{rt}')").fetchone() == ("ok",)
        assert con.execute(
            f'SELECT id FROM "{rt}" WHERE minx >= 0.5 AND maxx <= 2.5'
            " AND miny >= 2.5 AND maxy <= 4.5"
        ).fetchall() == [(999999,)]
    finally:
        con.close()
