"""GeoPackage endpoints (io/gpkg.py): stdlib-sqlite read/write,
spec-conformant metadata, r-tree bbox pushdown, parallel rowid-range
read, read_file/to_file dispatch."""

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
    con = sqlite3.connect(p)
    try:
        assert con.execute(
            "SELECT 1 FROM sqlite_master WHERE name = 'nested'"
        ).fetchone() is None
    finally:
        con.close()


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
