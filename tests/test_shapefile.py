"""Shapefile endpoints (io/shapefile.py): .shp/.shx/.dbf round-trips,
ring assembly (multipolygons + holes), DBF types, dispatch."""

import struct

import numpy as np
import pyarrow as pa
import pytest

import ray
import ray.data

from geofileops_ray.geom.wkb import from_wkb, to_wkb
from geofileops_ray.geom.wkt import from_wkt, to_wkt
from geofileops_ray.io.shapefile import read_shapefile, write_shapefile
from geofileops_ray.io.readwrite import read_layer, write_layer
from geofileops_ray.util import collect


def _ds_of(wkts, attrs=None):
    wkb = to_wkb(from_wkt(wkts))
    cols = {
        "fid": pa.array(range(len(wkb)), pa.int64()),
        **(attrs or {}),
        "geometry": pa.array(wkb, pa.binary()),
    }
    t = pa.table(cols)
    return ray.data.from_arrow(t), t


def test_polygon_roundtrip_with_holes_and_multi(ray_session, tmp_path):
    wkts = [
        "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))",
        "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)),"
        " ((5 5, 7 5, 7 7, 5 7, 5 5), (5.5 5.5, 6 5.5, 6 6, 5.5 6, 5.5 5.5)))",
        "POLYGON ((10 10, 12 10, 12 12, 10 12, 10 10))",
    ]
    ds, _t = _ds_of(
        wkts,
        {
            "naam": pa.array(["x", "y", "z"], pa.string()),
            "n": pa.array([1, 2, 3], pa.int64()),
            "v": pa.array([0.25, 1.5, -3.75], pa.float64()),
            "ok": pa.array([True, False, True], pa.bool_()),
        },
    )
    p = str(tmp_path / "layer.shp")
    write_shapefile(ds, p)
    back = collect(read_shapefile(p)).sort_by("fid")
    assert back.column("naam").to_pylist() == ["x", "y", "z"]
    assert back.column("n").to_pylist() == [1, 2, 3]
    assert back.column("v").to_pylist() == [0.25, 1.5, -3.75]
    assert back.column("ok").to_pylist() == [True, False, True]
    ga0 = from_wkt(wkts)
    ga1 = from_wkb(back.column("geometry"))
    from geofileops_ray.geom.measure import area

    # ring order/orientation may be normalized — compare by area + type
    assert np.allclose(area(ga1), area(ga0))
    assert ga1.types.tolist() == ga0.types.tolist()


def test_lines_points_roundtrip_and_dispatch(ray_session, tmp_path):
    for wkts in (
        ["POINT (1 2)", "POINT (3 4)"],
        ["LINESTRING (0 0, 1 0, 1 1)", "MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))"],
        ["MULTIPOINT ((1 2), (3 4))"],
    ):
        ds, _t = _ds_of(wkts)
        p = str(tmp_path / "l.shp")
        write_layer(ds, p)  # dispatch by suffix
        back = collect(read_layer(p)).sort_by("fid")
        ga0, ga1 = from_wkt(wkts), from_wkb(back.column("geometry"))
        # multiline/line and point/multipoint families normalize per the
        # shapefile model; compare coordinate multisets
        c0 = sorted(map(tuple, np.round(ga0.coords, 9)))
        c1 = sorted(map(tuple, np.round(ga1.coords, 9)))
        assert c0 == c1


def test_mixed_types_refused(ray_session, tmp_path):
    ds, _t = _ds_of(["POINT (1 2)", "LINESTRING (0 0, 1 1)"])
    with pytest.raises(ValueError, match="mix"):
        write_shapefile(ds, str(tmp_path / "bad.shp"))


def test_header_layout(ray_session, tmp_path):
    ds, _t = _ds_of(["POINT (1 2)"])
    p = str(tmp_path / "h.shp")
    write_shapefile(ds, p)
    buf = open(p, "rb").read()
    assert struct.unpack_from(">i", buf, 0)[0] == 9994
    assert struct.unpack_from(">i", buf, 24)[0] * 2 == len(buf)
    assert struct.unpack_from("<ii", buf, 28) == (1000, 1)
    shx = open(str(tmp_path / "h.shx"), "rb").read()
    assert struct.unpack_from(">i", shx, 24)[0] * 2 == len(shx)


def test_multipatch_refused(tmp_path):
    """A MultiPatch (type 31) record is refused by name, not parsed as a
    Point because 31 % 10 == 1."""
    xy = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    content = (
        struct.pack("<i4d", 31, 0.0, 0.0, 1.0, 1.0)
        + struct.pack("<iiii", 1, 3, 0, 0)  # 1 triangle strip of 3 points
        + b"".join(struct.pack("<2d", x, y) for x, y in xy)
        + struct.pack("<5d", 0.0, 0.0, 0.0, 0.0, 0.0)  # Z range + Zs
    )
    record = struct.pack(">ii", 1, len(content) // 2) + content
    header = (
        struct.pack(">i20xi", 9994, (100 + len(record)) // 2)
        + struct.pack("<ii4d32x", 1000, 31, 0.0, 0.0, 1.0, 1.0)
    )
    p = tmp_path / "patch.shp"
    p.write_bytes(header + record)
    with pytest.raises(ValueError, match=r"shape type 31 in .*patch\.shp"):
        read_shapefile(str(p))


def test_synthetic_corpus_pipeline(ray_session, tmp_path):
    """parcels → shapefile → re-read → buffer area equivalence."""
    import geofileops_ray.io as gio
    from geofileops_ray.geom.measure import area
    from geofileops_ray.stages.single_layer import buffer as buffer_op

    parcels = gio.parcels_dataset("/root/testdata/sf0.001").map_batches(
        lambda b: b.select(["doc_id", "GEWASGROEP", "geometry"]),
        batch_format="pyarrow",
    )
    p = str(tmp_path / "parcels.shp")
    write_shapefile(parcels, p)
    back = read_shapefile(p)
    t0 = collect(parcels)
    t1 = collect(back)
    assert t1.num_rows == t0.num_rows
    assert sorted(t1.column("GEWASGROEP").to_pylist()) == sorted(
        t0.column("GEWASGROEP").to_pylist()
    )
    a0 = float(np.sum(area(from_wkb(collect(buffer_op(parcels, 1.0)).column("geometry")))))
    a1 = float(np.sum(area(from_wkb(collect(buffer_op(back, 1.0)).column("geometry")))))
    assert a1 == pytest.approx(a0)
