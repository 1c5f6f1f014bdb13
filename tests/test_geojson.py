"""GeoJSON / GeoJSONSeq / CSV+WKT endpoints (io/geojson.py): format
round-trips over the synthetic corpus, fid/CRS handling, read_layer
dispatch, bbox filtering on text formats."""

import json

import numpy as np
import pyarrow as pa
import pytest

import ray
import ray.data

from geofileops_ray.geom.geojson import from_geojson, to_geojson
from geofileops_ray.geom.wkb import from_wkb, to_wkb
from geofileops_ray.geom.wkt import from_wkt, to_wkt
from geofileops_ray.io.geojson import (
    geojson_crs,
    read_csv_wkt,
    read_geojson,
    write_csv_wkt,
    write_geojson,
)
from geofileops_ray.io.readwrite import read_layer, write_layer
from geofileops_ray.util import collect

WKTS = [
    "POINT (1 2)",
    "LINESTRING (0 0, 1 0, 1 1)",
    "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))",
    "MULTIPOINT ((1 2), (3 4))",
    "MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))",
    "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 5)))",
    "GEOMETRYCOLLECTION(POINT(1 1), LINESTRING(0 0, 2 0), "
    "POLYGON((0 0, 1 0, 1 1, 0 1, 0 0)))",
    None,
]


def test_geometry_codec_roundtrip():
    ga = from_wkt(WKTS)
    gj = to_geojson(ga)
    assert gj[-1] is None
    assert gj[0] == {"type": "Point", "coordinates": [1.0, 2.0]}
    assert gj[6]["type"] == "GeometryCollection"
    assert [g["type"] for g in gj[6]["geometries"]] == [
        "Point", "LineString", "Polygon",
    ]
    back = from_geojson(gj)
    # compare via WKT (canonical text form)
    assert to_wkt(back) == to_wkt(ga)


def _sample_ds(n=7):
    wkb = to_wkb(from_wkt([w for w in WKTS if w]))
    t = pa.table(
        {
            "fid": pa.array(range(10, 10 + len(wkb)), pa.int64()),
            "naam": pa.array([f"f{i}" for i in range(len(wkb))], pa.string()),
            "v": pa.array(np.linspace(0.5, 3.5, len(wkb)), pa.float64()),
            "geometry": pa.array(wkb, pa.binary()),
        }
    )
    return ray.data.from_arrow(t), t


def test_geojson_roundtrip_with_fid_and_crs(ray_session, tmp_path):
    ds, t = _sample_ds()
    p = str(tmp_path / "layer.geojson")
    write_geojson(ds, p, epsg=31370)
    assert geojson_crs(p) == 31370
    doc = json.loads(open(p).read())
    assert doc["type"] == "FeatureCollection"
    assert doc["features"][0]["id"] == 10
    back = collect(read_geojson(p)).sort_by("fid")
    assert back.column("fid").to_pylist() == t.column("fid").to_pylist()
    assert back.column("naam").to_pylist() == t.column("naam").to_pylist()
    assert back.column("v").to_pylist() == t.column("v").to_pylist()
    assert to_wkt(from_wkb(back.column("geometry"))) == to_wkt(
        from_wkb(t.column("geometry"))
    )


def test_geojsonseq_roundtrip_and_dispatch(ray_session, tmp_path):
    ds, t = _sample_ds()
    p = str(tmp_path / "layer.geojsonl")
    write_layer(ds, p)  # dispatch by suffix
    lines = [ln for ln in open(p).read().splitlines() if ln]
    assert len(lines) == t.num_rows and json.loads(lines[0])["type"] == "Feature"
    back = collect(read_layer(p)).sort_by("fid")
    assert back.column("naam").to_pylist() == t.column("naam").to_pylist()
    assert to_wkt(from_wkb(back.column("geometry"))) == to_wkt(
        from_wkb(t.column("geometry"))
    )


def test_csv_wkt_roundtrip(ray_session, tmp_path):
    ds, t = _sample_ds()
    p = str(tmp_path / "layer.csv")
    write_csv_wkt(ds, p)
    back = collect(read_csv_wkt(p)).sort_by("fid")
    assert back.column("fid").to_pylist() == t.column("fid").to_pylist()
    assert to_wkt(from_wkb(back.column("geometry"))) == to_wkt(
        from_wkb(t.column("geometry"))
    )


def test_read_layer_geojson_bbox_filters(ray_session, tmp_path):
    ds, _t = _sample_ds()
    p = str(tmp_path / "layer.geojson")
    write_geojson(ds, p)
    # bbox around (5..6, 5..6): only the MULTIPOLYGON's 2nd part is there
    out = collect(read_layer(p, bbox=(4.5, 4.5, 7.0, 7.0)))
    assert out.num_rows == 1
    assert out.column("naam").to_pylist() == ["f5"]


def test_geojson_synthetic_corpus_matrix(ray_session, tmp_path):
    """The reference-corpus shape end-to-end: parcels → GeoJSON →
    engine pipeline (buffer) runs on the re-read layer."""
    import geofileops_ray.io as gio
    from geofileops_ray.stages.single_layer import buffer as buffer_op
    from geofileops_ray.geom.measure import area

    parcels = gio.parcels_dataset("/root/testdata/sf0.001")
    keep = parcels.map_batches(
        lambda b: b.select(["doc_id", "GEWASGROEP", "geometry"]),
        batch_format="pyarrow",
    )
    p = str(tmp_path / "parcels.geojson")
    write_geojson(keep, p)
    back = read_geojson(p)
    t0 = collect(keep).sort_by("doc_id")
    t1 = collect(back).sort_by("doc_id")
    assert t1.num_rows == t0.num_rows
    assert t1.column("GEWASGROEP").to_pylist() == t0.column(
        "GEWASGROEP"
    ).to_pylist()
    # coordinates survive exactly (json shortest-roundtrip floats)
    assert to_wkt(from_wkb(t1.column("geometry"))) == to_wkt(
        from_wkb(t0.column("geometry"))
    )
    # and the layer is pipeline-ready
    buffed = collect(buffer_op(back, 1.0))
    a0 = float(np.sum(area(from_wkb(collect(buffer_op(keep, 1.0)).column("geometry")))))
    a1 = float(np.sum(area(from_wkb(buffed.column("geometry")))))
    assert a1 == pytest.approx(a0)


def _point_feature(k, props, fid=None):
    f = {"type": "Feature", "properties": props,
         "geometry": {"type": "Point", "coordinates": [float(k), 0.0]}}
    if fid is not None:
        f["id"] = fid
    return f


def test_geojsonseq_schema_fixed_per_file(ray_session, tmp_path):
    """Columns, types and the fid decision hold for the whole file, not
    per parse batch (1024 lines): later lines add a property, carry ids,
    and fill a property that is NULL in every earlier line."""
    n, cut = 2600, 1500
    p = tmp_path / "drift.ndjson"
    with open(p, "w") as fh:
        for k in range(n):
            props = {"a": k, "c": None}
            if k >= cut:
                props.update(b=f"s{k}", c=k * 0.5)
            fh.write(json.dumps(_point_feature(k, props, k if k >= cut else None)))
            fh.write("\n")
    out = collect(read_geojson(str(p))).sort_by("a")
    assert out.column_names == ["fid", "a", "c", "b", "geometry"]
    assert out.schema.field("c").type == pa.float64()
    assert out.schema.field("b").type == pa.string()
    assert out.column("fid").to_pylist() == [None] * cut + list(range(cut, n))
    assert out.column("b").to_pylist()[cut - 1 : cut + 1] == [None, f"s{cut}"]
    assert out.column("c").null_count == cut


def test_geojson_collection_schema_fixed_across_chunks(ray_session, tmp_path):
    """A FeatureCollection re-blocks every 65,536 features; a property
    that is NULL in the whole first chunk keeps the file's type."""
    n, cut = 65_600, 65_536
    feats = [
        _point_feature(k, {"c": k * 0.5 if k >= cut else None}) for k in range(n)
    ]
    p = tmp_path / "chunks.geojson"
    p.write_text(json.dumps({"type": "FeatureCollection", "features": feats}))
    out = collect(read_geojson(str(p))).sort_by("fid")
    assert out.schema.field("c").type == pa.float64()
    assert out.column("fid").to_pylist() == list(range(n))
    assert out.column("c").null_count == cut


def test_layer_info_over_geojson(ray_session, tmp_path):
    """Catalog parity: get_layerinfo works on a GeoJSON layer read
    (reference get_layerinfo on any OGR path) with the crs from the
    legacy member."""
    from geofileops_ray.stages.catalog import layer_info

    ds, _t = _sample_ds()
    p = str(tmp_path / "layer.geojson")
    write_geojson(ds, p, epsg=31370)
    info = layer_info(read_layer(p), crs_epsg=geojson_crs(p))
    assert info.featurecount == 7
    assert info.crs is not None and info.crs.epsg == 31370
    assert "naam" in info.columns and "v" in info.columns
    assert info.total_bounds[0] <= 0.0 and info.total_bounds[2] >= 6.0


# ---------------------------------------------------------------- property

from hypothesis import given, settings
from hypothesis import strategies as st

_coord = st.integers(min_value=-1000, max_value=1000).map(float)
_pt = st.tuples(_coord, _coord)


def _ring_of(pts):
    # a closed CCW-ish ring from ≥3 distinct points sorted around the mean
    import math

    uniq = sorted(set(pts))
    if len(uniq) < 3:
        return None
    cx = sum(p[0] for p in uniq) / len(uniq)
    cy = sum(p[1] for p in uniq) / len(uniq)
    ordered = sorted(uniq, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    return [list(p) for p in ordered] + [list(ordered[0])]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            _pt.map(lambda p: {"type": "Point", "coordinates": list(p)}),
            st.lists(_pt, min_size=2, max_size=6, unique=True).map(
                lambda ps: {"type": "LineString",
                            "coordinates": [list(p) for p in ps]}
            ),
            st.lists(_pt, min_size=3, max_size=8, unique=True).map(
                lambda ps: (
                    {"type": "Polygon", "coordinates": [r]}
                    if (r := _ring_of(ps)) is not None
                    else {"type": "Point", "coordinates": list(ps[0])}
                )
            ),
            st.none(),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_geojson_codec_property_roundtrip(geoms):
    """from_geojson → to_geojson is the identity on normalized GeoJSON,
    and agrees with the WKB codec (encode→decode→to_geojson) — three
    codecs, one geometry model."""
    ga = from_geojson(geoms)
    out = to_geojson(ga)
    assert out == geoms
    ga2 = from_wkb(pa.array(to_wkb(ga), pa.binary()))
    assert to_geojson(ga2) == geoms
