"""ST_* scalar surface (stages/sqlfuncs.py): the DuckDB UDFs must agree
with the geometry kernels they wrap, through both the raw connection
and the Ray `select` stage."""

import struct

import numpy as np
import pyarrow as pa


def _rect_wkb(x0, y0, x1, y1):
    pts = [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]
    b = struct.pack("<BI", 1, 3) + struct.pack("<I", 1)
    b += struct.pack("<I", len(pts))
    for x, y in pts:
        b += struct.pack("<dd", x, y)
    return b


def test_st_udfs_match_kernels_and_handle_nulls():
    import duckdb

    from geofileops_ray.geom import from_wkb
    from geofileops_ray.geom import measure as meas
    from geofileops_ray.stages.sqlfuncs import register_st_functions

    rows = [_rect_wkb(0, 0, 2, 3), _rect_wkb(1, 1, 4, 5), None,
            _rect_wkb(-2, -2, -1, 0)]
    t = pa.table({"geometry": pa.array(rows, pa.binary()),
                  "d": pa.array([1.0, 2.0, 1.0, 1.0])})
    con = register_st_functions(register_st_functions(duckdb.connect()))
    con.register("batch", t)
    r = con.execute(
        "SELECT st_area(geometry) a, st_perimeter(geometry) p,"
        " st_npoints(geometry) n, st_minx(geometry) mnx,"
        " st_centroid_x(geometry) cx, st_isvalid(geometry) v,"
        " st_isempty(geometry) ie,"
        " st_area(st_buffer(geometry, d)) ba,"
        " st_area(st_convexhull(geometry)) ch,"
        " st_intersects(geometry, geometry) ii,"
        " st_distance(geometry, geometry) dd FROM batch"
    ).arrow()
    ga = from_wkb(pa.array([w for w in rows if w is not None], pa.binary()))
    want_a = meas.area(ga)
    got_a = r.column("a").to_pylist()
    assert got_a[2] is None  # null WKB → null out, everywhere
    assert np.allclose([got_a[0], got_a[1], got_a[3]], want_a)
    assert r.column("n").to_pylist() == [5, 5, None, 5]
    assert r.column("v").to_pylist() == [True, True, None, True]
    assert r.column("ii").to_pylist() == [True, True, None, True]
    # st_buffer evaluates per DISTINCT distance (two groups here) and
    # scatters back to row order: each buffered area strictly grows
    # with its own rect + distance
    ba = r.column("ba").to_pylist()
    assert ba[2] is None and all(
        b > a for a, b in [(got_a[0], ba[0]), (got_a[1], ba[1])]
    )


def test_select_stage_with_st_functions(ray_session):
    """The `select` Ray stage exposes the ST surface (registered once
    per worker process); rect parcels give closed-form answers."""
    from geofileops_ray.io.synth import parcels_dataset
    from geofileops_ray.stages import single_layer as sl

    sf = "/root/testdata/sf0.001"
    out = pa.Table.from_pylist(
        sl.select(
            parcels_dataset(sf),
            "SELECT doc_id, st_area(geometry) AS a,"
            " st_npoints(geometry) AS n,"
            " (st_maxx(geometry) - st_minx(geometry))"
            " * (st_maxy(geometry) - st_miny(geometry)) AS bbox_area"
            " FROM batch",
        ).take_all()
    ).sort_by("doc_id")
    ref = pa.Table.from_pylist(
        parcels_dataset(sf).take_all()
    ).sort_by("doc_id")
    # rect parcels: st_area == OPPERVL == bbox area, 5-point rings
    assert np.allclose(
        np.asarray(out.column("a")), np.asarray(ref.column("OPPERVL"))
    )
    assert np.allclose(
        np.asarray(out.column("bbox_area")), np.asarray(out.column("a"))
    )
    assert set(out.column("n").to_pylist()) == {5}


def test_wkt_codec_roundtrip_and_errors():
    """geom/wkt.py: parse/emit round-trip across all types, WKB parity,
    null/empty rows, Z/M and malformed inputs rejected."""
    import numpy as np
    import pyarrow as pa

    from geofileops_ray.geom import from_wkb
    from geofileops_ray.geom.wkb import to_wkb
    from geofileops_ray.geom.wkt import WktError, from_wkt, to_wkt

    wkts = [
        "POINT (1 2)",
        "LINESTRING (0 0, 1 1, 2 0)",
        "POLYGON ((0 0, 4 0, 4 3, 0 3, 0 0))",
        "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0),"
        " (2 2, 4 2, 4 4, 2 4, 2 2))",
        "MULTIPOINT ((1 2), (3 4))",
        "MULTIPOINT (1 2, 3 4)",  # bare-pair variant normalizes
        "MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))",
        "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)),"
        " ((5 5, 6 5, 6 6, 5 6, 5 5)))",
        "GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, 1 1))",
        "POLYGON EMPTY",
        None,
        "point(1.5 -2.25)",  # case-insensitive, fractional coords
    ]
    ga = from_wkt(wkts)
    txt = to_wkt(ga)
    assert txt[-2] is None and txt[-1] == "POINT (1.5 -2.25)"
    assert txt[4] == txt[5]  # both MULTIPOINT spellings normalize
    ga2 = from_wkt(txt)
    assert (ga.types == ga2.types).all()
    assert np.allclose(ga.coords, ga2.coords)
    # parity with the WKB codec
    ga3 = from_wkb(pa.array(to_wkb(ga), pa.binary()))
    assert np.allclose(ga.coords, ga3.coords)

    import pytest

    for bad in ("POINT Z (1 2 3)", "FOO (1 2)", "POLYGON ((0 0, 1 1))",
                "LINESTRING (1 1)"):
        with pytest.raises(WktError):
            from_wkt([bad])


def test_st_wkt_udfs():
    """st_astext / st_geomfromtext through DuckDB: text round-trips to
    the same geometry."""
    import duckdb
    import pyarrow as pa

    from geofileops_ray.stages.sqlfuncs import register_st_functions

    t = pa.table(
        {"geometry": pa.array([_rect_wkb(0, 0, 2, 3), None], pa.binary())}
    )
    con = register_st_functions(duckdb.connect())
    con.register("batch", t)
    r = con.execute(
        "SELECT st_astext(geometry) w,"
        " st_area(st_geomfromtext(st_astext(geometry))) a,"
        " st_astext(st_geomfromtext('POINT (7 8)')) p FROM batch"
    ).arrow()
    assert r.column("w").to_pylist() == [
        "POLYGON ((0 0, 2 0, 2 3, 0 3, 0 0))", None]
    assert r.column("a").to_pylist() == [6.0, None]
    assert r.column("p").to_pylist()[0] == "POINT (7 8)"


def test_st_relationship_and_precision_udfs():
    """Second ST tranche: pair predicates, DE-9IM, validity reason,
    collection extract, precision reduce, repeated-point removal."""
    import duckdb
    import pyarrow as pa

    from geofileops_ray.stages.sqlfuncs import register_st_functions

    a = _rect_wkb(0, 0, 4, 4)
    t = pa.table(
        {
            "g1": pa.array([a, a, a, a], pa.binary()),
            "g2": pa.array(
                [_rect_wkb(1, 1, 2, 2), _rect_wkb(4, 0, 6, 4),
                 _rect_wkb(10, 10, 12, 12), a],
                pa.binary(),
            ),
        }
    )
    con = register_st_functions(duckdb.connect())
    con.register("b", t)
    r = con.execute(
        "SELECT st_contains(g1,g2) c, st_within(g2,g1) w,"
        " st_touches(g1,g2) tch, st_equals(g1,g2) eq,"
        " st_relate(g1,g2) rel, st_isvalidreason(g1) vr,"
        " st_astext(st_removerepeatedpoints(st_geomfromtext("
        "'LINESTRING (0 0, 0 0, 1 1, 1 1, 2 2)'))) rr,"
        " st_astext(st_reduceprecision(st_geomfromtext("
        "'POINT (1.24 7.76)'), 0.5)) rp FROM b"
    ).arrow().to_pylist()
    assert [x["c"] for x in r] == [True, False, False, True]
    assert [x["w"] for x in r] == [True, False, False, True]
    assert [x["tch"] for x in r] == [False, True, False, False]
    assert [x["eq"] for x in r] == [False, False, False, True]
    # canonical DE-9IM matrices: contains / touches / disjoint / equals
    assert [x["rel"] for x in r] == [
        "212FF1FF2", "FF2F11212", "FF2FF1212", "2FFF1FFF2"]
    assert r[0]["vr"] == "Valid Geometry"
    assert r[0]["rr"] == "LINESTRING (0 0, 1 1, 2 2)"
    assert r[0]["rp"] == "POINT (1 8)"


def test_where_post_with_st_functions(ray_session):
    """where_post SQL can reference ST functions (run_sql_on_batch
    registers them lazily when the SQL mentions st_)."""
    import numpy as np

    from geofileops_ray.io.synth import parcels_dataset
    from geofileops_ray.stages import single_layer as sl

    sf = "/root/testdata/sf0.001"
    base = pa.Table.from_pylist(parcels_dataset(sf).take_all())
    areas = np.asarray(base.column("OPPERVL"))
    cut = float(np.median(areas))
    out = pa.Table.from_pylist(
        sl.buffer(
            parcels_dataset(sf), 0.0,
            where_post=f"st_area(geometry) > {cut}",
        ).take_all()
    )
    assert out.num_rows == int((areas > cut).sum())
    assert np.asarray(out.column("OPPERVL")).min() > cut


def test_st_param_null_semantics():
    """NULL parameter → NULL output row (SQL scalar semantics) without
    disturbing neighbouring rows."""
    import duckdb
    import pyarrow as pa

    from geofileops_ray.stages.sqlfuncs import register_st_functions

    t = pa.table(
        {
            "g": pa.array(
                [_rect_wkb(0, 0, 2, 3), _rect_wkb(0, 0, 1, 1), None],
                pa.binary(),
            ),
            "d": pa.array([1.0, None, 1.0], pa.float64()),
        }
    )
    con = register_st_functions(duckdb.connect())
    con.register("b", t)
    r = con.execute(
        "SELECT st_area(st_buffer(g, d)) a, st_npoints(g) n FROM b"
    ).arrow()
    assert r.column("a").to_pylist()[1] is None
    assert r.column("a").to_pylist()[2] is None
    assert r.column("a").to_pylist()[0] is not None
    assert r.column("n").to_pylist() == [5, 5, None]


def test_select_two_layers_with_st_functions(ray_session):
    """select_two_layers' per-cell connection registers ST functions
    when the SQL mentions them (a fresh connection per cell, distinct
    from select's per-process connection)."""
    from geofileops_ray.io.synth import parcels_dataset, zones_dataset
    from geofileops_ray.stages.compound import select_two_layers

    sf = "/root/testdata/sf0.001"
    out = pa.Table.from_pylist(
        select_two_layers(
            parcels_dataset(sf), zones_dataset(sf),
            "SELECT count(*) AS n, ROUND(SUM(st_area(geometry)), 4) AS a"
            " FROM layer1",
        ).take_all()
    )
    assert out.num_rows >= 1
    assert sum(r for r in out.column("n").to_pylist()) >= 500
    assert all(a is None or a >= 0 for a in out.column("a").to_pylist())


def test_st_scalar_overlays():
    """st_intersection/difference/union/symmetric_difference as scalar
    pair functions — closed-form areas on rect pairs, EMPTY on disjoint
    intersection, and inclusion–exclusion consistency."""
    import duckdb
    import pyarrow as pa

    from geofileops_ray.stages.sqlfuncs import register_st_functions

    a = _rect_wkb(0, 0, 4, 4)
    t = pa.table(
        {
            "g1": pa.array([a, a, a], pa.binary()),
            "g2": pa.array(
                [_rect_wkb(2, 2, 6, 6), _rect_wkb(10, 10, 11, 11), a],
                pa.binary(),
            ),
        }
    )
    con = register_st_functions(duckdb.connect())
    con.register("b", t)
    r = con.execute(
        "SELECT st_area(st_intersection(g1,g2)) i,"
        " st_area(st_difference(g1,g2)) d,"
        " st_area(st_union(g1,g2)) u,"
        " st_area(st_symmetric_difference(g1,g2)) s,"
        " st_astext(st_intersection(g1,g2)) it FROM b"
    ).arrow().to_pylist()
    assert [x["i"] for x in r] == [4.0, 0.0, 16.0]
    assert [x["d"] for x in r] == [12.0, 16.0, 0.0]
    assert [x["u"] for x in r] == [28.0, 17.0, 16.0]
    assert [x["s"] for x in r] == [24.0, 17.0, 0.0]
    assert r[1]["it"] == "POLYGON EMPTY"
    # u = i + s and u = a1 + a2 - i on every row
    for x in r:
        assert abs(x["u"] - (x["i"] + x["s"])) < 1e-9


def test_st_linemerge_and_casttoxy():
    """st_linemerge chains degree-2 endpoint joins (direction
    unspecified, like GEOS), never merges through branch points, closes
    loops, and passes non-lines through; casttoxy is the documented 2D
    identity."""
    import duckdb

    from geofileops_ray.stages.sqlfuncs import register_st_functions

    con = register_st_functions(duckdb.connect())

    def lm(wkt):
        return con.execute(
            f"SELECT st_astext(st_linemerge(st_geomfromtext('{wkt}')))"
        ).fetchall()[0][0]

    assert lm("MULTILINESTRING ((0 0, 1 1), (1 1, 2 2))") in (
        "LINESTRING (0 0, 1 1, 2 2)", "LINESTRING (2 2, 1 1, 0 0)")
    assert lm("MULTILINESTRING ((1 1, 0 0), (1 1, 2 2))") in (
        "LINESTRING (0 0, 1 1, 2 2)", "LINESTRING (2 2, 1 1, 0 0)")
    # three-way branch point: nothing merges
    assert lm(
        "MULTILINESTRING ((0 0, 1 1), (1 1, 2 2), (1 1, 2 0))"
    ) == "MULTILINESTRING ((0 0, 1 1), (1 1, 2 2), (1 1, 2 0))"
    assert lm(
        "MULTILINESTRING ((0 0, 1 0), (1 0, 2 0), (2 0, 3 0), (9 9, 9 8))"
    ) in (
        "MULTILINESTRING ((0 0, 1 0, 2 0, 3 0), (9 9, 9 8))",
        "MULTILINESTRING ((3 0, 2 0, 1 0, 0 0), (9 9, 9 8))",
    )
    # closed loop merges into one closed linestring
    out = lm("MULTILINESTRING ((0 0, 1 0), (1 0, 1 1), (1 1, 0 0))")
    assert out.startswith("LINESTRING") and out.count(",") == 3
    assert lm("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))").startswith("POLYGON")
    got = con.execute(
        "SELECT st_astext(casttoxy(st_geomfromtext('POINT (1 2)')))"
    ).fetchall()[0][0]
    assert got == "POINT (1 2)"
