"""Regression tests for the round-3 ADVICE findings: NULL group keys
must form their own group (SQL GROUP BY semantics) through every
run-boundary code path, empty/all-null aggregate blocks must keep the
source-derived schema, and Lance reads must not silently drop a bbox."""

import numpy as np
import pyarrow as pa
import pytest


def _squares(xs, size=1.0):
    from geofileops_ray.io.synth import rect_wkb

    xs = np.asarray(xs, dtype=np.float64)
    return rect_wkb(xs, np.zeros_like(xs), xs + size, np.full_like(xs, size))


def _wkb_line(coords):
    import struct

    return (
        b"\x01\x02\x00\x00\x00"
        + struct.pack("<I", len(coords))
        + b"".join(struct.pack("<dd", *c) for c in coords)
    )


def test_dissolve_polygons_null_group_key(ray_session):
    """A NULL group key is its own dissolve group — previously the
    null-key run (sorted to the end) merged into the preceding key's
    group (pc.not_equal(x, null) -> null -> False boundary), and the
    per-cell union crashed sorting None against str."""
    import ray.data

    from geofileops_ray.stages.dissolve import dissolve

    t = pa.table(
        {
            "k": pa.array(["a", None, "b", "a", None], pa.string()),
            "v": pa.array([1.0, 1.0, 1.0, 1.0, 1.0]),
            "geometry": _squares([0.0, 10.0, 20.0, 1.0, 11.0]),
        }
    )
    res = dissolve(
        ray.data.from_arrow(t),
        groupby=["k"],
        agg_columns=[("v", "sum", "sv")],
    ).take_all()
    got = {r["k"]: r["sv"] for r in res}
    assert got == {"a": 2.0, "b": 1.0, None: 2.0}


def test_dissolve_lines_null_group_key_and_agg_types(ray_session):
    """Line dissolve on a nullable key: the NULL group must appear, and
    min/max aggregates must keep the SOURCE column's value domain
    (string stays string, int stays int64) even when a group's values
    are all NULL — the empty/all-null branches previously inferred
    float64 / pa.null() and produced divergent block schemas."""
    import ray.data

    from geofileops_ray.stages.dissolve import dissolve
    from geofileops_ray.util import collect

    t = pa.table(
        {
            "k": pa.array(["a", "a", None, "b"], pa.string()),
            "s": pa.array(["zz", "aa", None, None], pa.string()),
            "i": pa.array([7, 3, 5, None], pa.int64()),
            "geometry": pa.array(
                [
                    _wkb_line([(0, 0), (1, 0)]),
                    _wkb_line([(5, 0), (6, 0)]),
                    _wkb_line([(10, 0), (11, 0)]),
                    _wkb_line([(20, 0), (21, 0)]),
                ],
                pa.binary(),
            ),
        }
    )
    # far more blocks than rows: forces empty blocks through the stage
    ds = ray.data.from_arrow(t).repartition(8)
    out = collect(
        dissolve(
            ds,
            groupby=["k"],
            agg_columns=[
                ("s", "min", "mn_s"),
                ("i", "min", "mn_i"),
                ("i", "count", "n"),
            ],
        )
    )
    assert out.schema.field("mn_s").type == pa.string()
    assert out.schema.field("mn_i").type == pa.int64()
    rows = {r["k"]: r for r in out.to_pylist()}
    assert set(rows) == {"a", "b", None}
    assert rows["a"]["mn_s"] == "aa" and rows["a"]["mn_i"] == 3
    assert rows[None]["mn_s"] is None and rows[None]["mn_i"] == 5
    assert rows["b"]["mn_s"] is None and rows["b"]["mn_i"] is None
    assert rows["b"]["n"] == 0  # SQL COUNT(col) ignores NULL


def test_bucket_aggregate_null_keys_match_duckdb(ray_session, oracle):
    """bucket_aggregate must emit ONE group for the NULL key (numpy
    NaN != NaN previously split every null-key row into its own run)."""
    import ray.data

    from geofileops_ray.stages.agg import bucket_aggregate

    t = pa.table(
        {
            "k": pa.array([1, None, 2, None, 1, None], pa.int64()),
            "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        }
    )
    out = pa.Table.from_pylist(
        bucket_aggregate(
            ray.data.from_arrow(t).repartition(3),
            ["k"],
            [("v", "sum", "sv"), ("v", "count", "n")],
        ).take_all()
    ).sort_by([("k", "ascending")])
    want = oracle.execute(
        "SELECT k, SUM(v) sv, COUNT(*) n FROM t GROUP BY 1 ORDER BY 1 NULLS LAST"
    ).arrow()
    assert out.column("k").to_pylist() == want.column("k").to_pylist()
    assert out.column("sv").to_pylist() == want.column("sv").to_pylist()
    assert out.column("n").to_pylist() == want.column("n").to_pylist()


def test_run_change_mask_null_aware():
    from geofileops_ray.stages.agg import run_change_mask

    srt = pa.table(
        {"k": pa.array(["a", "a", "b", None, None], pa.string())}
    )
    assert list(run_change_mask(srt, ["k"])) == [
        True, False, True, True, False,
    ]
    # nullable int sorts nulls last too; boundary at value->null only
    srt2 = pa.table({"k": pa.array([3, 3, None, None], pa.int64())})
    assert list(run_change_mask(srt2, ["k"])) == [True, False, True, False]


def test_read_layer_lance_bbox_pushdown(tmp_path):
    """bbox on a Lance layer is a REAL filter passthrough now
    (read_lance's SQL-string filter over the bbox stats columns). In
    this pylance-less sandbox the read itself raises the clear
    ImportError — never the old NotImplementedError refusal, and never
    silently-unfiltered rows. The filter string itself is pinned."""
    from geofileops_ray.io.readwrite import bbox_filter_sql, read_layer

    assert bbox_filter_sql((0.0, 1.0, 2.0, 3.0)) == (
        "minx <= 2.0 AND maxx >= 0.0 AND miny <= 3.0 AND maxy >= 1.0"
    )
    try:
        import lance  # noqa: F401

        have_lance = True
    except ImportError:
        have_lance = False
    if not have_lance:
        with pytest.raises(ImportError, match="pylance"):
            read_layer(
                str(tmp_path / "layer.lance"), bbox=(0.0, 0.0, 1.0, 1.0)
            )


def test_layerstyles_single_file_store_no_phantom_layer(tmp_path):
    """A single-file store's style sidecar (<store>.parquet.styles.parquet)
    must not surface as a layer or break get_only_layer."""
    import pyarrow.parquet as pq

    from geofileops_ray.stages.catalog import (
        add_layerstyle,
        get_layerstyles,
        get_only_layer,
        listlayers,
    )

    store = tmp_path / "roads.parquet"
    pq.write_table(pa.table({"a": [1]}), store)
    add_layerstyle(str(store), "roads", "s1", qml="<qml/>")
    assert listlayers(str(tmp_path)) == ["roads"]
    assert get_only_layer(str(tmp_path)) == "roads"
    assert len(get_layerstyles(str(store))) == 1


def test_dissolve_binary_minmax_agg(ray_session):
    """min/max over a binary source column keeps the binary domain (the
    float64 fallback crashed every non-empty block)."""
    import ray.data

    from geofileops_ray.stages.dissolve import _agg_out_type, dissolve

    assert _agg_out_type(pa.binary(), "min") == pa.binary()

    import struct

    def wkb_line(coords):
        return (
            b"\x01\x02\x00\x00\x00"
            + struct.pack("<I", len(coords))
            + b"".join(struct.pack("<dd", *c) for c in coords)
        )

    t = pa.table(
        {
            "k": pa.array(["a", "a", "b"], pa.string()),
            "blob": pa.array([b"x2", b"x1", None], pa.binary()),
            "geometry": pa.array(
                [wkb_line([(i, 0), (i + 1, 0)]) for i in (0, 5, 10)],
                pa.binary(),
            ),
        }
    )
    out = {
        r["k"]: r["mn"]
        for r in dissolve(
            ray.data.from_arrow(t),
            groupby=["k"],
            agg_columns=[("blob", "min", "mn")],
        ).take_all()
    }
    assert out == {"a": b"x1", "b": None}


def test_read_layer_rows_empty_window_keeps_schema(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from geofileops_ray.io.readwrite import read_layer

    pq.write_table(
        pa.table({"a": pa.array([1, 2], pa.int64()), "b": pa.array(["x", "y"])}),
        tmp_path / "l.parquet",
    )
    ds = read_layer(str(tmp_path / "l.parquet"), where="a > 100", rows=slice(0, 5))
    assert ds.count() == 0
    sch = ds.schema()
    assert sch is not None and set(sch.names) == {"a", "b"}


def test_unzip_geofile_ignores_non_layer_folder(tmp_path):
    """A plain folder of sidecar files must not veto the real store."""
    import os
    import zipfile

    import pyarrow.parquet as pq

    from geofileops_ray.io.readwrite import unzip_geofile, zip_geofile

    pq.write_table(pa.table({"a": [1]}), tmp_path / "roads.parquet")
    z = tmp_path / "mix.zip"
    zip_geofile(str(tmp_path / "roads.parquet"), str(z))
    # append a non-layer folder entry
    with zipfile.ZipFile(z, "a") as zf:
        zf.writestr("meta/info.txt", "hello")
    out = unzip_geofile(str(z), str(tmp_path / "restored"))
    assert out.endswith("roads.parquet")
    assert os.path.exists(out)


def test_apply_row_mode(ray_session, oracle):
    """apply(only_geom_input=False): the UDF sees the full row (attrs +
    geometry slice) — reference geoops.apply row mode. Scale each
    rectangle by its own attribute; closed-form area check vs SQL."""
    import ray.data

    from geofileops_ray.io.synth import PARCELS_CTE, parcels_dataset
    from geofileops_ray.stages.single_layer import apply as gfo_apply

    SF = "/root/testdata/sf0.001"

    def row_func(row):
        ga = row["geometry"]
        f = 1.0 + (row["doc_id"] % 3)  # attribute-dependent transform
        import numpy as np

        out = ga.copy() if hasattr(ga, "copy") else ga
        # scale coords about the origin by f
        out = ga.take(np.array([0]))
        out.coords[:] = out.coords * f
        return out

    res = gfo_apply(parcels_dataset(SF).limit(60), row_func,
                    only_geom_input=False).take_all()
    from geofileops_ray.geom import from_wkb
    from geofileops_ray.geom.measure import area

    got = sorted(
        (r["doc_id"], round(float(area(from_wkb([r["geometry"]]))[0]), 6))
        for r in res
    )
    want = [
        (r[0], round(r[1], 6))
        for r in oracle.execute(
            f"""WITH {PARCELS_CTE.strip()}
            SELECT doc_id,
                   (maxx - minx) * (maxy - miny)
                   * POWER(1.0 + doc_id % 3, 2) AS a
            FROM parcels ORDER BY doc_id LIMIT 60"""
        ).fetchall()
    ]
    assert got == want
