"""Auto-subdivide in two-layer ops (reference complexpoly benchmarks,
_geoops_sql.py:1893-1929) + the sliver filter (_get_sliver_where)."""

import numpy as np
import pyarrow as pa
import pytest
from conftest import SF_DIR


def _circle_poly(cx, cy, r, n):
    ang = np.linspace(0, 2 * np.pi, n, endpoint=False)
    ring = np.stack([cx + r * np.cos(ang), cy + r * np.sin(ang)], axis=1)
    return np.concatenate([ring, ring[:1]])


def _ds(rows):
    import ray.data

    from geofileops_ray.geom import GeometryArray, to_wkb

    ga = GeometryArray.from_parts([(3, [[ring]]) for _i, ring in rows])
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([i for i, _r in rows], pa.int64()),
                "geometry": pa.array(to_wkb(ga), pa.binary()),
            }
        )
    )


@pytest.fixture(scope="module")
def complex_layer(ray_session):
    # 2 huge polygons (12k coords each) — over the 2000-coord trigger
    return _ds([(100, _circle_poly(50, 50, 45, 12000)),
                (101, _circle_poly(160, 50, 40, 12000))])


def test_export_by_location_subdivides(ray_session, complex_layer):
    from geofileops_ray.io.synth import parcels_dataset
    from geofileops_ray.stages.overlay_ops import _max_coords_estimate
    from geofileops_ray.stages.spatial_join import export_by_location

    assert _max_coords_estimate(complex_layer) > 2000
    p = parcels_dataset("/root/testdata/sf0.001")
    got = sorted(
        r["l1_doc_id"]
        for r in export_by_location(p, complex_layer, "intersects is True").take_all()
    )
    assert len(got) > 0
    # ground truth: centroid-circle distance math on the rect parcels is
    # complex; instead compare against the generic join (no subdivision
    # on the join path)
    from geofileops_ray.stages.spatial_join import join_by_location

    want = sorted(
        {r["l1_doc_id"] for r in join_by_location(
            p, complex_layer, "intersects is True", cols1=[], cols2=[]
        ).take_all()}
    )
    assert got == want


def test_difference_subdivided_matches_unsubdivided(ray_session, complex_layer):
    from geofileops_ray.geom import from_wkb
    from geofileops_ray.geom.measure import area
    from geofileops_ray.io.synth import parcels_dataset
    from geofileops_ray.stages.overlay_ops import difference

    p = parcels_dataset("/root/testdata/sf0.001")

    def areas(ds):
        rows = ds.take_all()
        ga = from_wkb([r["geometry"] for r in rows])
        return {r["l1_doc_id"]: round(float(a), 6) for r, a in zip(rows, area(ga))}

    got = areas(difference(p, complex_layer, cols1=[]))          # triggers subdivide
    want = areas(difference(p, complex_layer, cols1=[], subdivide_coords=10**9))
    assert got == want


def test_sliver_filter(ray_session):
    from geofileops_ray.geom import GeometryArray
    from geofileops_ray.stages.overlay_ops import _sliver_keep_mask

    fat = np.array([[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]], float)
    thin = np.array([[0, 0], [10, 0], [10, 0.0004], [0, 0.0004], [0, 0]], float)
    ga = GeometryArray.from_parts([(3, [[fat]]), (3, [[thin]])])
    keep = _sliver_keep_mask(ga, 0.001)
    assert keep.tolist() == [True, False]
    only_slivers = _sliver_keep_mask(ga, -0.001)
    assert only_slivers.tolist() == [False, True]


@pytest.fixture(params=["broadcast", "cell"])
def overlay_path(request, monkeypatch):
    """The broadcast path subdivides the collected layer2 on the driver
    and layer1 rows inside each task; the cell path (broadcast_bytes=0)
    probes both layers and subdivides them as stages."""
    if request.param == "cell":
        from geofileops_ray.config import OPTIONS

        monkeypatch.setattr(OPTIONS, "broadcast_bytes", 0)
    return request.param


def _pair_areas(ds):
    from geofileops_ray.geom import from_wkb
    from geofileops_ray.geom.measure import area

    rows = ds.take_all()
    ga = from_wkb([r["geometry"] for r in rows])
    out = {}
    for r, a in zip(rows, area(ga)):
        key = (r["l1_doc_id"], r.get("l2_doc_id"))
        assert key not in out, f"pair {key} emitted twice"
        out[key] = float(a)
    return out


def _assert_same_areas(got, want):
    assert sorted(got) == sorted(want)
    for k, a in want.items():
        assert abs(got[k] - a) <= 1e-6 * max(abs(a), 1.0), (k, got[k], a)


def test_intersection_subdivided_matches_unsubdivided(
    ray_session, complex_layer, overlay_path
):
    """Both layers over a lowered subdivide limit: the pieces are
    re-unioned per (l1, l2) pair, so the pairs and their areas equal the
    unsubdivided answer."""
    from geofileops_ray.io.synth import parcels_dataset
    from geofileops_ray.stages.overlay_ops import intersection

    p = parcels_dataset(SF_DIR).materialize()
    for a, b in ((p, complex_layer), (complex_layer, p)):
        got = _pair_areas(intersection(a, b, cols1=[], cols2=[], subdivide_coords=2000))
        want = _pair_areas(intersection(a, b, cols1=[], cols2=[], subdivide_coords=10**9))
        assert len(want) > 0
        _assert_same_areas(got, want)


def test_difference_and_export_subdivided_on_both_paths(
    ray_session, complex_layer, overlay_path, monkeypatch
):
    from geofileops_ray.io.synth import parcels_dataset
    from geofileops_ray.stages import overlay_ops
    from geofileops_ray.stages.overlay_ops import difference
    from geofileops_ray.stages.spatial_join import export_by_location

    p = parcels_dataset(SF_DIR).materialize()
    got = _pair_areas(difference(p, complex_layer, cols1=[]))
    want = _pair_areas(difference(p, complex_layer, cols1=[], subdivide_coords=10**9))
    _assert_same_areas(got, want)

    def kept():
        return sorted(
            r["l1_doc_id"]
            for r in export_by_location(p, complex_layer, "intersects is True").take_all()
        )

    got_ids = kept()
    monkeypatch.setattr(overlay_ops, "_SUBDIVIDE_DIFFERENCE", 10**9)
    assert got_ids == kept() and len(got_ids) > 0


def test_subdivide_table_matches_batch_kernel(ray_session):
    """The parallel split of a collected table gives the serial batch
    kernel's rows, in its order; a table with no row over the limit is
    returned as is."""
    from geofileops_ray.stages.catalog import subdivide_rows, subdivide_table
    from geofileops_ray.util import collect

    rows = [(1, _circle_poly(0, 0, 5, 40)), (2, _circle_poly(50, 50, 45, 3000)),
            (3, _circle_poly(9, 9, 2, 30)), (4, _circle_poly(160, 50, 40, 2500))]
    t = collect(_ds(rows))
    assert subdivide_table(t, 10**9) is t
    got = subdivide_table(t, 1000)
    want = subdivide_rows(t, 1000)[0]
    assert len(got) > len(t)
    assert got.equals(want)


def test_broadcast_pieces_over_cap_take_cell_path(ray_session, complex_layer, monkeypatch):
    """The broadcast cap also bounds the split layer2: when its pieces
    outgrow it, the cell shuffle is chosen."""
    from geofileops_ray.config import OPTIONS
    from geofileops_ray.stages.spatial_join import _broadcast_side, _prefixed_schema

    f2 = _prefixed_schema(complex_layer.schema().base_schema, "l2_", ["doc_id", "geometry"])
    whole = _broadcast_side(complex_layer, f2)
    pieces = _broadcast_side(complex_layer, f2, subdivide=2000)
    assert len(pieces) > len(whole) and pieces.nbytes > whole.nbytes
    monkeypatch.setattr(OPTIONS, "broadcast_bytes", whole.nbytes)
    assert _broadcast_side(complex_layer, f2, subdivide=2000) is None
    assert len(_broadcast_side(complex_layer, f2, True, 2000)) == len(pieces)
