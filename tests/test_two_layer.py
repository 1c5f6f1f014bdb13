"""Two-layer operator tests vs DuckDB oracles on the SQL-mirrorable
synthetic layers (io/synth.py) — the engine-side analogue of the
reference's GeoPandas-oracle golden tests
(tests/multi_layer_operations/test_geofileops_twolayers.py)."""

import numpy as np
import pytest

from geofileops_ray.geom import from_wkb
from geofileops_ray.geom.measure import area
from geofileops_ray.io.synth import (
    PARCELS_CTE,
    POINTS_CTE,
    ZONES_CTE,
    parcels_dataset,
    points_dataset,
    zones_dataset,
)
from geofileops_ray.stages.knn import join_nearest
from geofileops_ray.stages.overlay_ops import (
    clip,
    difference,
    intersection,
    union,
)
from geofileops_ray.stages.spatial_join import (
    delete_duplicate_geometries,
    export_by_distance,
    export_by_location,
    join_by_location,
)

SF = "/root/testdata/sf0.001"
CTE = f"WITH {PARCELS_CTE.strip()}, {ZONES_CTE.strip()}, {POINTS_CTE.strip()}"
BBOX_ON = (
    "p.minx <= z.maxx AND p.maxx >= z.minx AND p.miny <= z.maxy AND p.maxy >= z.miny"
)
OVER_ON = (
    "p.minx < z.maxx AND p.maxx > z.minx AND p.miny < z.maxy AND p.maxy > z.miny"
)
OVERLAP_AREA = (
    "(LEAST(p.maxx,z.maxx)-GREATEST(p.minx,z.minx))"
    "*(LEAST(p.maxy,z.maxy)-GREATEST(p.miny,z.miny))"
)


@pytest.fixture(params=["auto", "shuffle"])
def join_path(request, monkeypatch):
    """Run the core two-layer oracle tests over BOTH execution paths:
    the auto-picked broadcast (small layer2 → ray.put once, no shuffle)
    and the forced cell co-shuffle (broadcast_bytes=0). Small fixtures
    would otherwise always take the broadcast path and the general
    shuffle harness would lose oracle coverage."""
    if request.param == "shuffle":
        from geofileops_ray.config import OPTIONS

        monkeypatch.setattr(OPTIONS, "broadcast_bytes", 0)
    return request.param


def test_join_by_location_intersects(ray_session, oracle, join_path):
    res = join_by_location(
        parcels_dataset(SF), zones_dataset(SF), "intersects is True",
        cols1=["OIDN"], cols2=["naam"],
    ).take_all()
    got = sorted((r["l1_doc_id"], r["l2_doc_id"]) for r in res)
    want = [
        tuple(r)
        for r in oracle.execute(
            f"{CTE} SELECT p.doc_id, z.doc_id FROM parcels p JOIN zones z"
            f" ON {BBOX_ON} ORDER BY 1,2"
        ).fetchall()
    ]
    assert got == want


def test_join_by_location_within(ray_session, oracle):
    res = join_by_location(
        parcels_dataset(SF), zones_dataset(SF), "within is True",
        cols1=[], cols2=[],
    ).take_all()
    got = sorted((r["l1_doc_id"], r["l2_doc_id"]) for r in res)
    want = [
        tuple(r)
        for r in oracle.execute(
            f"{CTE} SELECT p.doc_id, z.doc_id FROM parcels p JOIN zones z ON"
            " p.minx >= z.minx AND p.maxx <= z.maxx AND p.miny >= z.miny"
            " AND p.maxy <= z.maxy AND (p.minx > z.minx OR p.maxx < z.maxx"
            " OR p.miny > z.miny OR p.maxy < z.maxy OR TRUE) ORDER BY 1,2"
        ).fetchall()
    ]
    assert got == want


def test_export_by_location_semi_and_anti(ray_session, oracle, join_path):
    semi = export_by_location(
        parcels_dataset(SF), zones_dataset(SF), "intersects is True"
    ).take_all()
    anti = export_by_location(
        parcels_dataset(SF), zones_dataset(SF), "intersects is False"
    ).take_all()
    n_semi = oracle.execute(
        f"{CTE} SELECT count(*) FROM parcels p WHERE EXISTS"
        f" (SELECT 1 FROM zones z WHERE {BBOX_ON})"
    ).fetchone()[0]
    n_anti = oracle.execute(
        f"{CTE} SELECT count(*) FROM parcels p WHERE NOT EXISTS"
        f" (SELECT 1 FROM zones z WHERE {BBOX_ON})"
    ).fetchone()[0]
    assert len(semi) == n_semi
    assert len(anti) == n_anti
    assert len(semi) + len(anti) == 500


def test_export_by_distance(ray_session, oracle, join_path):
    res = export_by_distance(
        points_dataset(SF), zones_dataset(SF), max_distance=30.0
    ).take_all()
    want = oracle.execute(
        f"""{CTE} SELECT count(*) FROM points p WHERE EXISTS (SELECT 1 FROM zones z
        WHERE SQRT(POWER(GREATEST(z.minx - p.x, p.x - z.maxx, 0),2)
                 + POWER(GREATEST(z.miny - p.y, p.y - z.maxy, 0),2)) <= 30.0)"""
    ).fetchone()[0]
    assert len(res) == want


def test_intersection_pair_areas(ray_session, oracle, join_path):
    res = intersection(
        parcels_dataset(SF), zones_dataset(SF), cols1=["OIDN"], cols2=["naam"]
    ).take_all()
    ga = from_wkb([r["geometry"] for r in res])
    got = sorted(
        (r["l1_doc_id"], r["l2_doc_id"], round(a, 9)) for r, a in zip(res, area(ga))
    )
    want = [
        (r[0], r[1], round(r[2], 9))
        for r in oracle.execute(
            f"{CTE} SELECT p.doc_id, z.doc_id, {OVERLAP_AREA} FROM parcels p"
            f" JOIN zones z ON {OVER_ON} ORDER BY 1,2"
        ).fetchall()
    ]
    assert got == want


def test_clip_and_difference_areas(ray_session, oracle, join_path):
    got_clip = clip(parcels_dataset(SF), zones_dataset(SF), cols1=["OIDN"]).take_all()
    ga = from_wkb([r["geometry"] for r in got_clip])
    got = sorted((r["l1_doc_id"], round(a, 9)) for r, a in zip(got_clip, area(ga)))
    want = [
        (r[0], round(r[1], 9))
        for r in oracle.execute(
            f"{CTE} SELECT p.doc_id, SUM({OVERLAP_AREA}) FROM parcels p JOIN"
            f" zones z ON {OVER_ON} GROUP BY 1 ORDER BY 1"
        ).fetchall()
    ]
    assert got == want

    got_diff = difference(
        parcels_dataset(SF), zones_dataset(SF), cols1=["OIDN"]
    ).take_all()
    ga = from_wkb([r["geometry"] for r in got_diff])
    got = sorted((r["l1_doc_id"], round(a, 9)) for r, a in zip(got_diff, area(ga)))
    want = [
        (r[0], round(r[1], 9))
        for r in oracle.execute(
            f"""{CTE} SELECT doc_id, a FROM (
            SELECT p.doc_id, p.OPPERVL - SUM(CASE WHEN z.doc_id IS NULL THEN 0
              ELSE {OVERLAP_AREA} END) a
            FROM parcels p LEFT JOIN zones z ON {OVER_ON}
            GROUP BY 1, p.OPPERVL) t WHERE a > 0 ORDER BY 1"""
        ).fetchall()
    ]
    assert got == want


def test_union_is_composition(ray_session, oracle, join_path):
    n_inter = oracle.execute(
        f"{CTE} SELECT count(*) FROM parcels p JOIN zones z ON {OVER_ON}"
    ).fetchone()[0]
    res = union(
        parcels_dataset(SF), zones_dataset(SF), cols1=["OIDN"], cols2=["naam"]
    ).take_all()
    # union = intersection ⊎ diff(p,z) ⊎ diff(z,p); every row has geometry
    assert len(res) > n_inter
    assert all(r["geometry"] is not None for r in res)


def test_fused_overlay_matches_composed(ray_session, join_path, monkeypatch):
    """The fused single-cogroup engine behind union / identity /
    symmetric_difference must agree geometrically (same rows, same
    attrs, same areas) with the composed 3-pass definition on both
    execution paths (broadcast and forced cell co-shuffle)."""
    import geofileops_ray.stages.overlay_ops as oo
    from geofileops_ray.stages.overlay_ops import (
        identity,
        symmetric_difference,
    )

    def canon(ds):
        rows = ds.take_all()
        ga = from_wkb([r["geometry"] for r in rows])
        areas = np.round(area(ga), 9)
        out = []
        for r, a in zip(rows, areas):
            key = {k: v for k, v in sorted(r.items()) if k != "geometry"}
            out.append((tuple(key.items()), float(a)))
        return sorted(out, key=repr)

    for fn in (union, symmetric_difference, identity):
        got = canon(
            fn(parcels_dataset(SF), zones_dataset(SF),
               cols1=["OIDN"], cols2=["naam"])
        )
        # manual save/restore: monkeypatch.undo() would also revert the
        # join_path fixture's broadcast_bytes patch (same instance)
        orig = oo._fused_eligible
        oo._fused_eligible = lambda *a: False
        try:
            want = canon(
                fn(parcels_dataset(SF), zones_dataset(SF),
                   cols1=["OIDN"], cols2=["naam"])
            )
        finally:
            oo._fused_eligible = orig
        assert got == want, f"{fn.__name__} fused != composed ({join_path})"


def test_join_nearest(ray_session, oracle):
    res = join_nearest(
        points_dataset(SF), zones_dataset(SF), nb_nearest=2,
        cols1=["naam"], cols2=["naam"],
    ).take_all()
    got = sorted((r["l1_doc_id"], r["pos"], round(r["distance"], 9)) for r in res)
    want = [
        (r[0], r[1], round(r[2], 9))
        for r in oracle.execute(
            f"""{CTE}, d AS (
            SELECT p.doc_id, ROW_NUMBER() OVER (PARTITION BY p.doc_id ORDER BY
              SQRT(POWER(GREATEST(z.minx - p.x, p.x - z.maxx, 0),2)
                 + POWER(GREATEST(z.miny - p.y, p.y - z.maxy, 0),2)), z.doc_id) pos,
              SQRT(POWER(GREATEST(z.minx - p.x, p.x - z.maxx, 0),2)
                 + POWER(GREATEST(z.miny - p.y, p.y - z.maxy, 0),2)) dist
            FROM points p CROSS JOIN zones z)
            SELECT doc_id, pos, dist FROM d WHERE pos <= 2 ORDER BY 1,2"""
        ).fetchall()
    ]
    assert got == want


def test_delete_duplicate_geometries(ray_session):
    import ray.data

    ds = points_dataset(SF)
    doubled = ds.union(ds)
    res = delete_duplicate_geometries(doubled).take_all()
    # each point unique in the layer → dedup back to 500... unless two
    # docs hash to identical coordinates; compare against distinct coords
    pts = points_dataset(SF).take_all()
    uniq = {(r["x"], r["y"]) for r in pts}
    assert len(res) == len(uniq)


def _geom_ds(rows):
    """Tiny in-memory layer from [(doc_id, (code, parts))]."""
    import pyarrow as pa
    import ray.data

    from geofileops_ray.geom import GeometryArray, to_wkb

    ga = GeometryArray.from_parts([g for _i, g in rows])
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([i for i, _g in rows], pa.int64()),
                "geometry": pa.array(to_wkb(ga), pa.binary()),
            }
        )
    )


def _rect(x0, y0, x1, y1):
    ring = np.array(
        [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], dtype=np.float64
    )
    return (3, [[ring]])


def _tri(a, b, c):
    ring = np.array([a, b, c, a], dtype=np.float64)
    return (3, [[ring]])


def test_export_by_location_disjoint_all_candidates(ray_session, join_path):
    """De-Morgan semantics for disjoint-satisfiable queries (reference
    _geoops_sql.py:2436-2445): 'intersects is False' keeps a row only if
    NO candidate intersects — not if SOME bbox candidate is disjoint."""
    # T is a bbox-candidate of R but geometrically disjoint (hypotenuse
    # x+y=22 cuts the shared bbox corner off)
    R = (1, _rect(0, 0, 10, 10))
    far = (2, _rect(100, 100, 110, 110))  # zero candidates → kept
    l1 = _geom_ds([R, far])
    T = _tri((8, 14), (14, 8), (14, 14))
    A = _rect(5, 5, 8, 8)  # intersects R

    only_disjoint = _geom_ds([(10, T)])
    res = export_by_location(l1, only_disjoint, "intersects is False").take_all()
    assert sorted(r["l1_doc_id"] for r in res) == [1, 2]

    mixed = _geom_ds([(10, T), (11, A)])
    res = export_by_location(l1, mixed, "intersects is False").take_all()
    # R has one intersecting candidate (A) → dropped even though T is a
    # disjoint bbox candidate (the old EXISTS semantics kept it)
    assert sorted(r["l1_doc_id"] for r in res) == [2]


def test_join_by_location_disjoint_guard(ray_session, join_path):
    """Disjoint-satisfiable join queries get 'and intersects is True'
    appended with a warning (reference avoid_disjoint,
    _geoops_sql.py:2469-2485)."""
    import warnings

    l1 = _geom_ds([(1, _rect(0, 0, 10, 10))])
    l2 = _geom_ds([(10, _rect(5, 5, 8, 8)), (11, _rect(50, 50, 60, 60))])
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        res = join_by_location(l1, l2, "touches is False").take_all()
    assert any("intersects is True" in str(x.message) for x in w)
    assert sorted((r["l1_doc_id"], r["l2_doc_id"]) for r in res) == [(1, 10)]


def test_touches_point_point_false(ray_session):
    """Two identical points: touches must be False on the rect/point fast
    path too (point boundaries are empty — DE-9IM)."""
    from geofileops_ray.geom import GeometryArray
    from geofileops_ray.stages.relation import RelationQuery, evaluate_pairs

    pt = (1, [[np.array([[3.0, 4.0]])]])
    ga = GeometryArray.from_parts([pt, pt])
    q = RelationQuery("touches is True")
    ok = evaluate_pairs(q, ga, np.array([0]), ga, np.array([1]))
    assert not ok[0]


def test_delete_duplicates_rotated_reversed(ray_session):
    """A ring and its rotated/reversed re-encoding are ST_Equals →
    collapse; covers the vectorized slab canonicalization AND the
    duplicated-lex-min tie-break (min-rotation fallback)."""
    rng = np.random.default_rng(7)
    rows = []
    did = 0
    for _ in range(60):
        k = int(rng.integers(3, 6))
        pts = rng.integers(0, 12, size=(k, 2)).astype(float)
        pts[:, 0] += did * 20.0  # distinct x-range per pair → no
        # accidental cross-pair duplicates
        c = pts.mean(axis=0)
        ring = pts[np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]))]
        ring = np.concatenate([ring, ring[:1]])
        rows.append((did, (3, [[ring]])))
        r = ring[:-1][::-1]
        r2 = np.roll(r, -int(rng.integers(0, len(r))), axis=0)
        rows.append((did + 1, (3, [[np.concatenate([r2, r2[:1]])]])))
        did += 2
    # explicit duplicated-lex-min case: vertex (0,0) appears twice
    dup = np.array(
        [[0, 0], [5, 0], [5, 5], [0, 0], [0, 5], [0, 0]], dtype=np.float64
    )
    rows.append((did, (3, [[dup]])))
    rv = dup[:-1][::-1]
    rv = np.roll(rv, -2, axis=0)
    rows.append((did + 1, (3, [[np.concatenate([rv, rv[:1]])]])))
    ds = _geom_ds(rows)
    res = delete_duplicate_geometries(ds).take_all()
    # every odd doc is a re-encoding of the preceding even doc → exactly
    # the even docs survive (doc_id min is kept per group)
    assert sorted(r["doc_id"] for r in res) == list(range(0, did + 2, 2))


def test_delete_duplicates_structural_key(ray_session):
    """Same vertex set, different connectivity → NOT duplicates."""
    sq = _rect(0, 0, 10, 10)
    # same 4 corners, bowtie order (different ring sequence)
    bow_ring = np.array(
        [[0, 0], [10, 10], [10, 0], [0, 10], [0, 0]], dtype=np.float64
    )
    bow = (3, [[bow_ring]])
    ds = _geom_ds([(1, sq), (2, bow), (3, sq)])
    res = delete_duplicate_geometries(ds).take_all()
    assert sorted(r["doc_id"] for r in res) == [1, 2]


def test_join_nearest_best_effort_last_round(ray_session):
    """Cell-ring kNN: rows still unfinished after max_rounds emit the
    best-effort top-k instead of disappearing (reference knn2 keeps
    expanding until max_items found)."""
    l1 = _geom_ds([(1, (1, [[np.array([[0.0, 0.0]])]]))])
    l2 = _geom_ds(
        [(10, _rect(3, 0, 4, 1)), (11, _rect(0, 5, 1, 6)), (12, _rect(7, 7, 8, 8))]
    )
    res = join_nearest(
        l1, l2, nb_nearest=5, radius=1.0, max_rounds=4,
        cols1=[], cols2=[], broadcast_threshold=0, size=10.0,
    ).take_all()
    # only 3 candidates exist; all must surface with ranks 1..3
    assert sorted(r["pos"] for r in res) == [1, 2, 3]


def test_join_nearest_broadcast_gate_is_byte_based(ray_session):
    """The kNN broadcast gate is the 128 MB BYTE cap, not a row count:
    a layer2 of few rows but wide payload bytes must take the cell-ring
    shuffle path (broadcast_threshold here is the cap in bytes), and
    both paths agree on the result."""
    import pyarrow as pa

    import ray as _ray
    import ray.data as _rd

    from geofileops_ray.geom.wkb import to_wkb
    from geofileops_ray.geom.array import GeometryArray

    l1 = _geom_ds([(1, (1, [[np.array([[0.0, 0.0]])]])),
                   (2, (1, [[np.array([[9.0, 9.0]])]]))])
    rows = [(10, _rect(3, 0, 4, 1)), (11, _rect(0, 5, 1, 6)),
            (12, _rect(7, 7, 8, 8))]
    wkb = to_wkb(GeometryArray.from_parts([g for _i, g in rows]))
    t2 = pa.table(
        {
            "doc_id": pa.array([i for i, _g in rows], pa.int64()),
            # ~1 MB payload per row: 3 rows blow a 1 MB cap while any
            # row-count gate would happily broadcast them
            "blob": pa.array([b"x" * (1 << 20)] * len(rows), pa.binary()),
            "geometry": pa.array(wkb, pa.binary()),
        }
    )
    l2 = _rd.from_arrow(t2)

    def run(cap):
        res = join_nearest(
            l1, l2, nb_nearest=2, radius=20.0, size=10.0,
            cols1=[], cols2=[], broadcast_threshold=cap,
        ).take_all()
        return sorted((r["l1_doc_id"], r["l2_doc_id"], r["pos"]) for r in res)

    wide = run(1 << 20)          # 1 MB cap → shuffle path
    broad = run(1 << 30)         # 1 GB cap → broadcast path
    assert wide == broad
    assert len(wide) == 4


def test_pair_identity_exact_blobs():
    """union_full_self piece identity is the covering-set blob — EXACT
    set semantics, no hash (the old 63-bit splitmix pair key silently
    merged distinct pairs at ~n²/2^64 probability; any id pairs that
    collide under ANY fixed hash stay distinct here by construction)."""
    import numpy as np

    from geofileops_ray.stages.compound import _blob_union, _ids_to_blob_array

    def blob(*ids):
        return b"".join(
            _ids_to_blob_array(np.array([i], dtype=np.int64))[0].as_py()
            for i in ids
        )

    # adversarial: ids crafted so ANY 63-bit key has colliding pairs in
    # a large enough set — exact blobs distinguish every pair
    ids = [(1, 1000003), (1, 2000006), (2, 3), (1000003, 2000007),
           (123456789012, 987654321098), (0, 2**62), (2**62, 2**63 - 1)]
    keys = {_blob_union(blob(a), blob(b)) for a, b in ids}
    assert len(keys) == len(ids)
    # set semantics: union is sorted + deduped, order-insensitive
    assert _blob_union(blob(5), blob(2)) == blob(2, 5)
    assert _blob_union(blob(2, 5), blob(5)) == blob(2, 5)
    assert _blob_union(blob(1, 3), blob(2, 3)) == blob(1, 2, 3)
    # pairs-of-pairs with the same union set get ONE identity (they are
    # geometrically identical: (a∩b)∩(a∩c) == a∩b∩c for every pairing)
    assert (
        _blob_union(blob(1, 2), blob(1, 3))
        == _blob_union(blob(1, 2), blob(2, 3))
        == _blob_union(blob(1, 3), blob(2, 3))
    )


def test_knn_block_matches_brute_force():
    """_knn_block (vectorized, argpartition window + bbox lower bounds)
    must agree with the brute-force ST_Distance oracle on mixed
    rect/triangle/point layers, including overlapping geometries where
    distances tie at 0 (doc_id tie-break)."""
    import pyarrow as pa

    from geofileops_ray.io.synth import point_wkb, rect_wkb, tri_wkb
    from geofileops_ray.stages.knn import _exact_knn, _knn_block, _ranks
    from geofileops_ray.stages.relation import detect_rects

    rng = np.random.default_rng(42)

    def layer(n):
        kinds = rng.integers(0, 3, n)
        parts = []
        for i in range(n):
            if kinds[i] == 0:
                x0, x1 = np.sort(rng.uniform(0, 60, 2))
                y0, y1 = np.sort(rng.uniform(0, 60, 2))
                parts.append(rect_wkb([x0], [y0], [x1], [y1]))
            elif kinds[i] == 1:
                x, y, s = rng.uniform(0, 60), rng.uniform(0, 60), rng.uniform(1, 15)
                parts.append(tri_wkb([x], [y], [x + s], [y], [x], [y + s]))
            else:
                parts.append(point_wkb([rng.uniform(0, 60)], [rng.uniform(0, 60)]))
        return from_wkb(pa.concat_arrays([p.combine_chunks() if hasattr(p, "combine_chunks") else p for p in parts]))

    ga1, ga2 = layer(37), layer(53)
    ids2 = (rng.permutation(len(ga2)).astype(np.int64)) * 7
    k = 3
    rows, js, dd, counts, kth = _knn_block(
        ga1, ga2, k, detect_rects(ga1), detect_rects(ga2), ids2
    )
    assert (counts == k).all()
    for i in range(len(ga1)):
        ej, ed = _exact_knn(ga1, i, ga2, k, ids2)
        m = rows == i
        assert np.array_equal(js[m], ej), f"row {i}"
        assert np.allclose(dd[m], ed), f"row {i}"
    assert _ranks(np.array([5, 5, 5, 9, 9, 11])).tolist() == [1, 2, 3, 1, 2, 1]


def test_two_layer_post_chain(ray_session, oracle, join_path):
    """gridsize / where_post / explodecollections on two-layer ops —
    the reference wraps every two-layer template with this post-chain
    (_geoops_sql.py:3626-3646)."""
    # gridsize=2.0 snaps the parcels×zones intersection rects to even
    # coords (banker's rounding); DuckDB round_even mirrors np.round.
    res = intersection(
        parcels_dataset(SF), zones_dataset(SF), cols1=[], cols2=[], gridsize=2.0
    ).take_all()
    snap = "round_even({c}/2.0, 0)*2.0"
    want = oracle.execute(
        f"""{CTE}
        SELECT l1, l2 FROM (
          SELECT p.doc_id l1, z.doc_id l2,
            {snap.format(c='LEAST(p.maxx,z.maxx)')} - {snap.format(c='GREATEST(p.minx,z.minx)')} w,
            {snap.format(c='LEAST(p.maxy,z.maxy)')} - {snap.format(c='GREATEST(p.miny,z.miny)')} h
          FROM parcels p JOIN zones z ON {OVER_ON}) WHERE w > 0 AND h > 0
        ORDER BY 1, 2"""
    ).fetchall()
    got = sorted((r["l1_doc_id"], r["l2_doc_id"]) for r in res)
    assert got == [tuple(w) for w in want]

    # where_post filters on the output geometry's own area
    res = difference(
        parcels_dataset(SF), zones_dataset(SF), cols1=["OIDN"],
        where_post="(maxx - minx) * (maxy - miny) >= 40",
    ).take_all()
    assert res
    for r in res:
        ga = from_wkb([r["geometry"]])
        b = ga.bounds()[0]
        assert (b[2] - b[0]) * (b[3] - b[1]) >= 40

    # explodecollections: difference can yield multipolygons; exploded
    # output must contain only single-part geometries with attrs copied
    res = difference(
        parcels_dataset(SF), zones_dataset(SF), cols1=["OIDN"],
        explodecollections=True,
    ).take_all()
    plain = difference(
        parcels_dataset(SF), zones_dataset(SF), cols1=["OIDN"]
    ).take_all()
    assert len(res) >= len(plain)
    tot_plain = sum(area(from_wkb([r["geometry"]]))[0] for r in plain)
    tot_expl = sum(area(from_wkb([r["geometry"]]))[0] for r in res)
    assert abs(tot_plain - tot_expl) < 1e-6
    for r in res[:50]:
        ga = from_wkb([r["geometry"]])
        assert len(ga._parts_of(0)) == 1


def test_pair_nearest_points_batch_paths():
    """Fast paths (rect×rect, point×rect) agree with the generic
    vertex-to-segment fallback, and realize the planar pair distance."""
    from geofileops_ray.geom import GeometryArray
    from geofileops_ray.stages.relation import (
        pair_distances,
        pair_nearest_points_batch,
    )

    rng = np.random.default_rng(3)
    geoms1, geoms2 = [], []
    for _ in range(40):
        # point subjects
        geoms1.append((1, [[rng.integers(0, 30, size=(1, 2)).astype(float)]]))
        # rect candidates
        x0, y0 = rng.integers(0, 25, size=2).astype(float)
        geoms2.append(_rect(x0, y0, x0 + rng.integers(1, 5), y0 + rng.integers(1, 5)))
    for _ in range(40):
        # rect subjects (rect×rect path)
        x0, y0 = rng.integers(0, 25, size=2).astype(float)
        geoms1.append(_rect(x0, y0, x0 + rng.integers(1, 4), y0 + rng.integers(1, 4)))
        x0, y0 = rng.integers(0, 25, size=2).astype(float)
        geoms2.append(_rect(x0, y0, x0 + rng.integers(1, 4), y0 + rng.integers(1, 4)))
    for _ in range(20):
        # triangle subjects → generic fallback
        a = rng.integers(0, 30, size=2).astype(float)
        geoms1.append(_tri(a, a + [3, 0], a + [0, 3]))
        x0, y0 = rng.integers(0, 25, size=2).astype(float)
        geoms2.append(_rect(x0, y0, x0 + 2, y0 + 2))
    ga1 = GeometryArray.from_parts(geoms1)
    ga2 = GeometryArray.from_parts(geoms2)
    ia = np.arange(len(geoms1))
    d = pair_distances(ga1, ia, ga2, ia)
    pts = pair_nearest_points_batch(ga1, ia, ga2, ia, d)
    realized = np.hypot(pts[:, 0] - pts[:, 2], pts[:, 1] - pts[:, 3])
    assert np.allclose(realized, d, atol=1e-9)


def test_pair_nearest_points_degenerate_line():
    """A zero-segment geometry (single-vertex LINESTRING) must fall back
    to its vertex set instead of crashing on an empty argmin."""
    from geofileops_ray.geom import GeometryArray
    from geofileops_ray.geom.predicates import pair_nearest_points

    deg = GeometryArray.from_parts([(2, [[np.array([[5.0, 5.0]])]])])
    deg2 = GeometryArray.from_parts([(2, [[np.array([[7.0, 5.0]])]])])
    poly = GeometryArray.from_parts(
        [(3, [[np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                         [0.0, 1.0], [0.0, 0.0]])]])]
    )
    line = GeometryArray.from_parts(
        [(2, [[np.array([[0.0, 0.0], [10.0, 0.0]])]])]
    )
    p, q = pair_nearest_points(deg, 0, poly, 0)
    assert np.hypot(*(p - q)) == pytest.approx(np.sqrt(32))
    p, q = pair_nearest_points(deg, 0, deg2, 0)
    assert np.hypot(*(p - q)) == pytest.approx(2.0)
    p, q = pair_nearest_points(line, 0, deg, 0)
    assert np.hypot(*(p - q)) == pytest.approx(5.0)


def test_delete_duplicates_reversed_lines(ray_session):
    """ST_Equals holds between a line and its reverse (and between
    rotations of a closed line) — both encodings must collapse, on the
    vectorized single-part path AND the multi-part structural fallback."""
    from geofileops_ray.geom.array import LINESTRING, MULTILINESTRING

    fwd = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
    rows = [
        (0, (LINESTRING, [[fwd]])),
        (1, (LINESTRING, [[fwd[::-1].copy()]])),  # reversed → dup of 0
        # closed line: reverse + rotate → still the same closed curve
        (2, (LINESTRING, [[np.array(
            [[10.0, 0.0], [12.0, 0.0], [12.0, 2.0], [10.0, 0.0]])]])),
        (3, (LINESTRING, [[np.array(
            [[12.0, 2.0], [12.0, 0.0], [10.0, 0.0], [12.0, 2.0]])]])),
        # multi-part: parts listed in a different order, one reversed
        (4, (MULTILINESTRING, [[fwd + 20.0], [fwd + 40.0]])),
        (5, (MULTILINESTRING, [[(fwd + 40.0)[::-1].copy()], [fwd + 20.0]])),
        # NOT a duplicate: same endpoints, different interior vertex
        (6, (LINESTRING, [[np.array([[0.0, 0.0], [9.0, 9.0], [3.0, 1.0]])]])),
    ]
    res = delete_duplicate_geometries(_geom_ds(rows)).take_all()
    assert sorted(r["doc_id"] for r in res) == [0, 2, 4, 6]


def test_fixed8_blob_codes_order_matches_object_ranks():
    """The union_full_self 8-byte fast path must order blobs exactly
    like the object np.unique fallback (lex order) — the < / != pair
    filters depend on it. Also: mixed-length or large_binary columns
    must decline the fast path."""
    import numpy as np
    import pyarrow as pa

    from geofileops_ray.stages.compound import _self_round  # noqa: F401
    # the helper is nested; reproduce its contract through the public
    # round by checking the raw transform directly instead
    rng = np.random.default_rng(9)
    blobs = [bytes(rng.integers(0, 256, 8, dtype=np.uint8)) for _ in range(500)]
    col = pa.array(blobs, pa.binary())
    offs = np.frombuffer(col.buffers()[1], np.int32)[: len(col) + 1].astype(np.int64)
    data = np.frombuffer(col.buffers()[2], np.uint8)
    codes = np.ascontiguousarray(
        data[offs[0] : offs[0] + 8 * len(col)]
    ).view(">u8").astype(np.uint64)
    order_fast = np.argsort(codes, kind="stable")
    order_obj = np.argsort(np.asarray(blobs, dtype=object), kind="stable")
    assert (order_fast == order_obj).all()
    # equality semantics identical too
    dup = pa.array([blobs[0], blobs[0], blobs[1]], pa.binary())
    d_offs = np.frombuffer(dup.buffers()[1], np.int32)[:4].astype(np.int64)
    d_data = np.frombuffer(dup.buffers()[2], np.uint8)
    d_codes = np.ascontiguousarray(d_data[: 8 * 3]).view(">u8").astype(np.uint64)
    assert d_codes[0] == d_codes[1] != d_codes[2]


@pytest.mark.parametrize("cap", [None, 0])
def test_join_nearest_ignores_point_empty(ray_session, cap):
    """POINT EMPTY (a 21-byte WKB point whose x is NaN, in either byte
    order) in either layer changes no join_nearest output row, on the
    broadcast path (cap None) and the cell-ring path (cap 0)."""
    import struct

    import pyarrow as pa
    import ray.data as _rd

    from geofileops_ray.geom import GeometryArray, to_wkb

    nan = float("nan")
    empty_le = struct.pack("<BIdd", 1, 1, nan, nan)
    empty_be = struct.pack(">BIdd", 0, 1, nan, nan)
    pts = [(i, (1, [[np.array([[3.0 * i, 2.0 * (i % 4)]])]])) for i in range(12)]
    rects = [(100 + i, _rect(5 * i, 10, 5 * i + 2, 12)) for i in range(6)]

    def layer(rows, extra):
        wkb = to_wkb(GeometryArray.from_parts([g for _i, g in rows]))
        ids = [i for i, _g in rows] + [900 + k for k in range(len(extra))]
        return _rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "geometry": pa.array(list(wkb) + extra, pa.binary()),
                }
            )
        )

    def run(l1, l2):
        res = join_nearest(
            l1, l2, nb_nearest=2, radius=5.0, size=10.0, cols1=[], cols2=[],
            broadcast_threshold=cap,
        ).take_all()
        return sorted(
            (r["l1_doc_id"], r["pos"], r["l2_doc_id"], r["distance"]) for r in res
        )

    want = run(layer(pts, []), layer(rects, []))
    assert len(want) == 2 * len(pts)
    assert run(layer(pts, [empty_le, empty_be]), layer(rects, [])) == want
    assert run(layer(pts, []), layer(rects, [empty_le, empty_be])) == want


def test_probe_collect_lazy_and_materialized_agree(ray_session):
    """layer2 is collected the same way whether it is read from stored
    blocks (materialized) or projected by the workers (lazy)."""
    from geofileops_ray.io import synth
    from geofileops_ray.stages.spatial_join import _prefixed_schema, _probe_collect

    lazy = synth.zones_dataset(SF)
    mat = lazy.materialize()
    f2 = _prefixed_schema(mat.schema().base_schema, "l2_", ["doc_id", "naam", "geometry"])
    a = _probe_collect(lazy, f2, None)
    b = _probe_collect(mat, f2, None)
    assert a.equals(b) and len(b) == mat.count() > 0
    assert _probe_collect(mat, f2, b.nbytes - 1) is None
