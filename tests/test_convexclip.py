"""Vectorized clip kernel (single ring x rect / convex ring) vs the
general sweep — same areas, same presence and type, bridged or spiked
rings routed back to the sweep, valid WKB, correct convexity detection."""

import numpy as np

from geofileops_ray.geom import GeometryArray, from_wkb
from geofileops_ray.geom.convexclip import (
    clip_areas,
    clip_operands,
    clip_pairs,
    convex_single_ring,
    padded_to_wkb,
)
from geofileops_ray.geom.measure import area as ga_area
from geofileops_ray.geom.overlay import polygon_overlay, ring_signed_area
from geofileops_ray.geom.wkb import to_wkb
from geofileops_ray.io.synth import rect_wkb
from geofileops_ray.stages.relation import detect_rects


def _random_convex(rng, n):
    polys = []
    for i in range(n):
        k = rng.integers(3, 9)
        ang = np.sort(rng.random(k) * 2 * np.pi)
        cx, cy = rng.random(2) * 100
        rad = 1 + rng.random() * 4
        ring = np.stack([cx + rad * np.cos(ang), cy + rad * np.sin(ang)], axis=1)
        if i % 3 == 0:
            ring = ring[::-1]  # mix CW input orientation
        polys.append((3, [[np.concatenate([ring, ring[:1]], axis=0)]]))
    return GeometryArray.from_parts(polys)


def _rect_layer(rects):
    return from_wkb(
        rect_wkb(rects[:, 0], rects[:, 1], rects[:, 2], rects[:, 3]).to_pylist()
    )


def _clip_by_rects(ga, rects, check=True):
    """clip_pairs of ga[k] x rects[k] for every k."""
    gr = _rect_layer(rects)
    n = len(ga)
    idx = np.arange(n)
    k, P, cnt, ok = clip_pairs(
        ga, idx, gr, idx, detect_rects(ga), detect_rects(gr),
        np.ones(n, dtype=bool), check=check,
    )
    assert (k == idx).all()
    return P, cnt, ok


def test_convex_detection():
    rng = np.random.default_rng(3)
    ga = _random_convex(rng, 50)
    assert convex_single_ring(ga).all()
    # a bowtie and a poly with a hole are NOT convex-single-ring
    bow = np.array([[0, 0], [2, 2], [2, 0], [0, 2], [0, 0]], dtype=float)
    sq = np.array([[0, 0], [9, 0], [9, 9], [0, 9], [0, 0]], dtype=float)
    hole = np.array([[3, 3], [3, 4], [4, 4], [4, 3], [3, 3]], dtype=float)
    g2 = GeometryArray.from_parts([(3, [[bow]]), (3, [[sq, hole]])])
    assert not convex_single_ring(g2).any()


def test_clip_matches_sweep():
    rng = np.random.default_rng(11)
    N = 400
    ga = _random_convex(rng, N)
    b = ga.bounds()
    x0 = b[:, 0] + rng.random(N) * 4 - 2
    y0 = b[:, 1] + rng.random(N) * 4 - 2
    rects = np.stack(
        [x0, y0, x0 + rng.random(N) * 6, y0 + rng.random(N) * 6], axis=1
    )
    P, cnt, ok = _clip_by_rects(ga, rects)
    assert ok.all()
    got = clip_areas(P, cnt)
    for k in range(N):
        rr = rects[k]
        ring = np.array(
            [
                [rr[0], rr[1]],
                [rr[2], rr[1]],
                [rr[2], rr[3]],
                [rr[0], rr[3]],
                [rr[0], rr[1]],
            ]
        )
        parts = polygon_overlay(ga._parts_of(k), [[ring]], "intersection")
        want = sum(abs(ring_signed_area(r)) for p in parts for r in p[:1])
        assert abs(got[k] - want) < 1e-8, k

    # WKB output decodes to polygons with the same areas
    blobs = padded_to_wkb(P, cnt)
    nz = [i for i in range(N) if blobs[i] is not None]
    assert set(nz) == set(np.flatnonzero(cnt > 0).tolist())
    dec = from_wkb([blobs[i] for i in nz])
    assert np.allclose(ga_area(dec), got[nz], atol=1e-9)


def test_clip_exact_on_lattice():
    # integer-lattice triangle × rect: exact closed-form area
    tri = np.array([[0, 0], [4, 0], [0, 4], [0, 0]], dtype=float)
    ga = GeometryArray.from_parts([(3, [[tri]])])
    rects = np.array([[1.0, 1.0, 10.0, 10.0]])
    P, cnt, _ = _clip_by_rects(ga, rects)
    # clip of the right triangle to x>=1,y>=1: triangle (1,1)(3,1)(1,3)
    assert clip_areas(P, cnt)[0] == 2.0
    # disjoint rect -> empty
    P, cnt, _ = _clip_by_rects(ga, np.array([[9, 9, 10, 10.0]]))
    assert cnt[0] == 0 and padded_to_wkb(P, cnt) == [None]


def test_sat_predicates_match_generic():
    from geofileops_ray.geom.predicates import PREDICATES
    from geofileops_ray.geom.convexclip import convex_rect_predicates
    from geofileops_ray.io.synth import rect_wkb
    from geofileops_ray.geom.wkb import from_wkb
    from geofileops_ray.stages.relation import NAMED_PREDICATES

    rng = np.random.default_rng(19)
    polys = []
    for i in range(120):
        k = rng.integers(3, 8)
        ang = np.sort(rng.random(k) * 2 * np.pi)
        cx, cy = rng.random(2) * 40
        rad = 1 + rng.random() * 4
        ring = np.stack([cx + rad * np.cos(ang), cy + rad * np.sin(ang)], axis=1)
        polys.append((3, [[np.concatenate([ring, ring[:1]])]]))
    tri = np.array([[0, 0], [4, 0], [0, 4], [0, 0]], float)
    for off in ((0, 0), (10, 10), (20, 0)):
        polys.append((3, [[tri + np.array(off)]]))
    ga = GeometryArray.from_parts(polys)
    n = len(ga.types)
    x0 = rng.random(n) * 40 - 2
    y0 = rng.random(n) * 40 - 2
    rects = np.stack([x0, y0, x0 + rng.random(n) * 6, y0 + rng.random(n) * 6], axis=1)
    rects[-3] = [4, 0, 8, 4]    # vertex touch on the lattice
    rects[-2] = [10, 6, 30, 8]  # disjoint
    rects[-1] = [20, 0, 24, 4]  # triangle coveredby rect, shared edges
    gr = from_wkb(rect_wkb(rects[:, 0], rects[:, 1], rects[:, 2], rects[:, 3]).to_pylist())
    preds = set(NAMED_PREDICATES)
    got = convex_rect_predicates(ga, np.arange(n), rects, preds)
    got_s = convex_rect_predicates(ga, np.arange(n), rects, preds, swapped=True)
    for k in range(n):
        for p in preds:
            assert bool(got[p][k]) == bool(PREDICATES[p](ga, k, gr, k)), (k, p)
            assert bool(got_s[p][k]) == bool(PREDICATES[p](gr, k, ga, k)), (k, p)


def test_sat_predicates_tolerate_sweep_noise():
    """Sweep-produced vertices sit O(1e-14) off the lattice; the SAT fast
    path must agree with the eps-tolerant generic predicates there
    (regression: union_full_self nb_covering undercount)."""
    from geofileops_ray.geom.convexclip import convex_rect_predicates

    ring = np.array(
        [[197.0 + 2.9e-14, 43.0], [197.0, 47.0], [191.0, 47.0],
         [191.0, 43.0], [197.0 + 2.9e-14, 43.0]]
    )
    ga = GeometryArray.from_parts([(3, [[ring]])])
    rects = np.array([[190.0, 42.0, 197.0, 47.0]])
    got = convex_rect_predicates(
        ga, np.array([0]), rects, {"coveredby", "intersects", "within"}
    )
    # must agree with the generic eps-tolerant path (predicates._EPS)
    from geofileops_ray.geom.predicates import PREDICATES
    from geofileops_ray.io.synth import rect_wkb

    gr = from_wkb(
        rect_wkb(
            np.array([190.0]), np.array([42.0]),
            np.array([197.0]), np.array([47.0]),
        ).to_pylist()
    )
    for p in ("coveredby", "intersects", "within"):
        assert bool(got[p][0]) is bool(PREDICATES[p](ga, 0, gr, 0)), p
    assert bool(got["coveredby"][0]) is True


def test_convex_convex_interiors_matches_generic():
    """The two-sided convex SAT interior test (candidate pruning for
    difference/clip/union_full_self) must agree exactly with the generic
    pair predicates ('intersects and not touches') on random lattice
    triangles — including edge-touching tilings, the case the prune
    exists for."""
    import numpy as np

    from geofileops_ray.geom import GeometryArray
    from geofileops_ray.geom.convexclip import (
        convex_convex_interiors,
        convex_single_ring,
    )
    from geofileops_ray.stages.relation import RelationQuery, evaluate_pairs

    rng = np.random.default_rng(3)

    def make_tri(n):
        geoms = []
        while len(geoms) < n:
            pts = rng.integers(0, 12, (3, 2)).astype(float)
            a = (pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1]) - (
                pts[2, 0] - pts[0, 0]
            ) * (pts[1, 1] - pts[0, 1])
            if abs(a) > 0.5:
                if a < 0:
                    pts = pts[::-1]
                ring = np.concatenate([pts, pts[:1]], axis=0)
                geoms.append((3, [[ring]]))
        return GeometryArray.from_parts(geoms)

    ga1, ga2 = make_tri(150), make_tri(150)
    assert convex_single_ring(ga1).all() and convex_single_ring(ga2).all()
    ia = rng.integers(0, 150, 800).astype(np.int64)
    ib = rng.integers(0, 150, 800).astype(np.int64)
    got = convex_convex_interiors(ga1, ia, ga2, ib)
    want = evaluate_pairs(
        RelationQuery("intersects is True and touches is False"),
        ga1, ia, ga2, ib,
    )
    assert (got == want).all()


def test_degenerate_edge_not_separating():
    """A duplicate consecutive vertex (accepted by convex_single_ring —
    its cross products are 0) yields a zero-length edge with a (0,0)
    normal; that edge must not vote in the SAT separation tests, or
    overlapping pairs are falsely declared separated and difference/clip
    and the fused overlays silently leave rows uncut (ADVICE r2, high)."""
    from geofileops_ray.geom.convexclip import (
        convex_convex_interiors,
        convex_rect_predicates,
        convex_single_ring,
    )

    # unit squares overlapping 2x2 on [2,4]x[2,4]; A carries a duplicate
    # consecutive vertex
    dup_sq = np.array(
        [[0, 0], [4, 0], [4, 0], [4, 4], [0, 4], [0, 0]], dtype=float
    )
    sq = np.array([[2, 2], [6, 2], [6, 6], [2, 6], [2, 2]], dtype=float)
    ga1 = GeometryArray.from_parts([(3, [[dup_sq]])])
    ga2 = GeometryArray.from_parts([(3, [[sq]])])
    assert convex_single_ring(ga1).all()
    got = convex_convex_interiors(
        ga1, np.array([0]), ga2, np.array([0])
    )
    assert bool(got[0]) is True
    got_r = convex_convex_interiors(
        ga2, np.array([0]), ga1, np.array([0])
    )
    assert bool(got_r[0]) is True
    # same for the convex x rect SAT predicates
    preds = convex_rect_predicates(
        ga1, np.array([0]), np.array([[2.0, 2.0, 6.0, 6.0]]),
        {"intersects", "touches", "overlaps"},
    )
    assert bool(preds["intersects"][0]) is True
    assert bool(preds["touches"][0]) is False
    assert bool(preds["overlaps"][0]) is True


# ------------------------------------------------- single ring x convex


def _ref_convex_rect_wkb(ring_open, rect):
    """The axis-only convex x rect Sutherland-Hodgman clip as this module
    computed it before the general kernel, one ring at a time: the same
    float operations in the same order, so its WKB is the byte-level
    reference for convex x rect outputs."""
    pts = [tuple(p) for p in ring_open]
    sa = sum(
        pts[i][0] * pts[(i + 1) % len(pts)][1]
        - pts[(i + 1) % len(pts)][0] * pts[i][1]
        for i in range(len(pts))
    )
    if sa < 0:
        pts = pts[::-1]
    for axis, c, keep_ge in (
        (0, rect[0], True), (0, rect[2], False),
        (1, rect[1], True), (1, rect[3], False),
    ):
        out = []
        for i, cur in enumerate(pts):
            prev = pts[i - 1]
            cin = cur[axis] >= c if keep_ge else cur[axis] <= c
            pin = prev[axis] >= c if keep_ge else prev[axis] <= c
            if cin != pin:
                denom = cur[axis] - prev[axis]
                t = (c - prev[axis]) / (denom if abs(denom) >= 1e-300 else 1.0)
                ip = [prev[0] + t * (cur[0] - prev[0]),
                      prev[1] + t * (cur[1] - prev[1])]
                ip[axis] = c
                out.append(tuple(ip))
            if cin:
                out.append(cur)
        pts = out if len(out) >= 3 else []
    n = len(pts)
    sa = sum(
        pts[i][0] * pts[(i + 1) % n][1] - pts[(i + 1) % n][0] * pts[i][1]
        for i in range(n)
    )
    if not sa > 1e-300:
        return None
    kept = [p for i, p in enumerate(pts) if n == 1 or p != pts[i - 1]]
    if len(kept) < 3:
        return None
    ring = np.array(kept + kept[:1], dtype=float)
    return to_wkb(GeometryArray.from_parts([(3, [[ring]])]))[0]


def test_convex_rect_bytes_unchanged():
    """Convex x rect outputs of the general kernel are byte-identical to
    the axis-only clip it replaced (random and lattice cases)."""
    rng = np.random.default_rng(23)
    N = 300
    ga = _random_convex(rng, N)
    b = ga.bounds()
    x0 = b[:, 0] + rng.random(N) * 4 - 2
    y0 = b[:, 1] + rng.random(N) * 4 - 2
    rects = np.stack(
        [x0, y0, x0 + rng.random(N) * 6 + 0.1, y0 + rng.random(N) * 6 + 0.1],
        axis=1,
    )
    tris = []
    for _ in range(100):
        ax, ay = rng.integers(0, 6, 2)
        w, h = rng.integers(1, 6, 2)
        tri = np.array([[ax, ay], [ax + w, ay], [ax, ay + h], [ax, ay]], float)
        tris.append((3, [[tri if rng.random() < 0.5 else tri[::-1]]]))
    lat = rng.integers(0, 8, (100, 2)).astype(float)
    lat_rects = np.concatenate([lat, lat + rng.integers(1, 5, (100, 2))], axis=1)
    for gsub, rr in ((ga, rects), (GeometryArray.from_parts(tris), lat_rects)):
        P, cnt, ok = _clip_by_rects(gsub, rr)
        assert ok.all()
        got = padded_to_wkb(P, cnt)
        geo, po, ro = gsub.geom_offsets, gsub.part_offsets, gsub.ring_offsets
        for k in range(len(gsub)):
            r0 = po[geo[k]]
            ring = gsub.coords[ro[r0] : ro[r0 + 1] - 1]
            assert got[k] == _ref_convex_rect_wkb(ring, rr[k]), k


def _closed(pts):
    pts = np.asarray(pts, dtype=float)
    return np.concatenate([pts, pts[:1]], axis=0)


def _concave_rings(rng, n):
    """Seeded L, U and staircase rings; half on an integer lattice
    (shared edges, vertices on clip lines), half rotated off it."""
    rings = []
    for i in range(n):
        kind = i % 3
        if kind == 0:  # L
            w, h = rng.integers(3, 9, 2)
            a, b = rng.integers(1, h), rng.integers(1, w)
            pts = [(0, 0), (w, 0), (w, a), (b, a), (b, h), (0, h)]
        elif kind == 1:  # U, arms up
            w, h = rng.integers(4, 9), rng.integers(3, 9)
            a, d = rng.integers(1, (w - 1) // 2 + 1), rng.integers(1, h)
            pts = [(0, 0), (w, 0), (w, h), (w - a, h), (w - a, d), (a, d),
                   (a, h), (0, h)]
        else:  # staircase
            k, s = rng.integers(2, 6), rng.integers(1, 3)
            pts = [(0, 0), (k * s, 0)]
            for j in range(k, 0, -1):
                pts += [(j * s, (k - j + 1) * s), ((j - 1) * s, (k - j + 1) * s)]
            pts = pts[:-1]
        pts = np.array(pts, dtype=float) + rng.integers(0, 20, 2)
        if i % 2:
            th = rng.random() * np.pi
            c, s_ = np.cos(th), np.sin(th)
            pts = pts @ np.array([[c, s_], [-s_, c]]) + rng.random(2)
        if rng.random() < 0.5:
            pts = pts[::-1]
        rings.append(_closed(pts))
    return rings


def _convex_clips(rng, subjects):
    """One random triangle, rect or hexagon near each subject's bbox."""
    clips = []
    for i, ring in enumerate(subjects):
        lo, hi = ring.min(axis=0), ring.max(axis=0)
        kind = rng.integers(3)
        if kind == 0:  # triangle
            while True:
                t = lo + rng.random((3, 2)) * (hi - lo + 4) - 2
                if rng.random() < 0.5:
                    t = np.round(t)
                a = (t[1, 0] - t[0, 0]) * (t[2, 1] - t[0, 1]) - (
                    t[2, 0] - t[0, 0]) * (t[1, 1] - t[0, 1])
                if abs(a) > 0.5:
                    break
            pts = t
        elif kind == 1:  # rect
            x0, y0 = np.round(lo + rng.random(2) * (hi - lo))
            x1, y1 = np.round(np.array([x0, y0]) + 1 + rng.random(2) * (hi - lo))
            pts = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        else:  # hexagon
            c = lo + rng.random(2) * (hi - lo)
            r = 1 + rng.random() * (hi - lo).max() / 2
            ang = rng.random() * np.pi + np.arange(6) * np.pi / 3
            pts = np.stack([c[0] + r * np.cos(ang), c[1] + r * np.sin(ang)], 1)
        clips.append(_closed(pts))
    return clips


def _sweep(ring_a, ring_b):
    """(n_parts, area) of the sweep's ring_a ∩ ring_b."""
    parts = polygon_overlay([[ring_a]], [[ring_b]], "intersection")
    a = sum(abs(ring_signed_area(r)) for p in parts for r in p[:1]) - sum(
        abs(ring_signed_area(r)) for p in parts for r in p[1:]
    )
    return len(parts), a


def _loop_simple(ring):
    """Exact loop check of an open ring: no two non-adjacent edges meet,
    no two adjacent edges overlap."""
    m = len(ring)

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def on_seg(a, b, c):
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    def meet(a, b, c, d):
        o1, o2 = orient(a, b, c), orient(a, b, d)
        o3, o4 = orient(c, d, a), orient(c, d, b)
        if o1 * o2 < 0 and o3 * o4 < 0:
            return True
        return any(
            o == 0 and on_seg(p, q, r)
            for o, p, q, r in ((o1, a, b, c), (o2, a, b, d),
                               (o3, c, d, a), (o4, c, d, b))
        )

    for i in range(m):
        a, b, c = ring[i], ring[(i + 1) % m], ring[(i + 2) % m]
        if orient(a, b, c) == 0 and np.dot(b - a, c - b) <= 0:
            return False  # fold-back of adjacent edges
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue
            if meet(a, b, ring[j], ring[(j + 1) % m]):
                return False
    return True


def _check_against_sweep(subjects, clips):
    ga_s = GeometryArray.from_parts([(3, [[r]]) for r in subjects])
    ga_c = GeometryArray.from_parts([(3, [[r]]) for r in clips])
    n = len(subjects)
    idx = np.arange(n)
    k, P, cnt, ok = clip_pairs(
        ga_s, idx, ga_c, idx, detect_rects(ga_s), detect_rects(ga_c),
        np.ones(n, dtype=bool),
    )
    assert (k == idx).all()
    areas = clip_areas(P, cnt)
    blobs = padded_to_wkb(P, cnt)
    from geofileops_ray.stages.overlay_ops import _pairwise_overlay_geoms

    pipe = _pairwise_overlay_geoms(ga_s, idx, ga_c, idx)
    for i in range(n):
        nparts, want = _sweep(subjects[i], clips[i])
        assert abs(areas[i] - want) < 1e-9, (i, areas[i], want)
        if nparts > 1:  # bridged ring: the answer is a MultiPolygon
            assert not ok[i], i
        if cnt[i] and not _loop_simple(P[i, : cnt[i]]):
            assert not ok[i], i  # bridge or spike
        if ok[i]:
            assert (blobs[i] is None) == (nparts == 0), i
            if blobs[i] is not None:
                g = from_wkb([blobs[i]])
                assert g.types[0] == 3 and nparts == 1
                assert abs(ga_area(g)[0] - want) < 1e-9, i
        # the overlay pipeline (kernel + sweep fallback) matches the sweep
        assert (pipe[i] is None) == (nparts == 0), i
        if pipe[i] is not None:
            g = from_wkb([pipe[i]])
            assert g.types[0] == (3 if nparts == 1 else 6), i
            assert abs(ga_area(g)[0] - want) < 1e-9, i
    return ok, cnt


def test_concave_clip_matches_sweep():
    rng = np.random.default_rng(31)
    subjects = _concave_rings(rng, 600)
    clips = _convex_clips(rng, subjects)
    ok, _ = _check_against_sweep(subjects, clips)
    assert ok.mean() > 0.8


def test_concave_clip_hand_cases():
    L = _closed([(0, 0), (4, 0), (4, 1), (1, 1), (1, 4), (0, 4)])
    notch = _closed([(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)])
    U_down = _closed([(0, 2), (0, 0), (1, 0), (1, 2), (2, 2), (2, 0),
                      (3, 0), (3, 2), (3, 3), (0, 3)])
    cases = [
        # bridge: the clip cuts both arms of the L (x + y >= 3)
        (L, _closed([(10, -7), (10, 10), (-7, 10)]), 2),
        # bridge on an axis clip: the clip edge runs along the notch
        # floor of a U, joining the two arms with a zero-width bridge
        (U_down, _closed([(-1, -1), (4, -1), (4, 2), (-1, 2)]), 2),
        # the notch vertex touches the clip edge from inside (two lobes
        # meeting at one point) and from outside (collinear, dropped)
        (notch, _closed([(-1, 1), (5, 1), (5, 5), (-1, 5)]), None),
        (notch, _closed([(-1, -1), (5, -1), (5, 1), (-1, 1)]), 1),
        # shared collinear edges: triangle over the L's corner
        (L, _closed([(0, 0), (4, 0), (0, 4)]), 1),
        # touch-only: a triangle filling the L's notch, a corner rect
        (L, _closed([(1, 1), (3, 1), (1, 3)]), 0),
        (L, _closed([(4, 1), (6, 1), (6, 3), (4, 3)]), 0),
    ]
    ok, cnt = _check_against_sweep([c[0] for c in cases], [c[1] for c in cases])
    for i, (a, b, want_parts) in enumerate(cases):
        if want_parts is not None:
            assert _sweep(a, b)[0] == want_parts, i
    assert not ok[0] and not ok[1] and not ok[2]
    assert ok[3:].all()
    # the notch vertex on the clip edge is collinear: dropped, as the
    # sweep drops it, leaving the 4-corner rectangle
    assert cnt[3] == 4 and cnt[4] == 6


def test_touching_convex_slivers_go_to_sweep():
    """A triangle touching a clip triangle along a shared sloped line:
    its vertices sit off the line by rounding, so the clip leaves
    slivers ~1e-17 wide where the sweep answers None. The width test
    routes them to the sweep."""
    rng = np.random.default_rng(1)
    subjects, clips = [], []
    for _ in range(300):
        p0 = rng.random(2) * 100
        d = rng.random(2) * 10 + 1
        nrm = np.array([-d[1], d[0]])
        clips.append(_closed([p0, p0 + d, p0 + 0.5 * d - nrm]))
        f1, f2 = np.sort(rng.random(2))
        a, b = p0 + f1 * d, p0 + f2 * d
        subjects.append(_closed([a, b, (a + b) / 2 + nrm * rng.random()]))
    ok, cnt = _check_against_sweep(subjects, clips)
    assert (~ok & (cnt > 0)).any()


def test_clip_operands():
    """One eligibility helper: single small ring (any shape) vs convex."""
    L = _closed([(0, 0), (4, 0), (4, 1), (1, 1), (1, 4), (0, 4)])
    tri = _closed([(0, 0), (4, 0), (0, 4)])
    big = _closed(
        np.stack([np.cos(np.arange(80) / 80 * 2 * np.pi),
                  np.sin(np.arange(80) / 80 * 2 * np.pi)], 1)
    )
    hole = _closed([(1, 1), (1, 2), (2, 2), (2, 1)])
    ga = GeometryArray.from_parts(
        [(3, [[L]]), (3, [[tri]]), (3, [[big]]), (3, [[tri * 9, hole]])]
    )
    ring, convex = clip_operands(ga)
    assert ring.tolist() == [True, True, False, False]
    assert convex.tolist() == [False, True, False, False]


def test_lshape_triangle_pairs_stay_batched(monkeypatch):
    """Guard against a silent fallback: on the synth L-shape x triangle
    layers of 1000 seeded documents, at least 80% of the bbox candidate
    pairs are answered by the batched clip, not the per-pair sweep, and
    the answer has the all-sweep path's non-None pairs and types."""
    import pyarrow as pa

    from geofileops_ray.geom.strtree import bbox_join
    from geofileops_ray.io import synth
    from geofileops_ray.stages import overlay_ops

    rng = np.random.default_rng(5)
    ids = np.arange(1250, dtype=np.int64).reshape(250, 5)
    keep = np.ones(ids.shape, dtype=bool)
    keep[np.arange(250), rng.integers(1, 5, 250)] = False
    doc_id = ids[keep]
    docs = pa.table({
        "doc_id": pa.array(doc_id, pa.int64()),
        "text": pa.array(["field parcel"] * len(doc_id)),
        "lang": pa.array(["nl"] * len(doc_id)),
    })
    L = from_wkb(synth.synth_lshapes_batch(docs).column("geometry").to_pylist())
    T = from_wkb(synth.synth_triangles_batch(docs).column("geometry").to_pylist())
    ia, ib = bbox_join(L.bounds(), T.bounds())
    assert len(ia) > 1000

    sweep = overlay_ops._geom_of_pair_op
    calls = []

    def counting(*a, **kw):
        calls.append(1)
        return sweep(*a, **kw)

    monkeypatch.setattr(overlay_ops, "_geom_of_pair_op", counting)
    got = overlay_ops._pairwise_overlay_geoms(L, ia, T, ib)
    assert len(calls) <= 0.2 * len(ia), (len(calls), len(ia))

    want = GeometryArray.from_parts(
        [sweep(L, int(i), T, np.array([int(j)]), "intersection")
         for i, j in zip(ia, ib)]
    )
    want_nonempty = ~want.is_empty()
    got_nonempty = np.array([g is not None for g in got])
    assert (got_nonempty == want_nonempty).all()
    k = np.flatnonzero(got_nonempty)
    g = from_wkb([got[i] for i in k])
    assert (g.types == want.types[k]).all()
    assert np.allclose(ga_area(g), ga_area(want.take(k)), rtol=1e-9, atol=1e-8)
