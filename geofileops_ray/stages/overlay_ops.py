"""Two-layer geometric overlays: intersection / clip / difference and
their compositions (identity, symmetric_difference, union).

Reference semantics (SURVEY.md §2.4):
* intersection — pairwise ``ST_Intersection(g1, g2)`` collection-extracted
  to the lower primitive type, columns l1_*/l2_* (geofileops
  _geoops_sql.py:1805-2102);
* clip — per layer1 row ``g1 ∩ ST_Union(candidates)``, layer1 attrs only
  (:942-1055, correlated subquery :1000-1028);
* difference — per layer1 row ``g1 − ST_Union(candidates)``; rows with no
  candidates pass through, fully-erased rows dropped (:1058-1356);
* identity = intersection ⊎ difference (:2752-2911);
* symmetric_difference = difference(a,b) ⊎ difference(b,a) with
  null-typed other-side columns (:2914-3086);
* union = intersection ⊎ difference(a,b) ⊎ difference(b,a) (:3089-3292).

Ray shape: cell co-shuffle → per-cell candidate pairs (reference-cell
deduped) → for the per-row ops a second ``groupby(l1_doc_id)`` that
gathers every candidate of a row across cells and runs ONE boolean op
against their union — mirroring the reference's operand shape exactly
(difference subtracts the union of candidates, never pairwise), which is
what makes results independent of the tiling.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..config import OPTIONS
from ..geom import GeometryArray, bbox_join, bbox_join_auto, from_wkb, to_wkb, to_wkb_arrow
from ..geom.array import LINESTRING, MULTILINESTRING, MULTIPOINT, POINT, POLYGON
from ..geom.overlay import (
    line_line_overlap,
    line_polygon_overlay,
    parts_to_geom,
    polygon_overlay,
    union_all_parts,
)
from ..geom.predicates import points_in_polygon
from .catalog import _max_coords_estimate
from .spatial_join import (
    _attr_cols,
    _broadcast_side,
    _owner_cell,
    _pair_table,
    _prefixed_schema,
    _ref_cell,
    broadcast_cogroup,
    cell_cogroup,
)

_GEOM = "geometry"


def _geom_of_pair_op(ga1: GeometryArray, i: int, cand: GeometryArray,
                     js: np.ndarray, op: str) -> tuple[int, list]:
    """One boolean op of geometry i against the union of candidate
    geometries (clip: op='intersection'; difference: op='difference').
    Point rows use point-in-polygon instead of the polygon sweep."""
    t1 = ga1.part_types(i)
    if t1 == POINT:
        pts = ga1._parts_of(i)
        flat = np.concatenate([r for part in pts for r in part], axis=0)
        inside = np.zeros(len(flat), dtype=bool)
        for j in js:
            inside |= points_in_polygon(flat, cand, int(j))
        keep = inside if op == "intersection" else ~inside
        sel = flat[keep]
        if len(sel) == 0:
            return POINT, []
        if len(sel) == 1:
            return POINT, [[sel]]
        return MULTIPOINT, [[sel[k : k + 1]] for k in range(len(sel))]
    if t1 == LINESTRING:
        # line layer1: clip/subtract against the candidates, extracted to
        # the line primitive (the reference's lower-primitive rule,
        # _geoops_sql.py:1880-1891). line×line keeps/removes the
        # COLLINEAR overlap portions (point crossings drop out of
        # ST_CollectionExtract(..., 2)); line×polygon clips against the
        # candidate polygon union.
        cand_line = np.isin(cand.types[js], (LINESTRING, MULTILINESTRING))
        if cand_line.all():
            pieces = line_line_overlap(ga1._parts_of(i), cand, js, op)
        elif not cand_line.any():
            pieces = line_polygon_overlay(ga1._parts_of(i), cand, js, op)
        else:
            # MIXED line+polygon candidates (heterogeneous layer2, the
            # reference's lower-primitive extraction handles any mix,
            # _geoops_sql.py:1880-1891). difference vs a union is
            # sequential: (A − lines) − polygons. clip (intersection vs
            # the union) via double difference: A ∩ U = A − (A − U) —
            # exact, and overlapping line/polygon coverage merges
            # instead of duplicating.
            js_l, js_p = js[cand_line], js[~cand_line]

            def _seq_diff(parts):
                p1 = line_line_overlap(parts, cand, js_l, "difference")
                if not p1:
                    return []
                return line_polygon_overlay(
                    [[p] for p in p1], cand, js_p, "difference"
                )

            if op == "difference":
                pieces = _seq_diff(ga1._parts_of(i))
            else:
                rem = _seq_diff(ga1._parts_of(i))
                if not rem:
                    pieces = [
                        r for part in ga1._parts_of(i) for r in part
                    ]
                else:
                    from ..geom.array import GeometryArray as _GA

                    rem_ga = _GA.from_parts(
                        [(LINESTRING, [[p]]) for p in rem]
                    )
                    pieces = line_line_overlap(
                        ga1._parts_of(i),
                        rem_ga,
                        np.arange(len(rem)),
                        "difference",
                    )
        if not pieces:
            return LINESTRING, []
        if len(pieces) == 1:
            return LINESTRING, [[pieces[0]]]
        return MULTILINESTRING, [[p] for p in pieces]
    if t1 != POLYGON:
        raise NotImplementedError(
            "overlay ops support polygon, line and point layer1 geometries"
        )
    # NO pre-union of the candidates: the sweep's winding rule (wb > 0)
    # already evaluates operand B as the union of everything fed to it,
    # so overlapping candidates are handled in the SAME sweep that
    # computes the overlay — one sweep per row instead of two (the
    # pre-union pass measured as half the difference/clip wall time)
    # POLYGON subject: only polygon candidates matter — line/point
    # candidates have zero area, and the output primitive follows
    # layer1 (reference force_output_geometrytype, clip/erase keep the
    # input layer's type). Filtering by part type also keeps a ≥4-point
    # LINE candidate from being swept as if it were a ring.
    cand_parts = [
        p
        for j in js
        if cand.part_types(int(j)) == POLYGON
        for p in cand._parts_of(int(j))
        if len(p) and len(p[0]) >= 4
    ]
    res = polygon_overlay(ga1._parts_of(i), cand_parts, op)
    return parts_to_geom(res)


def _pairwise_overlay_geoms(
    ga1: GeometryArray, ia: np.ndarray, ga2: GeometryArray, ib: np.ndarray
) -> list[bytes | None]:
    """Pairwise g1 ∩ g2 per candidate pair, WKB-encoded; empty → None.

    Paths, in order: rect×rect pairs are the overlap box; a subject
    inside a rect partner is copied; a small single ring × rect or
    convex ring is clipped in one batch (convexclip.clip_pairs); only
    the rest, and clipped rings that are not a simple polygon, take the
    per-pair sweep."""
    from ..geom.wkb import _fast_encode
    from .relation import detect_rects

    n = len(ia)
    if n == 0:
        return []
    r1, r2 = detect_rects(ga1), detect_rects(ga2)
    fast = (
        r1[ia] & r2[ib]
        & (ga1.types[ia] == POLYGON)
        & (ga2.types[ib] == POLYGON)
    )
    out: list[bytes | None] = [None] * n
    if fast.any():
        k = np.flatnonzero(fast)
        b1 = ga1.bounds()[ia[k]]
        b2 = ga2.bounds()[ib[k]]
        x0 = np.maximum(b1[:, 0], b2[:, 0])
        y0 = np.maximum(b1[:, 1], b2[:, 1])
        x1 = np.minimum(b1[:, 2], b2[:, 2])
        y1 = np.minimum(b1[:, 3], b2[:, 3])
        ok = (x1 > x0) & (y1 > y0)
        kk = k[ok]
        if len(kk):
            from ..io.synth import rect_wkb

            arr = rect_wkb(x0[ok], y0[ok], x1[ok], y1[ok])
            blobs = arr.to_pylist()
            for pos, kk_i in enumerate(kk):
                out[kk_i] = blobs[pos]
    # ANY-shape subject fully inside a rect partner: the intersection IS
    # the subject — one batched byte copy, no sweep (the dominant case
    # for small features × large tile/zone rectangles: ~80% of the
    # lshape × zone pairs at sf0.01; the rest cross a zone edge and take
    # the clip below)
    if not fast.all():
        for sel_rect, gsub, isub, grect, irect in (
            (r2, ga1, ia, ga2, ib),
            (r1, ga2, ib, ga1, ia),
        ):
            bs = gsub.bounds()[isub]
            br = grect.bounds()[irect]
            cov = (
                ~fast
                & sel_rect[irect]
                & (grect.types[irect] == POLYGON)
                & (bs[:, 0] >= br[:, 0])
                & (bs[:, 1] >= br[:, 1])
                & (bs[:, 2] <= br[:, 2])
                & (bs[:, 3] <= br[:, 3])
                & ~gsub.is_empty()[isub]
            )
            if cov.any():
                k = np.flatnonzero(cov)
                blobs = to_wkb(gsub.take(isub[k]))
                for pos, kk_i in enumerate(k):
                    out[kk_i] = blobs[pos]
                fast = fast | cov
    # small single ring × rect or convex ring: batched Sutherland-Hodgman
    # clip (one numpy pass over all such pairs, e.g. every L-shape ×
    # triangle pair); rings that fold into a bridge or spike (a
    # MultiPolygon or touch-only answer) go on to the sweep
    if not fast.all():
        from ..geom.convexclip import clip_pairs, padded_to_wkb

        k, P, cnt, ok = clip_pairs(ga1, ia, ga2, ib, r1, r2, ~fast)
        k, P, cnt = k[ok], P[ok], cnt[ok]
        for kk_i, blob in zip(k, padded_to_wkb(P, cnt)):
            out[kk_i] = blob
        fast[k] = True
    # general fallback pairs: sweep per pair, but assemble + WKB-encode
    # the whole batch ONCE (per-pair from_parts/to_wkb was ~15% of the
    # fallback path's time)
    slow = np.flatnonzero(~fast)
    if len(slow):
        geoms = []
        for k in slow:
            i, j = int(ia[k]), int(ib[k])
            geoms.append(
                _geom_of_pair_op(ga1, i, ga2, np.array([j]), "intersection")
            )
        g = GeometryArray.from_parts(geoms)
        nonempty = ~g.is_empty()
        if nonempty.any():
            wkbs = to_wkb(g)
            for pos in np.flatnonzero(nonempty):
                out[slow[pos]] = wkbs[pos]
    return out


def _sliver_keep_mask(ga: GeometryArray, tolerance: float) -> np.ndarray:
    """Reference sliver rule (_get_sliver_where, _geoops_sql.py:4059-4130):
    a polygon is a sliver iff its average width 2·area/perimeter <
    |tolerance| AND reducing precision to |tolerance| collapses it.
    Positive tolerance keeps non-slivers; negative keeps only slivers."""
    from ..geom.algorithms import set_precision
    from ..geom.measure import area as _area
    from ..geom.measure import perimeter as _perim

    tol = abs(tolerance)
    a = _area(ga)
    p = _perim(ga)
    narrow = np.where(p > 0, 2.0 * a / np.where(p > 0, p, 1.0), 0.0) < tol
    sliver = narrow.copy()
    idx = np.flatnonzero(narrow)
    if len(idx):
        reduced = set_precision(ga.take(idx), tol)
        sliver[idx] = reduced.is_empty()
    return ~sliver if tolerance > 0 else sliver


def _filter_slivers(ds: ray.data.Dataset, tolerance: float) -> ray.data.Dataset:
    def fn(batch: pa.Table) -> pa.Table:
        ga = from_wkb(batch.column(_GEOM))
        keep = _sliver_keep_mask(ga, tolerance)
        return batch.take(pa.array(np.flatnonzero(keep)))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _apply_geom_post(
    ds: ray.data.Dataset,
    gridsize: float = 0.0,
    explodecollections: bool = False,
    where_post: str | None = None,
    keep_empty_geoms: bool = False,
) -> ray.data.Dataset:
    """Standard post-chain on a two-layer op's output — the reference
    wraps every two-layer SQL template with gridsize / explode /
    where_post (_geoops_sql.py:3626-3646); here it is one extra
    map_batches stage, applied only when a post option is set."""
    if not (gridsize or explodecollections or where_post):
        return ds
    from .geometry_batch import geometry_op

    fn = geometry_op(
        lambda ga: ga,
        gridsize=gridsize,
        keep_empty_geoms=keep_empty_geoms,
        explodecollections=explodecollections,
        where_post=where_post,
    )
    return ds.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=OPTIONS.batch_size,
    )


# reference subdivide triggers: 15000 coords for intersection-family ops,
# 2000 for difference/export (geoops.py defaults, _geoops_sql.py:1893-1929)
_SUBDIVIDE_INTERSECTION = 15_000
_SUBDIVIDE_DIFFERENCE = 2_000


def _reunion_pairs(t: pa.Table) -> pa.Table:
    """Re-union the per-piece intersections of each (l1_doc_id,
    l2_doc_id) pair into one row (reference ST_Union GROUP BY fids,
    _geoops_sql.py:2027-2070). Singleton pairs (the vast majority) pass
    through with ONE vectorized filter; only multi-piece pairs are
    decoded and run the union sweep. ``t`` itself, in its order, when no
    pair has more than one row, found by sorting the two id columns
    only."""
    n = len(t)
    if n == 0:
        return t
    order = pc.sort_indices(
        t.select(["l1_doc_id", "l2_doc_id"]),
        sort_keys=[("l1_doc_id", "ascending"), ("l2_doc_id", "ascending")],
    )
    k1 = t.column("l1_doc_id").take(order).to_numpy()
    k2 = t.column("l2_doc_id").take(order).to_numpy()
    new1 = np.concatenate([[True], (k1[1:] != k1[:-1]) | (k2[1:] != k2[:-1])])
    starts = np.flatnonzero(new1)
    L = np.diff(np.concatenate([starts, [n]]))
    multi = starts[L > 1]
    if not len(multi):
        return t
    srt = t.take(order)
    single = np.repeat(L == 1, L)
    outs = [srt.filter(pa.array(single))]
    # filter just the geometry column (the attrs aren't needed)
    ga = from_wkb(srt.column(_GEOM).filter(pa.array(~single)))
    Lm = L[L > 1]
    sub_starts = np.concatenate([[0], np.cumsum(Lm[:-1])])
    geoms = []
    for st, ln in zip(sub_starts, Lm):
        parts = union_all_parts(
            [ga._parts_of(int(st + i)) for i in range(int(ln))]
        )
        geoms.append(parts_to_geom(parts))
    g = GeometryArray.from_parts(geoms)
    base = srt.take(pa.array(multi, pa.int64())).drop_columns([_GEOM])
    outs.append(base.append_column(_GEOM, to_wkb_arrow(g)))
    return pa.concat_tables(outs)


def intersection(
    ds1: ray.data.Dataset,
    ds2: ray.data.Dataset,
    cols1: list[str] | None = None,
    cols2: list[str] | None = None,
    size: float | None = None,
    salt: bool = False,
    subdivide_coords: int | None = None,
    sliver_tolerance: float | None = None,
    gridsize: float = 0.0,
    explodecollections: bool = False,
    where_post: str | None = None,
) -> ray.data.Dataset:
    """Pairwise spatial intersection (inner overlay join).

    Complex inputs (> subdivide_coords coords) are subdivided and the
    per-pair pieces re-unioned per (l1, l2) id pair — the reference's
    probe-and-reunion pass (_geoops_sql.py:1893-1929, :2027-2070). The
    broadcast-or-partition choice comes first and shapes the rest
    (``cell_cogroup``'s ``reunion``): broadcast splits the collected
    layer2 and each layer1 batch's over-limit rows inside its own task,
    re-unioning there too, so no probe runs; the cell shuffle probes
    both layers, subdivides them as stages and re-unions with a
    shuffle."""
    size = size or OPTIONS.cell_size
    cols1 = list(cols1 or _attr_cols(ds1))
    cols2 = list(cols2 or _attr_cols(ds2))
    sub_limit = subdivide_coords or _SUBDIVIDE_INTERSECTION

    def group_fn(g1, ga1, g2, ga2, cell):
        ia, ib = bbox_join_auto(ga1.bounds(), ga2)
        if len(ia) and cell is not None:
            ref = _ref_cell(ga1.bounds()[ia], ga2.bounds()[ib], size)
            own = ref == cell
            ia, ib = ia[own], ib[own]
        wkb = _pairwise_overlay_geoms(ga1, ia, ga2, ib)
        keep = np.array([w is not None for w in wkb], dtype=bool)
        ia, ib = ia[keep], ib[keep]
        out = _pair_table(g1, ia, g2, ib)
        out = out.drop_columns(["l1_" + _GEOM, "l2_" + _GEOM])
        return out.append_column(
            _GEOM, pa.array([w for w in wkb if w is not None], pa.binary())
        )

    out = cell_cogroup(
        ds1, ds2, group_fn, cols1, cols2, size=size, salt=salt,
        subdivide2=sub_limit, reunion=_reunion_pairs,
    )
    if sliver_tolerance:
        out = _filter_slivers(out, sliver_tolerance)
    return _apply_geom_post(
        out, gridsize=gridsize, explodecollections=explodecollections,
        where_post=where_post,
    )


def _interior_pairs_mask(
    ga1: GeometryArray, ia: np.ndarray, ga2: GeometryArray, ib: np.ndarray
) -> np.ndarray:
    """True per candidate pair unless the pair PROVABLY has no interior
    intersection. Pairs eligible for the vectorized rect/convex-SAT
    predicate paths are tested exactly ('intersects and not touches');
    everything else stays True (assume-intersecting), so no per-pair
    Python predicate ever runs here.

    Used by difference/clip to drop candidates that cannot change the
    result: g1 − g2 = g1 and g1 ∩ g2 = ∅ (as a polygon) whenever the
    interiors are disjoint — the majority of bbox candidates on dense
    layers, each of which would otherwise cost a full per-row sweep."""
    m = len(ia)
    if m == 0:
        return np.zeros(0, dtype=bool)
    from ..geom.convexclip import clip_operands
    from .relation import RelationQuery, detect_rects, evaluate_pairs

    r1, r2 = detect_rects(ga1), detect_rects(ga2)
    cvx1 = clip_operands(ga1)[1]
    cvx2 = clip_operands(ga2)[1]
    eligible = (
        (r1[ia] & r2[ib])
        | (cvx1[ia] & r2[ib] & (ga2.types[ib] == POLYGON))
        | (cvx2[ib] & r1[ia] & (ga1.types[ia] == POLYGON))
    )
    keep = np.ones(m, dtype=bool)
    if eligible.any():
        k = np.flatnonzero(eligible)
        q = RelationQuery("intersects is True and touches is False")
        keep[k] = evaluate_pairs(q, ga1, ia[k], ga2, ib[k])
    # convex × convex pairs (neither side a rect): batched two-sided SAT
    # — e.g. triangle layers, where edge-touching neighbours are the
    # MAJORITY of bbox candidates and would otherwise all be swept
    cc = ~eligible & cvx1[ia] & cvx2[ib]
    if cc.any():
        from ..geom.convexclip import convex_convex_interiors

        k = np.flatnonzero(cc)
        keep[k] = convex_convex_interiors(ga1, ia[k], ga2, ib[k])
    return keep


def _dedupe_rect_candidates(gaB, js: np.ndarray) -> np.ndarray:
    """Drop duplicate rectangle candidates (equal bounds ⇔ equal geometry
    for axis-aligned rects). difference/clip always run against
    union(candidates), which is invariant under duplicates — and a
    replicated dense pile (the urban hot cluster: hundreds of stacked
    copies, single-digit distinct rects) otherwise multiplies every
    per-row sweep's operand B for zero effect on the result."""
    if len(js) < 2:
        return js
    from .relation import detect_rects

    r = detect_rects(gaB)[js]
    if not r.any():
        return js
    nb = gaB.bounds()[js[r]]
    _, uidx = np.unique(nb, axis=0, return_index=True)
    return np.concatenate([js[~r], js[r][np.sort(uidx)]])


def _resolve_local_rows(
    ga1: GeometryArray,
    ga2: GeometryArray,
    geom_col,
    local: np.ndarray,
    ia_s: np.ndarray,
    ib_s: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    op: str,
    keep_no_candidate_rows: bool,
) -> tuple[list[int], list[bytes], list[bool]]:
    """Resolve the single-cell rows of a difference/clip group.

    Third return: per done row, True iff the row PASSED THROUGH untouched
    (zero candidates after interior pruning — its output bytes are the
    input bytes). union_full_self uses this to skip the cover re-attach
    join for untouched pieces (their cover count is exactly 1).

    The per-row sweep's cost is DOMINATED by fixed numpy overhead
    (~0.7 ms/row for a 5-point rect minus 2 triangles), so rows whose
    bboxes are pairwise disjoint are packed into Morton-ordered batches
    (point-capped, like dissolve's component batching) and resolved in
    ONE sweep each: operand A = all batch rows, operand B = the union of
    their candidate sets. Winding counts keep the rows independent —
    any candidate overlapping a row's region is necessarily one of that
    row's own bbox candidates — and each output part is assigned back
    to its row by bbox containment of its first vertex (unambiguous
    because batches admit no touching/overlapping row bboxes).
    Non-polygon rows, conflict rows and unclosed-ring fallbacks take the
    original per-row path."""
    from ..geom.array import MULTIPOLYGON
    from ..geom.boolops import _keep_fn, _sweep, ga_union_segments

    done_idx: list[int] = []
    done_wkb: list[bytes] = []
    done_pass: list[bool] = []
    rows_all = np.flatnonzero(local)
    if len(rows_all) == 0:
        return done_idx, done_wkb, done_pass
    if len(ia_s):
        # drop candidates whose interiors provably don't meet the row
        # (vectorized rect/convex-SAT test; non-eligible pairs stay).
        # They cannot change a difference/clip result, and on skewed
        # dense regions they are the MAJORITY of bbox candidates — each
        # one dropped is segments the sweep never sees. Rows left with
        # zero candidates take the pass-through/drop branch below.
        kp = _interior_pairs_mask(ga1, ia_s, ga2, ib_s)
        if not kp.all():
            ia_s, ib_s = ia_s[kp], ib_s[kp]
            n1 = len(local)
            starts = np.searchsorted(ia_s, np.arange(n1))
            stops = np.searchsorted(ia_s, np.arange(n1) + 1)
    if len(ia_s):
        # rows whose bbox sits INSIDE a solid rect candidate need no
        # sweep either: difference → fully erased (no output row),
        # clip → the row itself (pass-through bytes)
        from .relation import detect_rects

        r2m = detect_rects(ga2)
        bA, bB = ga1.bounds(), ga2.bounds()
        cov = (
            r2m[ib_s]
            & (ga2.types[ib_s] == POLYGON)
            & (bA[ia_s, 0] >= bB[ib_s, 0])
            & (bA[ia_s, 1] >= bB[ib_s, 1])
            & (bA[ia_s, 2] <= bB[ib_s, 2])
            & (bA[ia_s, 3] <= bB[ib_s, 3])
        )
        if cov.any():
            cov_rows = np.zeros(len(local), dtype=bool)
            cov_rows[ia_s[cov]] = True
            cov_rows &= local
            if cov_rows.any():
                rows_c = np.flatnonzero(cov_rows)
                if op == "intersection":
                    done_idx.extend(int(i) for i in rows_c)
                    done_wkb.extend(
                        geom_col.take(pa.array(rows_c, pa.int64())).to_pylist()
                    )
                    done_pass.extend([False] * len(rows_c))
                keep_p = ~cov_rows[ia_s]
                ia_s, ib_s = ia_s[keep_p], ib_s[keep_p]
                n1 = len(local)
                starts = np.searchsorted(ia_s, np.arange(n1))
                stops = np.searchsorted(ia_s, np.arange(n1) + 1)
                local = local & ~cov_rows
                rows_all = np.flatnonzero(local)
                if len(rows_all) == 0:
                    return done_idx, done_wkb, done_pass
    ncand = stops[rows_all] - starts[rows_all]
    # ---- zero-candidate rows: pass through (difference) or drop (clip)
    if keep_no_candidate_rows:
        zc = rows_all[ncand == 0]
        if len(zc):
            done_idx.extend(int(i) for i in zc)
            # one batched take instead of per-row chunked-column getitem
            done_wkb.extend(
                geom_col.take(pa.array(zc, pa.int64())).to_pylist()
            )
            done_pass.extend([True] * len(zc))
    rows = rows_all[ncand > 0]
    if len(rows) == 0:
        return done_idx, done_wkb, done_pass
    # ---- batchable = polygonal row with all-polygonal candidates
    poly1 = np.isin(ga1.types, (POLYGON, MULTIPOLYGON))
    poly2 = np.isin(ga2.types, (POLYGON, MULTIPOLYGON))
    okc = poly2[ib_s].astype(np.int64)
    cs = np.concatenate([[0], np.cumsum(okc)])
    all_poly = (cs[stops[rows]] - cs[starts[rows]]) == (
        stops[rows] - starts[rows]
    )
    batchable = rows[poly1[rows] & all_poly]
    fallback = list(rows[~(poly1[rows] & all_poly)])
    out_rows: list[int] = []
    out_geoms: list[tuple[int, list]] = []
    if len(batchable):
        geo1, po1, ro1 = ga1.geom_offsets, ga1.part_offsets, ga1.ring_offsets
        geo2, po2, ro2 = ga2.geom_offsets, ga2.part_offsets, ga2.ring_offsets
        npts1 = ro1[po1[geo1[batchable + 1]]] - ro1[po1[geo1[batchable]]]
        npts2_all = ro2[po2[geo2[1:]]] - ro2[po2[geo2[:-1]]]
        bb = ga1.bounds()[batchable]
        from ..stages.dissolve import _morton_codes

        ctr = np.stack(
            [(bb[:, 0] + bb[:, 2]) * 0.5, (bb[:, 1] + bb[:, 3]) * 0.5], axis=1
        )
        order = np.argsort(_morton_codes(ctr), kind="stable")
        # first-fit over K open batches: a row conflicting with one batch
        # (bbox overlap/touch — disjointness is what keeps windings and
        # the part→row assignment independent) tries the next, so dense
        # clusters of mutually-overlapping rows spread across batches
        # instead of degenerating to singletons. Union-bbox quick test
        # short-circuits the per-row scan for the common far-away case.
        CAP = 1024
        K = 8

        class _Batch:
            __slots__ = ("rows", "bbs", "n", "pts", "ubox")

            def __init__(self):
                self.rows: list[int] = []
                self.bbs = np.empty((64, 4))
                self.n = 0
                self.pts = 0
                self.ubox = np.array([np.inf, np.inf, -np.inf, -np.inf])

            def conflicts(self, box) -> bool:
                u = self.ubox
                if box[0] > u[2] or box[2] < u[0] or box[1] > u[3] or box[3] < u[1]:
                    return False
                cb = self.bbs[: self.n]
                return bool(
                    (
                        (box[0] <= cb[:, 2])
                        & (box[2] >= cb[:, 0])
                        & (box[1] <= cb[:, 3])
                        & (box[3] >= cb[:, 1])
                    ).any()
                )

            def add(self, i, box, pts):
                if self.n == len(self.bbs):
                    self.bbs = np.concatenate([self.bbs, self.bbs], axis=0)
                self.bbs[self.n] = box
                self.n += 1
                self.rows.append(i)
                self.pts += pts
                self.ubox[0] = min(self.ubox[0], box[0])
                self.ubox[1] = min(self.ubox[1], box[1])
                self.ubox[2] = max(self.ubox[2], box[2])
                self.ubox[3] = max(self.ubox[3], box[3])

        batches: list[list[int]] = []
        open_b: list[_Batch] = []
        for oi in order:
            i = int(batchable[oi])
            js = ib_s[starts[i] : stops[i]]
            pts = int(npts1[oi] + npts2_all[js].sum())
            box = bb[oi]
            placed = False
            for b in open_b:
                if b.pts + pts <= CAP and not b.conflicts(box):
                    b.add(i, box, pts)
                    placed = True
                    break
            if not placed:
                if len(open_b) == K:
                    batches.append(open_b.pop(0).rows)
                nb = _Batch()
                nb.add(i, box, pts)
                open_b.append(nb)
        batches.extend(b.rows for b in open_b)
        for members in batches:
            # singletons stay on this path too: ga_union_segments is the
            # vectorized ragged extraction — the per-row fallback's
            # python per-ring ensure_closed/orient loop is ~10× slower
            # on rows with hundreds of candidates
            marr = np.asarray(members, dtype=np.int64)
            cands = _dedupe_rect_candidates(
                ga2,
                np.unique(
                    np.concatenate(
                        [ib_s[starts[i] : stops[i]] for i in members]
                    )
                ),
            )
            segA = ga_union_segments(ga1, marr)
            segB = ga_union_segments(ga2, cands)
            if segA is None or segB is None or not len(segA) or not len(segB):
                fallback.extend(members)
                continue
            segs = np.concatenate([segA, segB], axis=0)
            tags = np.concatenate(
                [
                    np.zeros(len(segA), dtype=np.int8),
                    np.ones(len(segB), dtype=np.int8),
                ]
            )
            parts = _sweep(segs, tags, _keep_fn(op))
            # assign each output part back to its (disjoint-bbox) row
            mb = ga1.bounds()[marr]
            per_row: dict[int, list] = {}
            for part in parts:
                pt = part[0][0]
                hit = np.flatnonzero(
                    (pt[0] >= mb[:, 0] - 1e-9)
                    & (pt[0] <= mb[:, 2] + 1e-9)
                    & (pt[1] >= mb[:, 1] - 1e-9)
                    & (pt[1] <= mb[:, 3] + 1e-9)
                )
                if len(hit) == 0:
                    continue  # degenerate sliver outside every row bbox
                if len(hit) > 1:  # eps tie → nearest bbox center
                    cx = (mb[hit, 0] + mb[hit, 2]) * 0.5 - pt[0]
                    cy = (mb[hit, 1] + mb[hit, 3]) * 0.5 - pt[1]
                    hit = hit[[int(np.argmin(cx * cx + cy * cy))]]
                per_row.setdefault(int(marr[hit[0]]), []).append(part)
            for i, rparts in per_row.items():
                out_rows.append(i)
                out_geoms.append(parts_to_geom(rparts))
    # ---- per-row fallback (original path)
    for i in fallback:
        js = _dedupe_rect_candidates(ga2, ib_s[starts[i] : stops[i]])
        code, parts = _geom_of_pair_op(ga1, int(i), ga2, js, op)
        out_rows.append(int(i))
        out_geoms.append((code, parts))
    if out_rows:
        out_ga = GeometryArray.from_parts(out_geoms)
        nonempty = ~out_ga.is_empty()
        wkbs = to_wkb(out_ga)
        for k in np.flatnonzero(nonempty):
            done_idx.append(out_rows[k])
            done_wkb.append(wkbs[k])
            done_pass.append(False)
    return done_idx, done_wkb, done_pass


def _difference_group_part(
    gA: pa.Table,
    gaA: GeometryArray,
    gaB: GeometryArray,
    geomA_name: str,
    geomB_col,
    ia: np.ndarray,
    ib: np.ndarray,
    cell: int | None,
    size: float,
    op: str,
    keep_no_candidate_rows: bool,
) -> tuple[pa.Table, pa.Table]:
    """One difference/clip direction inside a cell group: resolve the
    single-cell A rows locally against the union of their candidates
    (``_resolve_local_rows``), emit straddler A rows as pending pair rows
    (one candidate each) plus one owner row, for the later per-doc
    gather. ``ia`` indexes gA/gaA, ``ib`` indexes gaB; pairs must already
    be ownership-deduped by the caller.

    Returns ``(done_t, pend_t)`` — done_t: A attr columns + ``geometry``;
    pend_t: A attr columns + ``__g1`` + ``__cand``."""
    bA = gaA.bounds()
    nA = len(gA)
    if cell is None:
        # broadcast mode: every row sees all candidates — resolve
        # everything locally, no straddler/owner machinery
        local = np.ones(nA, dtype=bool)
        owner = local
    else:
        owner = _owner_cell(bA, size) == cell
        one_cell = (
            np.floor(bA[:, 0] / size) == np.floor(bA[:, 2] / size)
        ) & (np.floor(bA[:, 1] / size) == np.floor(bA[:, 3] / size))
        local = owner & one_cell
    attrs = gA.drop_columns([geomA_name])
    order = np.argsort(ia, kind="stable") if len(ia) else np.empty(0, np.int64)
    ia_s, ib_s = ia[order], ib[order]
    starts = np.searchsorted(ia_s, np.arange(nA))
    stops = np.searchsorted(ia_s, np.arange(nA) + 1)
    done_idx, done_wkb, done_pass = _resolve_local_rows(
        gaA, gaB, gA.column(geomA_name), local, ia_s, ib_s, starts, stops,
        op, keep_no_candidate_rows,
    )
    done_t = attrs.take(pa.array(done_idx, pa.int64()))
    done_t = done_t.append_column(_GEOM, pa.array(done_wkb, pa.binary()))
    done_t = done_t.append_column(
        "__pass", pa.array(done_pass, pa.bool_())
    )
    keep_pair = ~local[ia_s] if len(ia_s) else np.zeros(0, bool)
    pia = ia_s[keep_pair]
    pib = ib_s[keep_pair]
    pair_t = attrs.take(pa.array(pia))
    pair_t = pair_t.append_column(
        "__g1", gA.column(geomA_name).take(pa.array(pia))
    )
    pair_t = pair_t.append_column("__cand", geomB_col.take(pa.array(pib)))
    own_rows = np.flatnonzero(owner & ~local)
    own_t = attrs.take(pa.array(own_rows))
    own_t = own_t.append_column(
        "__g1", gA.column(geomA_name).take(pa.array(own_rows))
    )
    own_t = own_t.append_column("__cand", pa.nulls(len(own_rows), pa.binary()))
    return done_t, pa.concat_tables([pair_t, own_t])


def _resolve_pending_batched(
    pending: ray.data.Dataset,
    key_cols: list[str],
    op: str,
    keep_no_candidate_rows: bool,
    emit_pass: bool = False,
) -> ray.data.Dataset:
    """Resolve straddler rows (one __g1 + many __cand rows per doc key)
    WITHOUT one Python map_groups call per doc: hash-bucket the keys into
    a fixed number of salt partitions (same key → same bucket), then one
    call per bucket runs ``_resolve_local_rows`` over ALL its docs — the
    same Morton-batched sweep machinery the local path uses, so pending
    docs share interior pruning, covered-row shortcuts and packed
    assembly. Output: first-row attrs per resolved doc (minus the
    scaffold columns) + ``geometry`` (+ ``__pass`` when requested)."""
    from .agg import _salt_parts, default_nparts

    nparts = default_nparts()  # fixed at the driver: same key, same part
    scaffold = ["__g1", "__cand", "__done", _GEOM, "__part"]

    def _key_arr(batch: pa.Table) -> np.ndarray:
        if len(key_cols) == 1:
            return batch.column(key_cols[0]).to_numpy(zero_copy_only=False)
        vals = list(zip(*[batch.column(c).to_pylist() for c in key_cols]))
        arr = np.empty(len(batch), dtype=object)
        arr[:] = vals
        return arr

    def bucketed(batch: pa.Table) -> pa.Table:
        return _salt_parts(batch, key_cols, nparts)

    def resolve(group: pa.Table) -> pa.Table:
        ids = _key_arr(group)
        _, inv = np.unique(ids, return_inverse=True)
        n1 = int(inv.max()) + 1 if len(inv) else 0
        order = np.argsort(inv, kind="stable")
        first_rows = order[np.searchsorted(inv[order], np.arange(n1))]
        g1_tbl = group.take(pa.array(first_rows, pa.int64()))
        ga1 = from_wkb(g1_tbl.column("__g1"))
        # dedupe (doc, candidate-bytes) pairs and candidate blobs
        cand_list = group.column("__cand").to_pylist()
        blob_idx: dict[bytes, int] = {}
        pair_seen: set[tuple[int, bytes]] = set()
        ia_l: list[int] = []
        ib_l: list[int] = []
        for k, c in enumerate(cand_list):
            if c is None:
                continue
            key = (int(inv[k]), c)
            if key in pair_seen:
                continue
            pair_seen.add(key)
            j = blob_idx.setdefault(c, len(blob_idx))
            ia_l.append(key[0])
            ib_l.append(j)
        ga2 = from_wkb(list(blob_idx.keys()))
        ia = np.asarray(ia_l, np.int64)
        ib = np.asarray(ib_l, np.int64)
        o2 = np.argsort(ia, kind="stable")
        ia_s, ib_s = ia[o2], ib[o2]
        starts = np.searchsorted(ia_s, np.arange(n1))
        stops = np.searchsorted(ia_s, np.arange(n1) + 1)
        done_idx, done_wkb, done_pass = _resolve_local_rows(
            ga1, ga2, g1_tbl.column("__g1"), np.ones(n1, dtype=bool),
            ia_s, ib_s, starts, stops, op, keep_no_candidate_rows,
        )
        out = g1_tbl.drop_columns(
            [c for c in scaffold if c in g1_tbl.column_names]
        ).take(pa.array(done_idx, pa.int64()))
        out = out.append_column(_GEOM, pa.array(done_wkb, pa.binary()))
        if emit_pass:
            out = out.append_column("__pass", pa.array(done_pass, pa.bool_()))
        return out

    return (
        pending.map_batches(bucketed, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(resolve, batch_format="pyarrow")
    )


def _per_row_overlay(
    ds1: ray.data.Dataset,
    ds2: ray.data.Dataset,
    op: str,
    keep_no_candidate_rows: bool,
    cols1: list[str],
    size: float | None = None,
    salt: bool = False,
    subdivide_coords: int | None = None,
    sliver_tolerance: float | None = None,
) -> ray.data.Dataset:
    """Common spine of clip (op='intersection', drop no-candidate rows)
    and difference (op='difference', pass-through no-candidate rows).

    Scale shape: a layer1 row whose bbox fits in ONE cell sees its FULL
    candidate set inside that cell's group (any bbox-overlapping layer2
    row was replicated there too), so it is resolved locally — no
    shuffle. Only rows whose bbox straddles cells go through the
    ``groupby(l1_doc_id)`` gather (mirroring the reference's operand
    shape — the op always runs against the UNION of all candidates,
    _geoops_sql.py:1000-1028 — while keeping the wide shuffle to the
    straddler minority instead of one group per input row)."""
    size = size or OPTIONS.cell_size
    # the op runs against the UNION of candidates, so subdividing layer2
    # pieces (same doc_id per piece) never changes the result — only the
    # per-pair sweep sizes (reference subdivides input2 for difference,
    # _geoops_sql.py:1893-1929)
    sub_limit = subdivide_coords or _SUBDIVIDE_DIFFERENCE

    def group_fn(g1, ga1, g2, ga2, cell):
        b1 = ga1.bounds()
        ia, ib = bbox_join_auto(b1, ga2)
        if cell is not None and len(ia):
            ref = _ref_cell(b1[ia], ga2.bounds()[ib], size)
            own = ref == cell
            ia, ib = ia[own], ib[own]
        done_t, pend_t = _difference_group_part(
            g1, ga1, ga2, "l1_" + _GEOM, g2.column("l2_" + _GEOM),
            ia, ib, cell, size, op, keep_no_candidate_rows,
        )
        n_d = len(done_t)
        done_part = done_t.drop_columns([_GEOM, "__pass"])
        done_part = done_part.append_column("__g1", pa.nulls(n_d, pa.binary()))
        done_part = done_part.append_column("__cand", pa.nulls(n_d, pa.binary()))
        done_part = done_part.append_column(_GEOM, done_t.column(_GEOM))
        done_part = done_part.append_column(
            "__done", pa.array(np.ones(n_d, dtype=bool))
        )
        pend = pend_t.append_column(_GEOM, pa.nulls(len(pend_t), pa.binary()))
        pend = pend.append_column(
            "__done", pa.array(np.zeros(len(pend), dtype=bool))
        )
        return pa.concat_tables([done_part, pend])

    def strip(batch: pa.Table) -> pa.Table:
        return batch.drop_columns(["__g1", "__cand", "__done"])

    c1 = list(dict.fromkeys(["doc_id", *cols1]))
    f1g = _prefixed_schema(
        ds1.schema().base_schema, "l1_", [*c1, _GEOM]
    )
    f2g = _prefixed_schema(
        ds2.schema().base_schema, "l2_", ["doc_id", _GEOM]
    )
    g2t = _broadcast_side(ds2, f2g, subdivide=sub_limit)
    if g2t is not None:
        # broadcast: every row resolves locally (zero pending rows) — no
        # materialization / filter / gather stages at all
        out = broadcast_cogroup(
            ds1, g2t, group_fn, f1g, f2g,
            rows_per_task=OPTIONS.broadcast_rows_per_task or None,
        ).map_batches(strip, batch_format="pyarrow")
        if sliver_tolerance:
            out = _filter_slivers(out, sliver_tolerance)
        return out

    # one materialization so the two filter branches don't re-execute the
    # cogroup; size ≈ output rows + straddler pairs (spillable blocks)
    paired = cell_cogroup(
        ds1, ds2, group_fn, cols1, ["doc_id"], size=size, salt=salt,
        broadcast=False, subdivide2=sub_limit,
    ).materialize()

    done_ds = paired.filter(expr="__done == True").map_batches(
        strip, batch_format="pyarrow"
    )
    pending = paired.filter(expr="__done == False")
    # fully-erased rows are dropped inside the batched resolver (the
    # 'DIFF_EMPTY' sentinel analogue, _geoops_sql.py:1227-1270)
    resolved = _resolve_pending_batched(
        pending, ["l1_doc_id"], op, keep_no_candidate_rows
    )
    out = done_ds.union(resolved)
    if sliver_tolerance:
        out = _filter_slivers(out, sliver_tolerance)
    return out


def clip(
    ds1: ray.data.Dataset,
    ds2: ray.data.Dataset,
    cols1: list[str] | None = None,
    size: float | None = None,
    salt: bool = False,
    subdivide_coords: int | None = None,
    sliver_tolerance: float | None = None,
    gridsize: float = 0.0,
    explodecollections: bool = False,
    where_post: str | None = None,
) -> ray.data.Dataset:
    """g1 ∩ union(candidates), layer1 attrs only (geoops.clip)."""
    out = _per_row_overlay(
        ds1, ds2, "intersection", keep_no_candidate_rows=False,
        cols1=list(cols1 or _attr_cols(ds1)), size=size, salt=salt,
        subdivide_coords=subdivide_coords, sliver_tolerance=sliver_tolerance,
    )
    return _apply_geom_post(
        out, gridsize=gridsize, explodecollections=explodecollections,
        where_post=where_post,
    )


def difference(
    ds1: ray.data.Dataset,
    ds2: ray.data.Dataset,
    cols1: list[str] | None = None,
    size: float | None = None,
    salt: bool = False,
    subdivide_coords: int | None = None,
    sliver_tolerance: float | None = None,
    gridsize: float = 0.0,
    explodecollections: bool = False,
    where_post: str | None = None,
) -> ray.data.Dataset:
    """g1 − union(candidates); no-candidate rows pass through
    (geoops.difference / deprecated erase)."""
    out = _per_row_overlay(
        ds1, ds2, "difference", keep_no_candidate_rows=True,
        cols1=list(cols1 or _attr_cols(ds1)), size=size, salt=salt,
        subdivide_coords=subdivide_coords, sliver_tolerance=sliver_tolerance,
    )
    return _apply_geom_post(
        out, gridsize=gridsize, explodecollections=explodecollections,
        where_post=where_post,
    )


def _with_null_cols(ds: ray.data.Dataset, fields: list[pa.Field],
                    order: list[str]) -> ray.data.Dataset:
    def fn(batch: pa.Table) -> pa.Table:
        for f in fields:
            if f.name not in batch.column_names:
                batch = batch.append_column(f.name, pa.nulls(len(batch), f.type))
        return batch.select(order)

    return ds.map_batches(fn, batch_format="pyarrow")


def _fused_overlay(
    ds1: ray.data.Dataset,
    ds2: ray.data.Dataset,
    cols1: list[str],
    cols2: list[str],
    size: float,
    want_inter: bool,
    want_d21: bool,
) -> ray.data.Dataset:
    """Single-cogroup engine behind union / identity / symmetric_difference.

    The composed definitions (union = intersection ⊎ diff(a,b) ⊎
    diff(b,a)) run THREE full cell co-shuffles, each re-replicating,
    re-decoding and re-bbox-joining both layers. This engine computes all
    requested parts inside ONE cell group from ONE shared bbox_join +
    ownership dedup (one replication of each layer, one WKB decode per
    group, shared memoized rect/convex probes), emitting a tagged union:

    * ``__side=0`` — pairwise intersections (done rows, both attr sets);
    * ``__side=1`` — difference(a,b): single-cell rows resolved locally,
      straddlers pending for the per-doc gather;
    * ``__side=2`` — difference(b,a), roles swapped.

    One ``groupby(__side, __key)`` then resolves all pending straddlers
    of both directions together. Every row carries the full unified
    l1_*/l2_* schema (other side null), so the output is a single stream
    in the reference's column order — no dataset unions at all.

    When layer2 fits the broadcast budget the engine instead runs ONE
    no-shuffle broadcast pass computing intersection + difference(a,b)
    fully locally (zero pending rows — each layer1 batch sees all of
    layer2), plus, if requested, a second broadcast pass for
    difference(b,a) with the roles swapped (2 embarrassingly-parallel
    passes instead of the composed path's 3)."""
    c1 = list(dict.fromkeys(["doc_id", *cols1]))
    c2 = list(dict.fromkeys(["doc_id", *cols2]))
    f1 = _prefixed_schema(ds1.schema().base_schema, "l1_", c1)
    f2 = _prefixed_schema(ds2.schema().base_schema, "l2_", c2)
    order = [f.name for f in f1] + [f.name for f in f2] + [_GEOM]
    internal = ["__side", "__key", "__g1", "__cand", "__done"]

    def _assemble(t: pa.Table, missing: list[pa.Field], side: int,
                  key_name: str | None, done: bool) -> pa.Table:
        n = len(t)
        cols = {c: t.column(c) for c in t.column_names}
        for f in missing:
            cols[f.name] = pa.nulls(n, f.type)
        if _GEOM not in cols:
            cols[_GEOM] = pa.nulls(n, pa.binary())
        cols["__side"] = pa.array(np.full(n, side, dtype=np.int8))
        cols["__key"] = (
            cols[key_name].cast(pa.int64()) if key_name
            else pa.nulls(n, pa.int64())
        )
        if "__g1" not in cols:
            cols["__g1"] = pa.nulls(n, pa.binary())
        if "__cand" not in cols:
            cols["__cand"] = pa.nulls(n, pa.binary())
        cols["__done"] = pa.array(np.full(n, done, dtype=bool))
        names = order + internal
        return pa.table({k: cols[k] for k in names})

    def group_fn(g1, ga1, g2, ga2, cell):
        b1, b2 = ga1.bounds(), ga2.bounds()
        ia, ib = bbox_join_auto(b1, ga2)
        if cell is not None and len(ia):
            ref = _ref_cell(b1[ia], b2[ib], size)
            own = ref == cell
            ia, ib = ia[own], ib[own]
        parts: list[pa.Table] = []
        if want_inter:
            wkb = _pairwise_overlay_geoms(ga1, ia, ga2, ib)
            keep = (
                np.array([w is not None for w in wkb], dtype=bool)
                if len(ia) else np.zeros(0, dtype=bool)
            )
            t = _pair_table(g1, ia[keep], g2, ib[keep]).drop_columns(
                ["l1_" + _GEOM, "l2_" + _GEOM]
            )
            t = t.append_column(
                _GEOM, pa.array([w for w in wkb if w is not None], pa.binary())
            )
            parts.append(_assemble(t, [], 0, None, done=True))
        done12, pend12 = _difference_group_part(
            g1, ga1, ga2, "l1_" + _GEOM, g2.column("l2_" + _GEOM),
            ia, ib, cell, size, "difference", keep_no_candidate_rows=True,
        )
        parts.append(_assemble(done12, f2, 1, None, done=True))
        parts.append(_assemble(pend12, f2, 1, "l1_doc_id", done=False))
        if want_d21 and cell is not None:
            done21, pend21 = _difference_group_part(
                g2, ga2, ga1, "l2_" + _GEOM, g1.column("l1_" + _GEOM),
                ib, ia, cell, size, "difference", keep_no_candidate_rows=True,
            )
            parts.append(_assemble(done21, f1, 2, None, done=True))
            parts.append(_assemble(pend21, f1, 2, "l2_doc_id", done=False))
        return pa.concat_tables(parts)

    def strip(batch: pa.Table) -> pa.Table:
        return batch.select(order)

    c1g = [*c1, _GEOM] if _GEOM not in c1 else c1
    c2g = [*c2, _GEOM] if _GEOM not in c2 else c2
    f1g = _prefixed_schema(ds1.schema().base_schema, "l1_", c1g)
    f2g = _prefixed_schema(ds2.schema().base_schema, "l2_", c2g)
    g2t = _broadcast_side(ds2, f2g)
    if g2t is not None:
        # broadcast: one no-shuffle pass computes intersection + d12
        # entirely locally (cell=None ⇒ no pending rows); d21 gets its
        # own swapped broadcast pass below
        out = broadcast_cogroup(
            ds1, g2t, group_fn, f1g, f2g, rows_per_task=OPTIONS.broadcast_rows_per_task or None
        ).map_batches(strip, batch_format="pyarrow")
        if want_d21:
            d21 = _per_row_overlay(
                ds2, ds1, "difference", keep_no_candidate_rows=True,
                cols1=[c for c in c2 if c != "doc_id"], size=size,
            )

            def remap21(batch: pa.Table) -> pa.Table:
                batch = batch.rename_columns(
                    [c.replace("l1_", "l2_", 1) if c.startswith("l1_") else c
                     for c in batch.column_names]
                )
                for f in f1:
                    batch = batch.append_column(
                        f.name, pa.nulls(len(batch), f.type)
                    )
                return batch.select(order)

            out = out.union(d21.map_batches(remap21, batch_format="pyarrow"))
        return out

    paired = cell_cogroup(
        ds1, ds2, group_fn, c1, c2, size=size, broadcast=False
    ).materialize()

    done_ds = paired.filter(expr="__done == True").map_batches(
        strip, batch_format="pyarrow"
    )
    pending = paired.filter(expr="__done == False")
    resolved = _resolve_pending_batched(
        pending, ["__side", "__key"], "difference", keep_no_candidate_rows=True
    ).map_batches(strip, batch_format="pyarrow")
    return done_ds.union(resolved)


def _fused_eligible(ds1: ray.data.Dataset, ds2: ray.data.Dataset) -> bool:
    """The fused engine skips the auto-subdivide machinery, so route
    layers with complex geometries (difference would subdivide them)
    through the composed path instead; the probe is the same cheap
    byte-length scan the composed ops run anyway."""
    return (
        _max_coords_estimate(ds1) <= _SUBDIVIDE_DIFFERENCE
        and _max_coords_estimate(ds2) <= _SUBDIVIDE_DIFFERENCE
    )


def identity(
    ds1: ray.data.Dataset,
    ds2: ray.data.Dataset,
    cols1: list[str] | None = None,
    cols2: list[str] | None = None,
    size: float | None = None,
    gridsize: float = 0.0,
    explodecollections: bool = False,
    where_post: str | None = None,
) -> ray.data.Dataset:
    """intersection(a,b) ⊎ difference(a,b) (geoops.identity/split)."""
    cols1 = list(cols1 or _attr_cols(ds1))
    cols2 = list(cols2 or _attr_cols(ds2))
    if _fused_eligible(ds1, ds2):
        out = _fused_overlay(
            ds1, ds2, cols1, cols2, size or OPTIONS.cell_size,
            want_inter=True, want_d21=False,
        )
        return _apply_geom_post(
            out, gridsize=gridsize, explodecollections=explodecollections,
            where_post=where_post,
        )
    inter = intersection(ds1, ds2, cols1, cols2, size=size)
    diff = difference(ds1, ds2, cols1, size=size)
    f2 = _prefixed_schema(
        ds2.schema().base_schema, "l2_", list(dict.fromkeys(["doc_id", *cols2]))
    )
    order = (
        ["l1_" + c for c in dict.fromkeys(["doc_id", *cols1])]
        + [f.name for f in f2]
        + [_GEOM]
    )
    out = _with_null_cols(inter, [], order).union(_with_null_cols(diff, f2, order))
    return _apply_geom_post(
        out, gridsize=gridsize, explodecollections=explodecollections,
        where_post=where_post,
    )


def symmetric_difference(
    ds1: ray.data.Dataset,
    ds2: ray.data.Dataset,
    cols1: list[str] | None = None,
    cols2: list[str] | None = None,
    size: float | None = None,
    gridsize: float = 0.0,
    explodecollections: bool = False,
    where_post: str | None = None,
) -> ray.data.Dataset:
    """difference(a,b) ⊎ difference(b,a), other-side columns null."""
    cols1 = list(cols1 or _attr_cols(ds1))
    cols2 = list(cols2 or _attr_cols(ds2))
    if _fused_eligible(ds1, ds2):
        out = _fused_overlay(
            ds1, ds2, cols1, cols2, size or OPTIONS.cell_size,
            want_inter=False, want_d21=True,
        )
        return _apply_geom_post(
            out, gridsize=gridsize, explodecollections=explodecollections,
            where_post=where_post,
        )
    d12 = difference(ds1, ds2, cols1, size=size)
    d21 = difference(ds2, ds1, cols2, size=size)

    # d21 columns are l1_-prefixed from its own perspective → remap to l2_
    def remap(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            [c.replace("l1_", "l2_", 1) if c.startswith("l1_") else c
             for c in batch.column_names]
        )

    d21 = d21.map_batches(remap, batch_format="pyarrow")
    f1 = _prefixed_schema(
        ds1.schema().base_schema, "l1_", list(dict.fromkeys(["doc_id", *cols1]))
    )
    f2 = _prefixed_schema(
        ds2.schema().base_schema, "l2_", list(dict.fromkeys(["doc_id", *cols2]))
    )
    order = [f.name for f in f1] + [f.name for f in f2] + [_GEOM]
    out = _with_null_cols(d12, f2, order).union(_with_null_cols(d21, f1, order))
    return _apply_geom_post(
        out, gridsize=gridsize, explodecollections=explodecollections,
        where_post=where_post,
    )


def union(
    ds1: ray.data.Dataset,
    ds2: ray.data.Dataset,
    cols1: list[str] | None = None,
    cols2: list[str] | None = None,
    size: float | None = None,
    gridsize: float = 0.0,
    explodecollections: bool = False,
    where_post: str | None = None,
) -> ray.data.Dataset:
    """intersection ⊎ difference(a,b) ⊎ difference(b,a) — the reference's
    5-step union composition (_geoops_sql.py:3136-3291), here ONE fused
    cell cogroup for simple-geometry layers."""
    cols1 = list(cols1 or _attr_cols(ds1))
    cols2 = list(cols2 or _attr_cols(ds2))
    if _fused_eligible(ds1, ds2):
        out = _fused_overlay(
            ds1, ds2, cols1, cols2, size or OPTIONS.cell_size,
            want_inter=True, want_d21=True,
        )
        return _apply_geom_post(
            out, gridsize=gridsize, explodecollections=explodecollections,
            where_post=where_post,
        )
    sym = symmetric_difference(ds1, ds2, cols1, cols2, size=size)
    inter = intersection(ds1, ds2, cols1, cols2, size=size)
    f1 = _prefixed_schema(
        ds1.schema().base_schema, "l1_", list(dict.fromkeys(["doc_id", *cols1]))
    )
    f2 = _prefixed_schema(
        ds2.schema().base_schema, "l2_", list(dict.fromkeys(["doc_id", *cols2]))
    )
    order = [f.name for f in f1] + [f.name for f in f2] + [_GEOM]
    out = _with_null_cols(inter, [], order).union(sym)
    return _apply_geom_post(
        out, gridsize=gridsize, explodecollections=explodecollections,
        where_post=where_post,
    )
