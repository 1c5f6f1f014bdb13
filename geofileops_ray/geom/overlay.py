"""Polygon overlay utilities and ring primitives.

The actual boolean kernels (intersection / union / difference /
symmetric_difference, n-ary union) live in ``boolops.py`` — a robust
winding-number trapezoid sweep. This module keeps the ring-level
primitives (signed area, orientation, closure, point-in-ring), the exact
Sutherland–Hodgman rectangle clipper used by dissolve's clip-to-tile step
(geofileops _geoops_gpd.py:2070-2083 analogue) and the parts↔geometry
adapters.
"""

from __future__ import annotations

import numpy as np

from .array import MULTIPOLYGON, POLYGON, GeometryArray

_EPS = 1e-12


# ----------------------------------------------------------- ring utilities


def ring_signed_area(ring: np.ndarray) -> float:
    """Shoelace signed area; closes the ring implicitly if open."""
    x, y = ring[:, 0], ring[:, 1]
    s = float((x[:-1] * y[1:] - x[1:] * y[:-1]).sum())
    if len(ring) and (x[0] != x[-1] or y[0] != y[-1]):
        s += float(x[-1] * y[0] - x[0] * y[-1])
    return 0.5 * s


def ensure_closed(ring: np.ndarray) -> np.ndarray:
    if len(ring) and not np.array_equal(ring[0], ring[-1]):
        return np.concatenate([ring, ring[:1]])
    return ring


def ensure_ccw(ring: np.ndarray) -> np.ndarray:
    return ring if ring_signed_area(ring) >= 0 else ring[::-1].copy()


def _open(ring: np.ndarray) -> np.ndarray:
    """Drop the closing duplicate vertex."""
    ring = ensure_closed(np.asarray(ring, dtype=np.float64))
    return ring[:-1]


def point_in_ring(pt: np.ndarray, ring: np.ndarray) -> bool:
    """Crossing number; boundary points undefined (callers avoid them)."""
    x, y = pt
    rx, ry = ring[:, 0], ring[:, 1]
    x1, y1 = rx, ry
    x2, y2 = np.roll(rx, -1), np.roll(ry, -1)
    cond = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    return int((cond & (x < xint)).sum()) % 2 == 1


# --------------------------------------------- Sutherland–Hodgman rect clip


def clip_ring_rect(ring: np.ndarray, rect: tuple[float, float, float, float]) -> np.ndarray:
    """Clip a closed ring to an axis-aligned rectangle (convex clip —
    Sutherland–Hodgman, exact & robust). Returns closed ring (possibly
    empty). Used for dissolve clip-to-tile (_geoops_gpd.py:2070-2083)."""
    minx, miny, maxx, maxy = rect
    pts = _open(ring)

    def clip_half(pts, inside, intersect):
        if len(pts) == 0:
            return pts
        keep = inside(pts)
        out = []
        n = len(pts)
        for k in range(n):
            cur, nxt = pts[k], pts[(k + 1) % n]
            cin, nin = keep[k], keep[(k + 1) % n]
            if cin:
                out.append(cur)
                if not nin:
                    out.append(intersect(cur, nxt))
            elif nin:
                out.append(intersect(cur, nxt))
        return np.array(out) if out else np.empty((0, 2))

    def ix(axis, val):
        def f(a, b):
            t = (val - a[axis]) / (b[axis] - a[axis])
            p = a + t * (b - a)
            p[axis] = val
            return p

        return f

    pts = clip_half(pts, lambda p: p[:, 0] >= minx, ix(0, minx))
    pts = clip_half(pts, lambda p: p[:, 0] <= maxx, ix(0, maxx))
    pts = clip_half(pts, lambda p: p[:, 1] >= miny, ix(1, miny))
    pts = clip_half(pts, lambda p: p[:, 1] <= maxy, ix(1, maxy))
    if len(pts) < 3:
        return np.empty((0, 2))
    return ensure_closed(pts)


# ------------------------------------------------- ring-set classification


def _rings_to_parts(rings: list[np.ndarray]) -> list[list[np.ndarray]]:
    """Classify closed rings into polygon parts with holes by containment
    (a ring inside an odd number of others is a hole of its smallest
    container)."""
    if not rings:
        return []
    areas = [abs(ring_signed_area(r)) for r in rings]
    order = np.argsort(areas)[::-1]  # big to small
    parts: list[list[np.ndarray]] = []
    part_outer_idx: list[int] = []
    for oi in order:
        r = rings[oi]
        probe = r[:-1].mean(axis=0)
        container = None
        for pi in range(len(parts) - 1, -1, -1):
            outer = rings[part_outer_idx[pi]]
            if point_in_ring(probe, outer[:-1]):
                inside_hole = any(
                    point_in_ring(probe, h[:-1]) for h in parts[pi][1:]
                )
                if not inside_hole:
                    container = pi
                    break
        if container is None:
            parts.append([ensure_ccw(r)])
            part_outer_idx.append(oi)
        else:
            parts[container].append(ensure_ccw(r)[::-1].copy())  # hole: CW
    return parts


# ------------------------------------------------- polygon-level operations


def polygon_overlay(
    a_parts: list[list[np.ndarray]],
    b_parts: list[list[np.ndarray]],
    op: str,
) -> list[list[np.ndarray]]:
    """Overlay two (multi)polygons given as parts lists (each part =
    [outer, hole...]). Delegates to the robust sweep in boolops."""
    from .boolops import boolean_op

    a_parts = [p for p in a_parts if len(p) and len(p[0]) >= 4]
    b_parts = [p for p in b_parts if len(p) and len(p[0]) >= 4]
    if op == "union" and not b_parts:
        from .boolops import union_many

        return union_many([a_parts])
    if not a_parts:
        return boolean_op(b_parts, [], "union") if op == "union" else []
    if not b_parts:
        if op in ("difference", "union", "symmetric_difference"):
            from .boolops import union_many

            return union_many([a_parts])
        return []
    return boolean_op(a_parts, b_parts, op)


def line_polygon_overlay(
    line_parts: list[list[np.ndarray]],
    cand: "GeometryArray",
    js: np.ndarray,
    op: str,
) -> list[np.ndarray]:
    """Overlay of a (multi)linestring against the UNION of candidate
    polygons: ``op='intersection'`` keeps the portions inside-or-on the
    closed polygons; ``'difference'`` keeps the strictly-outside portions
    (ST_Intersection / ST_Difference of line × polygon extracted to the
    line primitive, reference _geoops_sql.py:1880-1891).

    Per line segment: cut at every polygon-edge crossing (collinear
    overlaps contribute their projected endpoints), classify interval
    midpoints against the polygon union, emit kept sub-segments. Returns
    a list of (k,2) line coordinate arrays."""
    from .predicates import points_in_polygon

    edges = []
    for j in js:
        for part in cand._parts_of(int(j)):
            for ring in part:
                rr = ensure_closed(np.asarray(ring, dtype=np.float64))
                if len(rr) < 2:
                    continue
                e = np.empty((len(rr) - 1, 4))
                e[:, :2] = rr[:-1]
                e[:, 2:] = rr[1:]
                edges.append(e)
    E = np.concatenate(edges) if edges else np.empty((0, 4))
    pieces: list[np.ndarray] = []
    for part in line_parts:
        line = np.asarray(part[0], dtype=np.float64)
        for k in range(len(line) - 1):
            p, q = line[k], line[k + 1]
            r = q - p
            rn2 = float(r @ r)
            if rn2 < 1e-300:
                continue
            ts = [0.0, 1.0]
            if len(E):
                s = E[:, 2:] - E[:, :2]
                qp = E[:, :2] - p
                denom = r[0] * s[:, 1] - r[1] * s[:, 0]
                cross_qp_r = qp[:, 0] * r[1] - qp[:, 1] * r[0]
                with np.errstate(divide="ignore", invalid="ignore"):
                    t = (qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]) / denom
                    u = cross_qp_r / denom
                ok = (
                    (np.abs(denom) > 1e-300)
                    & (t >= 0) & (t <= 1) & (u >= 0) & (u <= 1)
                )
                if ok.any():
                    ts.extend(t[ok].tolist())
                # collinear edges: project endpoints onto the segment
                col = (np.abs(denom) <= 1e-300) & (
                    np.abs(cross_qp_r) <= 1e-9 * max(1.0, np.sqrt(rn2))
                )
                if col.any():
                    t0 = ((E[col, 0] - p[0]) * r[0] + (E[col, 1] - p[1]) * r[1]) / rn2
                    t1 = ((E[col, 2] - p[0]) * r[0] + (E[col, 3] - p[1]) * r[1]) / rn2
                    ts.extend(np.clip(t0, 0, 1).tolist())
                    ts.extend(np.clip(t1, 0, 1).tolist())
            tsa = np.unique(np.clip(np.asarray(ts, dtype=np.float64), 0.0, 1.0))
            if len(tsa) < 2:
                continue
            mids = p[None, :] + ((tsa[:-1] + tsa[1:]) / 2)[:, None] * r[None, :]
            in_closed = np.zeros(len(mids), dtype=bool)
            for j in js:
                in_closed |= points_in_polygon(mids, cand, int(j), True)
            keep = in_closed if op == "intersection" else ~in_closed
            # maximal kept runs → one sub-segment each
            padded = np.concatenate([[False], keep, [False]])
            starts = np.flatnonzero(~padded[:-1] & padded[1:])
            ends = np.flatnonzero(padded[:-1] & ~padded[1:])
            for a, b in zip(starts, ends):
                t0v, t1v = tsa[a], tsa[b]
                if t1v - t0v < 1e-12:
                    continue
                pieces.append(
                    np.stack([p + t0v * r, p + t1v * r], axis=0)
                )
    return pieces


def line_line_overlap(
    line_parts: list[list[np.ndarray]],
    cand: "GeometryArray",
    js: np.ndarray,
    op: str,
) -> list[np.ndarray]:
    """Overlay of a (multi)linestring against candidate LINESTRING rows,
    extracted to the LINE primitive (the reference's lower-primitive
    rule, _geoops_sql.py:1880-1891): ``op='intersection'`` keeps the
    COLLINEAR overlap portions (point crossings have lower dimension and
    are dropped by ST_CollectionExtract(...,2)); ``'difference'``
    removes them. Returns a list of (2,2) sub-segment arrays.

    Per layer1 segment the candidate segments are tested in one numpy
    pass (cross-product collinearity + projected parameter intervals);
    the Python loop is only over layer1 segments, mirroring
    line_polygon_overlay above."""
    segs = []
    for j in js:
        for part in cand._parts_of(int(j)):
            line = np.asarray(part[0], dtype=np.float64)
            if len(line) < 2:
                continue
            e = np.empty((len(line) - 1, 4))
            e[:, :2] = line[:-1]
            e[:, 2:] = line[1:]
            segs.append(e)
    E = np.concatenate(segs) if segs else np.empty((0, 4))
    pieces: list[np.ndarray] = []
    for part in line_parts:
        line = np.asarray(part[0], dtype=np.float64)
        for k in range(len(line) - 1):
            p, q = line[k], line[k + 1]
            r = q - p
            rn2 = float(r @ r)
            if rn2 < 1e-300:
                continue
            ivals: list[tuple[float, float]] = []
            if len(E):
                s = E[:, 2:] - E[:, :2]
                qp = E[:, :2] - p
                denom = r[0] * s[:, 1] - r[1] * s[:, 0]
                cross_qp_r = qp[:, 0] * r[1] - qp[:, 1] * r[0]
                col = (np.abs(denom) <= 1e-300) & (
                    np.abs(cross_qp_r) <= 1e-9 * max(1.0, np.sqrt(rn2))
                )
                if col.any():
                    t0 = ((E[col, 0] - p[0]) * r[0] + (E[col, 1] - p[1]) * r[1]) / rn2
                    t1 = ((E[col, 2] - p[0]) * r[0] + (E[col, 3] - p[1]) * r[1]) / rn2
                    lo = np.clip(np.minimum(t0, t1), 0.0, 1.0)
                    hi = np.clip(np.maximum(t0, t1), 0.0, 1.0)
                    keep = hi - lo > 1e-12
                    ivals = list(zip(lo[keep].tolist(), hi[keep].tolist()))
            # merge the kept intervals, then emit (or complement for diff)
            merged: list[list[float]] = []
            for lo_v, hi_v in sorted(ivals):
                if merged and lo_v <= merged[-1][1] + 1e-12:
                    merged[-1][1] = max(merged[-1][1], hi_v)
                else:
                    merged.append([lo_v, hi_v])
            if op == "intersection":
                out_iv = merged
            else:
                out_iv, prev = [], 0.0
                for lo_v, hi_v in merged:
                    if lo_v - prev > 1e-12:
                        out_iv.append([prev, lo_v])
                    prev = max(prev, hi_v)
                if 1.0 - prev > 1e-12:
                    out_iv.append([prev, 1.0])
            for t0v, t1v in out_iv:
                if t1v - t0v < 1e-12:
                    continue
                pieces.append(np.stack([p + t0v * r, p + t1v * r], axis=0))
    return pieces


def parts_to_geom(parts: list[list[np.ndarray]]) -> tuple[int, list[list[np.ndarray]]]:
    """(type_code, parts) for GeometryArray.from_parts."""
    parts = [p for p in parts if len(p) and len(p[0]) >= 4]
    if not parts:
        return POLYGON, []
    closed = [[ensure_closed(r) for r in p] for p in parts]
    return (POLYGON if len(closed) == 1 else MULTIPOLYGON), closed


def union_all_parts(parts_list: list[list[list[np.ndarray]]]) -> list[list[np.ndarray]]:
    """Union many (multi)polygons in one sweep (dissolve kernel)."""
    from .boolops import union_many

    cleaned = [
        [p for p in parts if len(p) and len(p[0]) >= 4] for parts in parts_list
    ]
    cleaned = [c for c in cleaned if c]
    if not cleaned:
        return []
    return union_many(cleaned)
