"""Vectorized Sutherland-Hodgman clipping of small single-ring polygons
by convex polygons, and separating-axis predicates for convex pairs.

The reference computes every overlay pair with one GEOS ST_Intersection
call inside its SQL templates (_geoops_sql.py:1805-2102); here ONE numpy
pass handles every eligible pair in a batch. ``clip_pairs`` clips any
single ring of at most MAX_CONVEX_VERTS coordinates, convex or not, by
an axis-aligned rectangle or a convex ring: one half-plane pass per clip
edge, then duplicate and collinear vertices are dropped.

Clipping a concave ring yields ONE ring even where the true answer is
not a simple polygon: a zero-width bridge along the clip boundary joins
the parts of a MultiPolygon, and a dangling spike appears where the
subject only touches the boundary. ``clip_pairs`` flags such rings (and
near-degenerate slivers) as untrusted, and callers send those pairs to
the general trapezoid sweep in boolops.py, which also stays the path for
multi-ring / multi-part operands and concave x concave pairs. Areas need
no such flag: a bridge's two edges cancel in the shoelace sum.
"""

from __future__ import annotations

import numpy as np

from .array import POLYGON, GeometryArray

# operands with more coordinates than this skip the padded kernels
# (padding cost grows with the max, and huge rings are rare)
MAX_CONVEX_VERTS = 64


def clip_operands(ga: GeometryArray) -> tuple[np.ndarray, np.ndarray]:
    """(ring, convex) bool[n]: row is a single-part, single-ring POLYGON
    of 4..MAX_CONVEX_VERTS closed coordinates — a clip_pairs subject —
    and such a ring that is also convex_single_ring() — a clip. Memoized
    per array: every two-layer fast-path probe calls this on the same
    (broadcast) array."""
    cached = getattr(ga, "_clip_operands_cache", None)
    if cached is None:
        geo, po, ro = ga.geom_offsets, ga.part_offsets, ga.ring_offsets
        ring = np.zeros(len(ga), dtype=bool)
        one_part = geo[1:] - geo[:-1] == 1
        cand = np.flatnonzero((ga.types == POLYGON) & one_part)
        cand = cand[po[geo[cand] + 1] - po[geo[cand]] == 1]
        r0 = po[geo[cand]]
        m = ro[r0 + 1] - ro[r0]
        ring[cand] = (m >= 4) & (m <= MAX_CONVEX_VERTS)
        cached = (ring, ring & convex_single_ring(ga))
        try:
            ga._clip_operands_cache = cached
        except AttributeError:
            pass
    return cached


def convex_single_ring(ga: GeometryArray) -> np.ndarray:
    """bool[n]: row is a single-part, single-ring POLYGON whose ring is
    convex (consecutive-edge cross products never change sign)."""
    n = len(ga)
    out = np.zeros(n, dtype=bool)
    if n == 0:
        return out
    geo, po, ro = ga.geom_offsets, ga.part_offsets, ga.ring_offsets
    one_part = (geo[1:] - geo[:-1]) == 1
    cand = (ga.types == POLYGON) & one_part
    if not cand.any():
        return out
    p0 = geo[:-1]
    one_ring = np.zeros(n, dtype=bool)
    one_ring[cand] = (po[p0[cand] + 1] - po[p0[cand]]) == 1
    cand &= one_ring
    if not cand.any():
        return out
    ci = np.flatnonzero(cand)
    r0 = po[p0[ci]]
    s = ro[r0]
    e = ro[r0 + 1]
    m = e - s  # closed point count
    ok = m >= 4
    ci, s, m = ci[ok], s[ok], m[ok]
    if not len(ci):
        return out
    # open vertex sequence per ring: coords[s : s+m-1]; edges are cyclic
    k = m - 1
    tot = int(k.sum())
    starts = np.zeros(len(ci), dtype=np.int64)
    np.cumsum(k[:-1], out=starts[1:])
    local = np.arange(tot, dtype=np.int64) - np.repeat(starts, k)
    base = np.repeat(s, k)
    kk = np.repeat(k, k)
    cur = base + local
    nxt = base + np.where(local + 1 < kk, local + 1, 0)
    nx2 = base + np.where(local + 2 < kk, local + 2, local + 2 - kk)
    xy = ga.coords
    e1x = xy[nxt, 0] - xy[cur, 0]
    e1y = xy[nxt, 1] - xy[cur, 1]
    e2x = xy[nx2, 0] - xy[nxt, 0]
    e2y = xy[nx2, 1] - xy[nxt, 1]
    cross = e1x * e2y - e1y * e2x
    pos = cross > 1e-300
    neg = cross < -1e-300
    rid = np.repeat(np.arange(len(ci), dtype=np.int64), k)
    npos = np.bincount(rid, weights=pos, minlength=len(ci))
    nneg = np.bincount(rid, weights=neg, minlength=len(ci))
    out[ci] = (npos == 0) | (nneg == 0)
    return out


def _gather_open_rings(
    ga: GeometryArray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(P, cnt): padded (n, V, 2) open-vertex rings of single-ring rows
    ``idx``, oriented CCW."""
    geo, po, ro = ga.geom_offsets, ga.part_offsets, ga.ring_offsets
    r0 = po[geo[idx]]
    s = ro[r0]
    e = ro[r0 + 1]
    cnt = (e - s - 1).astype(np.int64)  # open count
    n = len(idx)
    V = int(cnt.max())
    P = np.zeros((n, V, 2))
    slot = np.arange(V)
    valid = slot[None, :] < cnt[:, None]
    src = s[:, None] + slot[None, :]
    P[valid] = ga.coords[src[valid]]
    # orient CCW: shoelace over the padded cyclic ring
    area2 = _shoelace2(P, cnt)
    cw = area2 < 0
    if cw.any():
        rev = cnt[:, None] - 1 - slot[None, :]
        sel = cw[:, None] & valid
        Pr = P.copy()
        rows = np.nonzero(sel)
        Pr[rows[0], rows[1]] = P[rows[0], rev[rows]]
        P = Pr
    return P, cnt


def _cyclic(cnt: np.ndarray, V: int) -> tuple[np.ndarray, np.ndarray]:
    """(prev, next) slot of every slot of padded cyclic rings with
    ``cnt`` vertices, clipped into [0, V)."""
    slot = np.arange(V)[None, :]
    prv = np.clip(np.where(slot > 0, slot - 1, cnt[:, None] - 1), 0, V - 1)
    return prv, np.where(slot + 1 < cnt[:, None], slot + 1, 0)


def _shoelace2(P: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Twice the signed area of each padded cyclic ring."""
    n, V, _ = P.shape
    valid = np.arange(V)[None, :] < cnt[:, None]
    _, nxt = _cyclic(cnt, V)
    rows = np.arange(n)[:, None].repeat(V, axis=1)
    xn = P[rows, nxt, 0]
    yn = P[rows, nxt, 1]
    term = (P[:, :, 0] * yn - xn * P[:, :, 1]) * valid
    return term.sum(axis=1)


def _clip_halfplane(
    P: np.ndarray, cnt: np.ndarray, q0: np.ndarray, e: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One Sutherland-Hodgman pass per row: keep the closed half-plane
    left of the directed edge ``q0[r] + t·e[r]`` (the inside of a CCW
    clip ring). A zero edge keeps everything. Axis-parallel edges compare
    the coordinate itself and put crossings exactly on the clip line.
    Returns a padded array + new counts."""
    n, V, _ = P.shape
    slot = np.arange(V)
    valid = slot[None, :] < cnt[:, None]
    ex, ey = e[:, 0:1], e[:, 1:2]
    dx = P[:, :, 0] - q0[:, 0:1]
    dy = P[:, :, 1] - q0[:, 1:2]
    # axis: 0 = vertical edge (x = q0x), 1 = horizontal, -1 = general
    axis = np.where(e[:, 0] == 0, 0, np.where(e[:, 1] == 0, 1, -1))
    axis[(e[:, 0] == 0) & (e[:, 1] == 0)] = -1
    side = np.where(
        axis[:, None] == 0,
        -np.sign(ey) * dx,
        np.where(axis[:, None] == 1, np.sign(ex) * dy, ex * dy - ey * dx),
    )
    inside = (side >= 0) & valid
    prev_slot, _ = _cyclic(cnt, V)
    rows = np.arange(n)[:, None].repeat(V, axis=1)
    prev_in = inside[rows, prev_slot]
    crossing = (inside != prev_in) & valid
    emit = crossing.astype(np.int64) + inside.astype(np.int64)
    local = np.cumsum(emit, axis=1) - emit
    new_cnt = emit.sum(axis=1)
    out = np.zeros((n, max(int(new_cnt.max()), 1), 2))
    # intersection points (prev -> cur crosses the line)
    if crossing.any():
        r, sl = np.nonzero(crossing)
        ps = prev_slot[r, sl]
        p0 = P[r, ps]
        p1 = P[r, sl]
        s0 = side[r, ps]
        t = s0 / (s0 - side[r, sl])
        ax = axis[r]
        on = np.flatnonzero(ax >= 0)
        if len(on):
            a = ax[on]
            a0 = p0[on, a]
            denom = p1[on, a] - a0
            denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
            c = q0[r[on], a]
            t[on] = (c - a0) / denom
        ip = p0 + t[:, None] * (p1 - p0)
        if len(on):
            ip[on, a] = c  # exact on the clip line
        out[r, local[r, sl]] = ip
    if inside.any():
        r, sl = np.nonzero(inside)
        out[r, local[r, sl] + crossing[r, sl]] = P[r, sl]
    new_cnt = np.where(new_cnt >= 3, new_cnt, 0)
    return out, new_cnt


def _compact(P: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Padded rings holding only the ``keep`` slots, in slot order."""
    cnt = keep.sum(axis=1)
    out = np.zeros((P.shape[0], max(int(cnt.max(initial=0)), 1), 2))
    r, sl = np.nonzero(keep)
    out[r, (np.cumsum(keep, axis=1) - 1)[r, sl]] = P[r, sl]
    return out, cnt


def _clean(P: np.ndarray, cnt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop consecutive duplicate vertices (a vertex exactly on a clip
    line emits twice), then collinear vertices by the sweep's own rule
    (boolops._finish_rings); rings left with < 3 vertices are empty."""
    n, V, _ = P.shape
    rows = np.arange(n)[:, None].repeat(V, axis=1)
    valid = np.arange(V)[None, :] < cnt[:, None]
    prev_slot, _ = _cyclic(cnt, V)
    dup = (
        (P[:, :, 0] == P[rows, prev_slot, 0])
        & (P[:, :, 1] == P[rows, prev_slot, 1])
        & valid
        & (cnt[:, None] > 1)
    )
    P, cnt = _compact(P, valid & ~dup)
    n, V, _ = P.shape
    rows = np.arange(n)[:, None].repeat(V, axis=1)
    valid = np.arange(V)[None, :] < cnt[:, None]
    prv, nxt = _cyclic(cnt, V)
    e1 = P - P[rows, prv]
    e2 = P[rows, nxt] - P
    cross = e1[:, :, 0] * e2[:, :, 1] - e1[:, :, 1] * e2[:, :, 0]
    l1 = np.hypot(e1[:, :, 0], e1[:, :, 1])
    l2 = np.hypot(e2[:, :, 0], e2[:, :, 1])
    keep = valid & (np.abs(cross) > 1e-10 * l1 * l2)
    P, cnt = _compact(P, keep)
    return P, np.where(cnt >= 3, cnt, 0)


def _rect_edges(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q0, e) of shape (n, 4, 2): the half-planes x >= minx, x <= maxx,
    y >= miny, y <= maxy of bounds ``b``, in that pass order."""
    n = len(b)
    q0 = np.empty((n, 4, 2))
    q0[:, 0] = b[:, [0, 1]]
    q0[:, 1] = b[:, [2, 1]]
    q0[:, 2] = b[:, [0, 1]]
    q0[:, 3] = b[:, [0, 3]]
    e = np.zeros((n, 4, 2))
    e[:, 0, 1] = -1.0
    e[:, 1, 1] = 1.0
    e[:, 2, 0] = 1.0
    e[:, 3, 0] = -1.0
    return q0, e


def _clip(
    gs: GeometryArray,
    isub: np.ndarray,
    gc: GeometryArray,
    iclip: np.ndarray,
    rect: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Clip ring ``gs[isub[k]]`` by ``gc[iclip[k]]``: by its bounds where
    ``rect[k]``, else by its convex ring. Cleaned CCW padded rings."""
    P, cnt = _gather_open_rings(gs, isub)
    edges = []  # (pair rows, edge starts, edge vectors) per clip kind
    kr = np.flatnonzero(rect)
    if len(kr):
        edges.append((kr, *_rect_edges(gc.bounds()[iclip[kr]])))
    kc = np.flatnonzero(~rect)
    if len(kc):
        Q, qcnt = _gather_open_rings(gc, iclip[kc])
        _, nxt = _cyclic(qcnt, Q.shape[1])
        live = np.arange(Q.shape[1])[None, :] < qcnt[:, None]
        E = Q[np.arange(len(kc))[:, None], nxt] - Q
        edges.append((kc, Q, np.where(live[:, :, None], E, 0.0)))
    W = max(q.shape[1] for _, q, _ in edges)
    q0 = np.zeros((len(isub), W, 2))
    e = np.zeros((len(isub), W, 2))
    for rows, q, ev in edges:
        q0[rows, : q.shape[1]] = q
        e[rows, : q.shape[1]] = ev
    for j in range(W):
        P, cnt = _clip_halfplane(P, cnt, q0[:, j], e[:, j])
    P, cnt = _clean(P, cnt)
    # degenerate (zero-area) clips are empty
    area2 = _shoelace2(P, cnt)
    return P, np.where(area2 > 1e-300, cnt, 0)


def _simple_rings(P: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """bool per padded ring: no two non-adjacent edges come within
    ``tol`` (_ring_tol) of each other, touching and crossing included.
    That also catches two adjacent edges folding back onto each other
    in rings of 4+ vertices; a folded triangle fails _trusted's width
    test instead. Chunked so the (rings x edges x edges) temporaries
    stay bounded."""
    n, V, _ = P.shape
    out = np.ones(n, dtype=bool)
    slot = np.arange(V)
    chunk = max(1, (1 << 18) // (V * V))
    for s in range(0, n, chunk):
        A = P[s : s + chunk]
        c = cnt[s : s + chunk]
        m = len(A)
        rows = np.arange(m)[:, None]
        valid = slot[None, :] < c[:, None]
        _, nxt = _cyclic(c, V)
        E = A[rows, nxt] - A  # edge j: A[j] -> A[nxt j]
        tol = _ring_tol(A, c)
        # vertex v against edge j: w = A[v] - A[j]
        w = A[:, :, None, :] - A[:, None, :, :]
        Ex = E[:, None, :, 0]
        Ey = E[:, None, :, 1]
        ee = Ex * Ex + Ey * Ey
        t = (w[..., 0] * Ex + w[..., 1] * Ey) / np.where(ee > 0, ee, 1.0)
        t = np.clip(t, 0.0, 1.0)
        dist = np.hypot(w[..., 0] - t * Ex, w[..., 1] - t * Ey)
        near = dist <= tol[:, None, None]
        side = np.sign(Ex * w[..., 1] - Ey * w[..., 0])
        # edge i = (v, nxt v) against edge j
        near_i = near | near[rows, nxt]
        straddle = side * side[rows, nxt] < 0
        touch = near_i | np.swapaxes(near_i, 1, 2)
        cross = straddle & np.swapaxes(straddle, 1, 2)
        pair_ok = valid[:, :, None] & valid[:, None, :]
        nonadj = (
            (slot[None, :, None] != slot[None, None, :])
            & (nxt[:, :, None] != slot[None, None, :])
            & (slot[None, :, None] != nxt[:, None, :])
        )
        bad = ((touch | cross) & nonadj & pair_ok).any(axis=(1, 2))
        out[s : s + chunk] = ~bad
    return out


def clip_pairs(
    ga1: GeometryArray,
    ia: np.ndarray,
    ga2: GeometryArray,
    ib: np.ndarray,
    rect1: np.ndarray,
    rect2: np.ndarray,
    todo: np.ndarray,
    check: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Batched ``ga1[ia[k]] ∩ ga2[ib[k]]`` for the pairs in ``todo``
    where one side is a clip_operands() ring and the other an axis-aligned
    rect (``rect1`` / ``rect2``: per-row masks, e.g. detect_rects) or a
    clip_operands() convex ring. Rects are clipped by their bounds.

    Returns (k, P, cnt, trusted): the pair positions served, their
    padded CCW result rings and vertex counts (0 = empty), and whether
    each ring is the intersection as a Polygon (None unless ``check``).
    Untrusted rings (bridge, spike, or a sliver thinner than the
    simplicity tolerance) still carry the right shoelace area, but their
    geometry must come from the sweep. Convex rings clipped by rects are
    always trusted."""
    ring1, cvx1 = clip_operands(ga1)
    ring2, cvx2 = clip_operands(ga2)
    rc1 = rect1[ia] & (ga1.types[ia] == POLYGON)
    rc2 = rect2[ib] & (ga2.types[ib] == POLYGON)
    c1 = todo & ring1[ia] & rc2
    c2 = todo & ~c1 & ring2[ib] & rc1
    c3 = todo & ~c1 & ~c2 & ring1[ia] & cvx2[ib]
    c4 = todo & ~c1 & ~c2 & ~c3 & ring2[ib] & cvx1[ia]
    k = np.flatnonzero(c1 | c2 | c3 | c4)
    parts = []
    for sel, gs, isub, cvx_s, gc, iclip, rect in (
        (c1 | c3, ga1, ia, cvx1, ga2, ib, rc2),
        (c2 | c4, ga2, ib, cvx2, ga1, ia, rc1),
    ):
        ks = np.flatnonzero(sel)
        if len(ks):
            P, cnt = _clip(gs, isub[ks], gc, iclip[ks], rect[ks])
            ok = _trusted(P, cnt, cvx_s[isub[ks]], rect[ks]) if check else None
            parts.append((np.searchsorted(k, ks), P, cnt, ok))
    P = np.zeros((len(k), max([q[1].shape[1] for q in parts], default=1), 2))
    cnt = np.zeros(len(k), dtype=np.int64)
    ok = np.zeros(len(k), dtype=bool) if check else None
    for pos, Ps, cs, oks in parts:
        P[pos, : Ps.shape[1]] = Ps
        cnt[pos] = cs
        if check:
            ok[pos] = oks
    return k, P, cnt, ok


def _ring_tol(P: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Simplicity tolerance per padded ring: 1e-9 x its largest
    coordinate magnitude, far above the clip's rounding error."""
    valid = np.arange(P.shape[1])[None, :] < cnt[:, None]
    return 1e-9 * np.where(valid[:, :, None], np.abs(P), 0.0).max(axis=(1, 2))


def _trusted(
    P: np.ndarray, cnt: np.ndarray, convex_sub: np.ndarray, rect: np.ndarray
) -> np.ndarray:
    """bool per clipped ring: it is the exact intersection polygon.
    Empty results and convex x rect clips always are. Others must be no
    thinner than the ring tolerance (mean width 2·area/perimeter), and a
    concave subject's ring must pass _simple_rings."""
    ok = (cnt == 0) | (convex_sub & rect)
    chk = np.flatnonzero(~ok)
    if len(chk):
        Pc, cc = P[chk], cnt[chk]
        V = Pc.shape[1]
        _, nxt = _cyclic(cc, V)
        d = Pc[np.arange(len(chk))[:, None], nxt] - Pc
        elen = np.hypot(d[..., 0], d[..., 1])
        valid = np.arange(V)[None, :] < cc[:, None]
        perim = np.where(valid, elen, 0.0).sum(axis=1)
        good = _shoelace2(Pc, cc) > _ring_tol(Pc, cc) * perim
        test = np.flatnonzero(good & ~convex_sub[chk])
        if len(test):
            Vt = int(cc[test].max())
            good[test] = _simple_rings(Pc[test, :Vt], cc[test])
        ok[chk] = good
    return ok


def clip_areas(P: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Area per padded ring (0 where cnt == 0)."""
    return 0.5 * np.where(cnt > 0, _shoelace2(P, cnt), 0.0)


def convex_rect_predicates(
    ga: GeometryArray,
    idx: np.ndarray,
    rects: np.ndarray,
    preds: set[str],
    swapped: bool = False,
) -> dict[str, np.ndarray]:
    """Exact named spatial predicates for (convex single-ring polygon,
    axis-aligned rect) pairs, fully vectorized via separating-axis tests
    (axes = rect's x/y + every polygon edge normal — complete SAT for a
    convex pair). ``swapped=True`` reports predicates for (rect, polygon)
    pair order (within↔contains, covers↔coveredby swap).

    Semantics mirror _rect_pair_predicates (stages/relation.py:324) and
    the generic pair predicates: inclusive boundaries, touches = boundary
    contact without interior overlap, overlaps requires mutual
    non-containment. All comparisons carry the generic path's 1e-12
    distance tolerance (geom/predicates._EPS) — sweep-produced vertices
    sit O(1e-14) off the lattice, and an exact test here would disagree
    with the generic predicates on which path a pair happens to take."""
    eps = 1e-12  # keep in sync with geom.predicates._EPS
    P, cnt = _gather_open_rings(ga, idx)  # CCW
    n, V, _ = P.shape
    slot = np.arange(V)
    valid = slot[None, :] < cnt[:, None]
    rows = np.arange(n)[:, None].repeat(V, axis=1)
    nxt = np.where(slot[None, :] + 1 < cnt[:, None], slot[None, :] + 1, 0)
    ex = P[rows, nxt, 0] - P[:, :, 0]
    ey = P[rows, nxt, 1] - P[:, :, 1]
    # inward normal of a CCW edge: polygon lies on n·p >= n·v_i; scale
    # the tolerance by |edge| so it stays a *distance* eps
    nx_ = -ey
    ny_ = ex
    elen = np.hypot(ex, ey)
    etol = eps * elen
    ref = nx_ * P[:, :, 0] + ny_ * P[:, :, 1]
    x0, y0, x1, y1 = rects[:, 0], rects[:, 1], rects[:, 2], rects[:, 3]
    rmax = nx_ * np.where(nx_ > 0, x1[:, None], x0[:, None]) + ny_ * np.where(
        ny_ > 0, y1[:, None], y0[:, None]
    )
    # zero-length edges (duplicate consecutive vertices pass
    # convex_single_ring since their cross products are 0) have a (0,0)
    # normal with ref=etol=0, so rmax<=ref+etol holds vacuously — they
    # must not vote in the separation tests
    edge_ok = valid & (elen > 0)
    sep_strict = ((rmax < ref - etol) & edge_ok).any(axis=1)
    sep_touch = ((rmax <= ref + etol) & edge_ok).any(axis=1)
    pinf = np.where(valid, P[:, :, 0], np.inf)
    pminx = pinf.min(axis=1)
    pmaxx = np.where(valid, P[:, :, 0], -np.inf).max(axis=1)
    pminy = np.where(valid, P[:, :, 1], np.inf).min(axis=1)
    pmaxy = np.where(valid, P[:, :, 1], -np.inf).max(axis=1)
    bb_inter = (
        (pminx <= x1 + eps) & (pmaxx >= x0 - eps)
        & (pminy <= y1 + eps) & (pmaxy >= y0 - eps)
    )
    bb_strict = (
        (pminx < x1 - eps) & (pmaxx > x0 + eps)
        & (pminy < y1 - eps) & (pmaxy > y0 + eps)
    )
    inter = bb_inter & ~sep_strict
    interiors = bb_strict & ~sep_touch
    # polygon within closed rect: every vertex inside
    vin = (
        (P[:, :, 0] >= x0[:, None] - eps)
        & (P[:, :, 0] <= x1[:, None] + eps)
        & (P[:, :, 1] >= y0[:, None] - eps)
        & (P[:, :, 1] <= y1[:, None] + eps)
    )
    cov_rect_over_poly = (vin | ~valid).all(axis=1)  # poly coveredby rect
    # rect within closed polygon: all 4 corners on the inward side of
    # every edge
    cov_poly_over_rect = np.ones(n, dtype=bool)
    for cx, cy in ((x0, y0), (x1, y0), (x1, y1), (x0, y1)):
        inside = (
            (nx_ * cx[:, None] + ny_ * cy[:, None] >= ref - etol) | ~valid
        ).all(axis=1)
        cov_poly_over_rect &= inside
    eq = cov_poly_over_rect & cov_rect_over_poly
    # pair order: A = the convex polygon, B = the rect (swap afterwards)
    covAB, covBA = cov_poly_over_rect, cov_rect_over_poly
    out: dict[str, np.ndarray] = {}
    for p in preds:
        if p == "intersects":
            v = inter
        elif p == "disjoint":
            v = ~inter
        elif p == "touches":
            v = inter & ~interiors
        elif p == "covers":
            v = covBA if swapped else covAB
        elif p == "coveredby":
            v = covAB if swapped else covBA
        elif p == "contains":
            v = (covBA if swapped else covAB) & interiors
        elif p == "within":
            v = (covAB if swapped else covBA) & interiors
        elif p == "equals":
            v = eq
        elif p == "overlaps":
            v = interiors & ~covAB & ~covBA
        elif p == "crosses":
            v = np.zeros(n, dtype=bool)
        else:  # pragma: no cover - caller filters to NAMED_PREDICATES
            raise KeyError(p)
        out[p] = v
    return out


def convex_convex_interiors(
    ga1: GeometryArray, ia: np.ndarray, ga2: GeometryArray, ib: np.ndarray
) -> np.ndarray:
    """bool per pair: the two convex single-ring polygons' INTERIORS
    intersect ('intersects and not touches') — complete SAT over both
    polygons' edge normals, vectorized with pair chunking so the
    (pairs × edges × vertices) projection temporaries stay bounded.
    Same 1e-12 distance tolerance as convex_rect_predicates / the
    generic predicates. Callers guarantee convex_single_ring() rows."""
    eps = 1e-12
    m = len(ia)
    if m == 0:
        return np.zeros(0, dtype=bool)
    out = np.zeros(m, dtype=bool)
    b1 = ga1.bounds()[ia]
    b2 = ga2.bounds()[ib]
    bb_strict = (
        (b1[:, 0] < b2[:, 2] - eps)
        & (b1[:, 2] > b2[:, 0] + eps)
        & (b1[:, 1] < b2[:, 3] - eps)
        & (b1[:, 3] > b2[:, 1] + eps)
    )
    cand = np.flatnonzero(bb_strict)
    if len(cand) == 0:
        return out
    P1, c1 = _gather_open_rings(ga1, ia[cand])
    P2, c2 = _gather_open_rings(ga2, ib[cand])

    def _sep_touch(PA, cA, PB, cB):
        """True per pair: some edge normal of A separates (allowing
        boundary contact within eps) A from B."""
        n, V, _ = PA.shape
        VB = PB.shape[1]
        slot = np.arange(V)
        validA = slot[None, :] < cA[:, None]
        rows = np.arange(n)[:, None].repeat(V, axis=1)
        nxt = np.where(slot[None, :] + 1 < cA[:, None], slot[None, :] + 1, 0)
        ex = PA[rows, nxt, 0] - PA[:, :, 0]
        ey = PA[rows, nxt, 1] - PA[:, :, 1]
        nx_, ny_ = -ey, ex  # inward normal of a CCW edge
        elen = np.hypot(ex, ey)
        # a zero-length edge (duplicate consecutive vertex) has a (0,0)
        # normal with ref=etol=0 — bmax<=ref always holds, falsely
        # declaring the pair separated; mask it out of the vote
        validA = validA & (elen > 0)
        etol = eps * elen
        ref = nx_ * PA[:, :, 0] + ny_ * PA[:, :, 1]
        res = np.zeros(n, dtype=bool)
        chunk = max(1, (1 << 22) // max(V * VB, 1))
        validB = np.arange(VB)[None, :] < cB[:, None]
        for s in range(0, n, chunk):
            e = min(s + chunk, n)
            proj = (
                nx_[s:e, :, None] * PB[s:e, None, :, 0]
                + ny_[s:e, :, None] * PB[s:e, None, :, 1]
            )
            proj = np.where(validB[s:e, None, :], proj, -np.inf)
            bmax = proj.max(axis=2)
            res[s:e] = ((bmax <= ref[s:e] + etol[s:e]) & validA[s:e]).any(
                axis=1
            )
        return res

    sep = _sep_touch(P1, c1, P2, c2) | _sep_touch(P2, c2, P1, c1)
    out[cand] = ~sep
    return out


def padded_to_wkb(P: np.ndarray, cnt: np.ndarray) -> list[bytes | None]:
    """WKB POLYGON per padded ring (as clip_pairs returns them, already
    cleaned) via the vectorized slab encoder; None where cnt == 0."""
    from .wkb import to_wkb

    n = len(cnt)
    ne = np.flatnonzero(cnt > 0)
    if not len(ne):
        return [None] * n
    # flat closed rings: the open vertices + a repeat of the first
    kcnt = cnt[ne]
    ring_off = np.zeros(len(ne) + 1, dtype=np.int64)
    np.cumsum(kcnt + 1, out=ring_off[1:])
    coords = np.empty((int(ring_off[-1]), 2))
    r, sl = np.nonzero(np.arange(P.shape[1])[None, :] < kcnt[:, None])
    coords[ring_off[r] + sl] = P[ne[r], sl]
    coords[ring_off[1:] - 1] = coords[ring_off[:-1]]
    m = len(ne)
    arr = GeometryArray(
        types=np.full(m, POLYGON, dtype=np.int8),
        geom_offsets=np.arange(m + 1, dtype=np.int64),
        part_offsets=np.arange(m + 1, dtype=np.int64),
        ring_offsets=ring_off,
        coords=coords,
    )
    out: list[bytes | None] = [None] * n
    for i, blob in zip(ne, to_wkb(arr)):
        out[int(i)] = blob
    return out
