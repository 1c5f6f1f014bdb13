"""Spatial-relations query DSL + vectorized pair evaluation.

The reference exposes a query language on join_by_location /
export_by_location: ``"intersects is True and touches is False"`` with
named predicates (contains, coveredby, covers, crosses, disjoint, equals,
intersects, overlaps, touches, within), compiled to SQL
(_prepare_spatial_relation_filter, geofileops _geoops_sql.py:2516-2578;
optimizer :2400-2443; De Morgan rewrite of disjoint-true queries
:2434-2442). Here the compiler is pure Python: parse → boolean AST →
evaluate over numpy arrays of per-pair predicate results, computing only
the predicates the query mentions.

Evaluation has two paths:
* exact fast path when both geometries are axis-aligned rectangles or
  points (vectorized interval arithmetic — covers the benchmark layers);
* generic path via the from-scratch DE-9IM-ish pair predicates
  (geom/predicates.py) for arbitrary geometry.
"""

from __future__ import annotations

import re

import numpy as np

from ..geom import GeometryArray
from ..geom.array import POINT, POLYGON
from ..geom.predicates import PREDICATES

NAMED_PREDICATES = (
    "contains",
    "coveredby",
    "covers",
    "crosses",
    "disjoint",
    "equals",
    "intersects",
    "overlaps",
    "touches",
    "within",
)


def _rect_relate(b1: np.ndarray, b2: np.ndarray, pt1: bool, pt2: bool) -> str:
    """Exact DE-9IM matrix for axis-aligned rectangles / points given
    their bounds (point = degenerate bounds). Row i = {interior,
    boundary, exterior} of A ∩ {I, B, E} of B."""
    ax0, ay0, ax1, ay1 = b1
    bx0, by0, bx1, by1 = b2

    def seg_overlap(lo1, hi1, lo2, hi2, open_):
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        return hi > lo if open_ else hi >= lo

    if pt1 and pt2:
        same = ax0 == bx0 and ay0 == by0
        return "0FFFFFFF2" if same else "FF0FFF0F2"
    if pt1:
        in_open = bx0 < ax0 < bx1 and by0 < ay0 < by1
        on_b = (
            (ax0 in (bx0, bx1) and by0 <= ay0 <= by1)
            or (ay0 in (by0, by1) and bx0 <= ax0 <= bx1)
        )
        if in_open:
            return "0FFFFF212"
        if on_b:
            return "F0FFFF212"
        return "FF0FFF212"
    if pt2:
        # DE-9IM of (rect, point) = transpose of (point, rect)
        t = _rect_relate(b2, b1, True, False)
        return "".join(t[3 * (k % 3) + k // 3] for k in range(9))
    # rect × rect
    ii = (min(ax1, bx1) > max(ax0, bx0)) and (min(ay1, by1) > max(ay0, by0))
    a_in_b = ax0 >= bx0 and ax1 <= bx1 and ay0 >= by0 and ay1 <= by1
    b_in_a = bx0 >= ax0 and bx1 <= ax1 and by0 >= ay0 and by1 <= ay1
    closed_int = (min(ax1, bx1) >= max(ax0, bx0)) and (
        min(ay1, by1) >= max(ay0, by0)
    )

    def boundary_in_open(inner, outer):
        """∂inner ∩ int(outer) ≠ ∅ for rects (per-edge test)."""
        ix0, iy0, ix1, iy1 = inner
        ox0, oy0, ox1, oy1 = outer
        for x in (ix0, ix1):  # vertical edges x fixed, y∈[iy0, iy1]
            if ox0 < x < ox1 and min(iy1, oy1) > max(iy0, oy0):
                return True
        for y in (iy0, iy1):
            if oy0 < y < oy1 and min(ix1, ox1) > max(ix0, ox0):
                return True
        return False

    ib = boundary_in_open(b2, b1)  # int(A) ∩ ∂B
    bi = boundary_in_open(b1, b2)
    # ∂A ∩ ∂B: 1 if a collinear edge overlap of positive length, else 0
    # if closed boxes touch at isolated points, else F
    bb = "F"
    a_strict_in_b = ax0 > bx0 and ax1 < bx1 and ay0 > by0 and ay1 < by1
    b_strict_in_a = bx0 > ax0 and bx1 < ax1 and by0 > ay0 and by1 < ay1
    if closed_int and not a_strict_in_b and not b_strict_in_a:
        col = False
        for x in (ax0, ax1):
            if x in (bx0, bx1) and min(ay1, by1) > max(ay0, by0):
                col = True
        for y in (ay0, ay1):
            if y in (by0, by1) and min(ax1, bx1) > max(ax0, bx0):
                col = True
        # collinear edge overlap → dim 1; otherwise the boundary curves
        # meet at isolated points (corners / crossings) → dim 0
        bb = "1" if col else "0"
    return "".join(
        [
            "2" if ii else "F",
            "1" if ib else "F",
            "F" if a_in_b else "2",
            "1" if bi else "F",
            bb,
            "F" if a_in_b else "1",
            "F" if b_in_a else "2",
            "F" if b_in_a else "1",
            "2",
        ]
    )


def relate_matrix(ga1, i: int, ga2, j: int) -> str:
    """DE-9IM matrix for a pair (ST_Relate analogue; raw-mask queries
    compile through this, reference _geoops_sql.py:2516-2578). Exact
    interval-arithmetic fast path for axis-aligned rect / point shapes;
    arbitrary polygon/line/point pairs go through the general
    measure-derived computation (geom/relate.py)."""
    r1 = detect_rects(ga1.take(np.array([i])))
    r2 = detect_rects(ga2.take(np.array([j])))
    from ..geom.array import POINT

    if not (r1[0] and r2[0]):
        from ..geom.relate import relate_general

        return relate_general(ga1, i, ga2, j)
    return _rect_relate(
        ga1.bounds()[i], ga2.bounds()[j],
        bool(ga1.types[i] == POINT), bool(ga2.types[j] == POINT),
    )


def mask_matches(matrix: str, mask: str) -> bool:
    """DE-9IM mask match: '*'/'-' any, 'T' any non-F dimension, 'F'
    empty, digit exact (ST_RelateMatch semantics; '-' is Spatialite's
    don't-care spelling — the reference's own tests use 'T-F--F---'
    as an equivalent of the within mask,
    test_export_by_location.py:198)."""
    for mc, xc in zip(mask, matrix):
        if mc in "*-":
            continue
        if mc == "T" and xc == "F":
            return False
        if mc == "F" and xc != "F":
            return False
        if mc in "012" and xc != mc:
            return False
    return True

_MASK_RE = re.compile(r"^[TF012\*\-]{9}$")
_TOKEN = re.compile(
    r"\s*(\(|\)|[TF012\*\-]{9}(?![\w*-])|and\b|or\b|not\b|is\b|True\b"
    r"|False\b|[a-z_]+)"
)


class RelationQuery:
    """Compiled spatial-relations query: ``predicates`` the query needs,
    ``evaluate(results)`` combining boolean arrays per pair."""

    def __init__(self, query: str):
        self.raw = query
        self._tokens = self._tokenize(query)
        self._pos = 0
        self.ast = self._parse_or()
        if self._pos != len(self._tokens):
            raise ValueError(f"trailing tokens in spatial query: {query!r}")
        self.predicates: set[str] = set()
        self._collect(self.ast)

    @staticmethod
    def _tokenize(query: str) -> list[str]:
        out, pos = [], 0
        while pos < len(query):
            m = _TOKEN.match(query, pos)
            if not m:
                if query[pos:].strip():
                    raise ValueError(f"bad spatial query near {query[pos:]!r}")
                break
            out.append(m.group(1))
            pos = m.end()
        return out

    # grammar: or := and ('or' and)* ; and := unary ('and' unary)* ;
    # unary := 'not' unary | '(' or ')' | pred 'is' True/False
    def _peek(self):
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _eat(self):
        if self._pos >= len(self._tokens):
            raise ValueError(f"unexpected end of spatial query: {self.raw!r}")
        t = self._tokens[self._pos]
        self._pos += 1
        return t

    def _parse_or(self):
        node = self._parse_and()
        while self._peek() and self._peek().lower() == "or":
            self._eat()
            node = ("or", node, self._parse_and())
        return node

    def _parse_and(self):
        node = self._parse_unary()
        while self._peek() and self._peek().lower() == "and":
            self._eat()
            node = ("and", node, self._parse_unary())
        return node

    def _parse_unary(self):
        t = self._peek()
        if t is None:
            raise ValueError(f"unexpected end of spatial query: {self.raw!r}")
        if t.lower() == "not":
            self._eat()
            return ("not", self._parse_unary())
        if t == "(":
            self._eat()
            node = self._parse_or()
            if self._eat() != ")":
                raise ValueError("unbalanced parens")
            return node
        tok = self._eat()
        if _MASK_RE.match(tok):
            pred = f"mask:{tok}"  # raw DE-9IM mask (ST_RelateMatch path)
        else:
            pred = tok.lower()
            if pred not in NAMED_PREDICATES:
                raise ValueError(
                    f"unknown predicate {pred!r}; supported: "
                    f"{NAMED_PREDICATES} or a 9-char DE-9IM mask"
                )
        if self._eat().lower() != "is":
            raise ValueError("expected 'is' after predicate")
        val = self._eat()
        if val not in ("True", "False"):
            raise ValueError("expected True/False")
        node = ("pred", pred)
        return node if val == "True" else ("not", node)

    def _collect(self, node):
        if node[0] == "pred":
            self.predicates.add(node[1])
        elif node[0] == "not":
            self._collect(node[1])
        else:
            self._collect(node[1])
            self._collect(node[2])

    @property
    def mentions_disjoint_true(self) -> bool:
        """Whether the query can be satisfied by a pair of disjoint
        geometries — in that case rows with NO candidates must also match
        (reference probes this live with two disjoint squares,
        _geoops_sql.py:2494-2513; we evaluate the AST symbolically, masks
        against the disjoint-rects DE-9IM matrix)."""
        disjoint_matrix = "FF2FF1212"
        results = {}
        for p in self.predicates:
            if p.startswith("mask:"):
                results[p] = np.array([mask_matches(disjoint_matrix, p[5:])])
            else:
                results[p] = np.array([p == "disjoint"])
        return bool(self.evaluate(results)[0])

    def evaluate(self, results: dict[str, np.ndarray]) -> np.ndarray:
        def ev(node):
            if node[0] == "pred":
                return results[node[1]]
            if node[0] == "not":
                return ~ev(node[1])
            a, b = ev(node[1]), ev(node[2])
            return (a & b) if node[0] == "and" else (a | b)

        return ev(self.ast)


# ---------------------------------------------------------- rect detection


def detect_rects(ga: GeometryArray) -> np.ndarray:
    """Boolean mask: geometry is an axis-aligned rectangle (single ring,
    5 coords, all on its own bbox corners) or a point. Fully vectorized
    (one fancy-indexed gather over the coord slab)."""
    cached = getattr(ga, "_detect_rects_cache", None)
    if cached is not None:
        return cached
    n = len(ga)
    out = np.zeros(n, dtype=bool)
    if n == 0:
        return out
    ncoords = ga.num_coords()
    is_pt = (ga.types == POINT) & (ncoords == 1)
    cand = np.flatnonzero(
        (ga.types == POLYGON)
        & (ncoords == 5)
        & (ga.geom_offsets[1:] - ga.geom_offsets[:-1] == 1)
    )
    if len(cand):
        b = ga.bounds()[cand]
        lo, _ = ga.geom_coord_ranges()
        gather = lo[cand, None] + np.arange(5)[None, :]
        cx = ga.coords[:, 0][gather]  # (m, 5)
        cy = ga.coords[:, 1][gather]
        on_x = (cx == b[:, 0:1]) | (cx == b[:, 2:3])
        on_y = (cy == b[:, 1:2]) | (cy == b[:, 3:4])
        ok = (
            on_x.all(axis=1)
            & on_y.all(axis=1)
            & (b[:, 2] > b[:, 0])
            & (b[:, 3] > b[:, 1])
        )
        out[cand] = ok
    out |= is_pt
    try:  # memoize: immutable per array, recomputed at every hot call site
        ga._detect_rects_cache = out
    except AttributeError:
        pass
    return out


def _rect_pair_predicates(
    b1: np.ndarray, b2: np.ndarray, preds: set[str]
) -> dict[str, np.ndarray]:
    """Exact predicate arrays for pairs of axis-aligned rects/points given
    their bounds (points have degenerate bounds). Vectorized."""
    ox0 = np.maximum(b1[:, 0], b2[:, 0])
    oy0 = np.maximum(b1[:, 1], b2[:, 1])
    ox1 = np.minimum(b1[:, 2], b2[:, 2])
    oy1 = np.minimum(b1[:, 3], b2[:, 3])
    inter = (ox0 <= ox1) & (oy0 <= oy1)
    interior = (ox0 < ox1) & (oy0 < oy1)
    deg1 = (b1[:, 0] == b1[:, 2]) & (b1[:, 1] == b1[:, 3])  # point
    deg2 = (b2[:, 0] == b2[:, 2]) & (b2[:, 1] == b2[:, 3])
    # for points, interior-intersection = strict containment
    pt_in2 = (
        (b1[:, 0] > b2[:, 0]) & (b1[:, 0] < b2[:, 2])
        & (b1[:, 1] > b2[:, 1]) & (b1[:, 1] < b2[:, 3])
    )
    pt_in1 = (
        (b2[:, 0] > b1[:, 0]) & (b2[:, 0] < b1[:, 2])
        & (b2[:, 1] > b1[:, 1]) & (b2[:, 1] < b1[:, 3])
    )
    interiors = np.where(deg1, pt_in2, np.where(deg2, pt_in1, interior))
    cov12 = (
        (b2[:, 0] >= b1[:, 0]) & (b2[:, 2] <= b1[:, 2])
        & (b2[:, 1] >= b1[:, 1]) & (b2[:, 3] <= b1[:, 3])
    )
    cov21 = (
        (b1[:, 0] >= b2[:, 0]) & (b1[:, 2] <= b2[:, 2])
        & (b1[:, 1] >= b2[:, 1]) & (b1[:, 3] <= b2[:, 3])
    )
    eq = cov12 & cov21
    out: dict[str, np.ndarray] = {}
    for p in preds:
        if p == "intersects":
            out[p] = inter
        elif p == "disjoint":
            out[p] = ~inter
        elif p == "touches":
            # point/point pairs never touch: the boundary of a point is
            # empty, so the DE-9IM boundary terms are all F (matches the
            # generic predicate path and PostGIS/GEOS semantics)
            out[p] = inter & ~interiors & ~(deg1 & deg2)
        elif p == "covers":
            out[p] = cov12
        elif p == "coveredby":
            out[p] = cov21
        elif p == "contains":
            out[p] = cov12 & interiors
        elif p == "within":
            out[p] = cov21 & interiors
        elif p == "equals":
            out[p] = eq
        elif p == "overlaps":
            out[p] = interiors & ~cov12 & ~cov21 & (deg1 == deg2)
        elif p == "crosses":
            # rect/rect and pt/rect never cross (dim rules)
            out[p] = np.zeros(len(b1), dtype=bool)
    return out


def evaluate_pairs(
    query: RelationQuery,
    ga1: GeometryArray,
    ia: np.ndarray,
    ga2: GeometryArray,
    ib: np.ndarray,
) -> np.ndarray:
    """Boolean per candidate pair (ia[k], ib[k]) whether the compiled
    query holds. Rect/point pairs vectorized; others via exact pair
    predicates."""
    m = len(ia)
    if m == 0:
        return np.zeros(0, dtype=bool)
    r1 = detect_rects(ga1)
    r2 = detect_rects(ga2)
    fast = r1[ia] & r2[ib]
    named = {p for p in query.predicates if not p.startswith("mask:")}
    masks = [p for p in query.predicates if p.startswith("mask:")]
    results = {p: np.zeros(m, dtype=bool) for p in query.predicates}
    if fast.any():
        k = np.flatnonzero(fast)
        sub = _rect_pair_predicates(
            ga1.bounds()[ia[k]], ga2.bounds()[ib[k]], named
        )
        for p, v in sub.items():
            results[p][k] = v
    done = fast.copy()
    if named and not done.all():
        # convex×rect pairs: one vectorized separating-axis pass for the
        # whole batch instead of per-pair python predicates
        from ..geom.convexclip import clip_operands, convex_rect_predicates

        cvx1 = clip_operands(ga1)[1]
        cvx2 = clip_operands(ga2)[1]
        c1 = ~done & cvx1[ia] & r2[ib] & (ga2.types[ib] == POLYGON)
        c2 = ~done & ~c1 & cvx2[ib] & r1[ia] & (ga1.types[ia] == POLYGON)
        for sel, gc, ic, gr, ir, swapped in (
            (c1, ga1, ia, ga2, ib, False),
            (c2, ga2, ib, ga1, ia, True),
        ):
            if sel.any():
                k = np.flatnonzero(sel)
                sub = convex_rect_predicates(
                    gc, ic[k], gr.bounds()[ir[k]], named, swapped=swapped
                )
                for p, v in sub.items():
                    results[p][k] = v
                done = done | sel
    slow = np.flatnonzero(~done)
    for k in slow:
        i, j = int(ia[k]), int(ib[k])
        for p in named:
            results[p][k] = PREDICATES[p](ga1, i, ga2, j)
    if masks:
        from ..geom.array import POINT as _PT
        from ..geom.relate import relate_general

        b1a, b2a = ga1.bounds(), ga2.bounds()
        rectpair = r1[ia] & r2[ib]
        for p in masks:
            mask = p[5:]
            for k in range(m):
                i, j = int(ia[k]), int(ib[k])
                if rectpair[k]:
                    mat = _rect_relate(
                        b1a[i], b2a[j],
                        bool(ga1.types[i] == _PT), bool(ga2.types[j] == _PT),
                    )
                else:
                    mat = relate_general(ga1, i, ga2, j)
                results[p][k] = mask_matches(mat, mask)
    return query.evaluate(results)


def pair_nearest_points_batch(
    ga1: GeometryArray,
    ia: np.ndarray,
    ga2: GeometryArray,
    ib: np.ndarray,
    dists: np.ndarray | None = None,
) -> np.ndarray:
    """(m,4) array (x1,y1,x2,y2) of the nearest point pair per candidate
    pair — rect×rect and point×rect fast paths vectorized (interval
    overlap / clamp), generic pairs via pair_nearest_points. Pairs with
    ``dists == 0`` short-circuit to a shared point (geodesic 0)."""
    from ..geom.array import POINT
    from ..geom.predicates import pair_nearest_points

    m = len(ia)
    out = np.empty((m, 4), dtype=np.float64)
    if m == 0:
        return out
    done = np.zeros(m, dtype=bool)
    lo1, hi1 = ga1.geom_coord_ranges()
    if dists is not None:
        z = np.flatnonzero(dists == 0)
        if len(z):
            p = ga1.coords[lo1[ia[z]]]
            out[z, 0:2] = p
            out[z, 2:4] = p
            done[z] = True
    r1, r2 = detect_rects(ga1), detect_rects(ga2)
    pt1 = (ga1.types == POINT) & (hi1 - lo1 == 1)
    b1, b2 = ga1.bounds(), ga2.bounds()

    def _axis_nearest(lo_a, hi_a, lo_b, hi_b):
        """per-axis nearest coordinates of two intervals (overlap → the
        left end of the overlap, shared by both sides)."""
        o0 = np.maximum(lo_a, lo_b)
        o1 = np.minimum(hi_a, hi_b)
        ov = o0 <= o1
        ca = np.where(ov, o0, np.where(hi_b < lo_a, lo_a, hi_a))
        cb = np.where(ov, o0, np.where(hi_b < lo_a, hi_b, lo_b))
        return ca, cb

    rr = ~done & r1[ia] & r2[ib]
    if rr.any():
        k = np.flatnonzero(rr)
        ax, bx = _axis_nearest(
            b1[ia[k], 0], b1[ia[k], 2], b2[ib[k], 0], b2[ib[k], 2]
        )
        ay, by = _axis_nearest(
            b1[ia[k], 1], b1[ia[k], 3], b2[ib[k], 1], b2[ib[k], 3]
        )
        out[k, 0], out[k, 1], out[k, 2], out[k, 3] = ax, ay, bx, by
        done[k] = True
    pr = ~done & pt1[ia] & r2[ib]
    if pr.any():
        k = np.flatnonzero(pr)
        p = ga1.coords[lo1[ia[k]]]
        out[k, 0:2] = p
        out[k, 2] = np.clip(p[:, 0], b2[ib[k], 0], b2[ib[k], 2])
        out[k, 3] = np.clip(p[:, 1], b2[ib[k], 1], b2[ib[k], 3])
        done[k] = True
    for k in np.flatnonzero(~done):
        p, q = pair_nearest_points(ga1, int(ia[k]), ga2, int(ib[k]))
        out[k, 0:2] = p
        out[k, 2:4] = q
    return out


def pair_distances(
    ga1: GeometryArray, ia: np.ndarray, ga2: GeometryArray, ib: np.ndarray
) -> np.ndarray:
    """Exact distance per candidate pair; rect/point fast path."""
    from ..geom.predicates import pair_distance

    m = len(ia)
    out = np.empty(m, dtype=np.float64)
    if m == 0:
        return out
    r1 = detect_rects(ga1)
    r2 = detect_rects(ga2)
    fast = r1[ia] & r2[ib]
    if fast.any():
        k = np.flatnonzero(fast)
        b1 = ga1.bounds()[ia[k]]
        b2 = ga2.bounds()[ib[k]]
        dx = np.maximum(np.maximum(b2[:, 0] - b1[:, 2], b1[:, 0] - b2[:, 2]), 0)
        dy = np.maximum(np.maximum(b2[:, 1] - b1[:, 3], b1[:, 1] - b2[:, 3]), 0)
        out[k] = np.hypot(dx, dy)
    for k in np.flatnonzero(~fast):
        out[k] = pair_distance(ga1, int(ia[k]), ga2, int(ib[k]))
    return out
