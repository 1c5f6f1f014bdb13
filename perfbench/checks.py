"""Output checks. Each check raises :class:`CheckFailed` with the first
difference it finds; none of them is timed.

The geometry helpers here (WKB reader, shoelace area, Sutherland–Hodgman
clip) are written independently of ``geofileops_ray.geom`` so that a bug
in the engine's kernels cannot hide itself.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa


class CheckFailed(AssertionError):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ----------------------------------------------------------- registry oracles


def duckdb_oracle(name: str, docs: pa.Table, expanded_cte: str, repeat: int,
                  threads: int) -> pa.Table:
    """Run the registry's DuckDB oracle ``name`` over ``docs``.

    The oracles read one ``documents`` table for every layer. The
    benchmark builds its large layer from ``expand_documents(docs,
    repeat)``, so that layer's CTE (``expanded_cte``) is pointed at the
    SQL mirror of the expansion, ``documents CROSS JOIN
    generate_series``; the other layers keep reading ``docs``."""
    import duckdb

    from geofileops_ray.pipelines.queries import ORACLES

    sql = ORACLES[name]
    cte = expanded_cte.strip()
    require(cte in sql, f"oracle {name} does not contain the expected CTE")
    sql = sql.replace(
        cte, cte.replace("FROM documents", "FROM expanded_documents")
    )
    con = duckdb.connect()
    try:
        con.execute(f"SET threads = {int(threads)}")
        con.register("documents", docs)
        con.execute(
            "CREATE VIEW expanded_documents AS "
            f"SELECT d.doc_id * {int(repeat)} + g.j AS doc_id, d.text, d.lang "
            f"FROM documents d CROSS JOIN generate_series(0, {int(repeat) - 1}) g(j)"
        )
        return con.execute(sql).fetch_arrow_table()
    finally:
        con.close()


def round_half_up(x: np.ndarray, nd: int) -> np.ndarray:
    """SQL ``ROUND`` for the non-negative values the oracles round."""
    m = 10.0**nd
    return np.floor(np.asarray(x, dtype=np.float64) * m + 0.5) / m


def sorted_by(t: pa.Table, keys: list[str]) -> pa.Table:
    return t.sort_by([(k, "ascending") for k in keys])


def check_flagship_agg(out: pa.Table, expected: pa.Table) -> None:
    """Dissolve output aggregates against the ``flagship_agg`` oracle."""
    keys = ["GEWASGROEP", "naam"]
    require(out.num_rows == expected.num_rows,
            f"{out.num_rows} groups, oracle has {expected.num_rows}")
    got = sorted_by(out, keys)
    exp = sorted_by(expected, keys)
    for k in keys + ["nb_rows"]:
        require(
            got.column(k).to_pylist() == exp.column(k).to_pylist(),
            f"column {k} differs from the oracle",
        )
    s = round_half_up(got.column("sum_oppervl").to_numpy(), 4)
    require(np.array_equal(s, exp.column("sum_oppervl").to_numpy()),
            "sum_oppervl differs from the oracle")


def check_nearest_k2(out: pa.Table, expected: pa.Table) -> None:
    """kNN rows against the ``join_nearest_k2`` oracle. The oracle rounds
    both distances; the engine's raw value must lie within one unit of
    the oracle's last digit."""
    keys = ["l1_doc_id", "pos"]
    require(out.num_rows == expected.num_rows,
            f"{out.num_rows} rows, oracle has {expected.num_rows}")
    got = sorted_by(out.select(keys + ["distance", "distance_crs"]), keys)
    exp = sorted_by(expected, keys)
    for k in keys:
        require(
            np.array_equal(got.column(k).to_numpy(), exp.column(k).to_numpy()),
            f"column {k} differs from the oracle",
        )
    for col, nd in (("distance", 4), ("distance_crs", 6)):
        d = np.abs(got.column(col).to_numpy() - exp.column(col).to_numpy())
        worst = float(d.max()) if len(d) else 0.0
        require(worst <= 10.0**-nd, f"{col} off by {worst:g} from the oracle")


# ------------------------------------------------------------- WKB geometry


def wkb_polygons(blob: bytes) -> list[list[np.ndarray]]:
    """Polygons of a WKB (Multi)Polygon / GeometryCollection, each a list
    of (n, 2) rings; other geometry types contribute nothing."""
    out: list[list[np.ndarray]] = []
    _read(memoryview(blob), 0, out)
    return out


def _read(buf: memoryview, pos: int, out: list) -> int:
    bo = "<" if buf[pos] == 1 else ">"
    (code,) = struct.unpack_from(bo + "I", buf, pos + 1)
    pos += 5
    code %= 1000
    if code == 3:
        (nrings,) = struct.unpack_from(bo + "I", buf, pos)
        pos += 4
        rings = []
        for _ in range(nrings):
            (n,) = struct.unpack_from(bo + "I", buf, pos)
            pos += 4
            xy = np.frombuffer(buf, dtype=bo + "f8", count=2 * n, offset=pos)
            rings.append(xy.reshape(n, 2))
            pos += 16 * n
        out.append(rings)
        return pos
    if code in (4, 5, 6, 7):
        (n,) = struct.unpack_from(bo + "I", buf, pos)
        pos += 4
        for _ in range(n):
            pos = _read(buf, pos, out if code in (6, 7) else [])
        return pos
    if code == 1:
        return pos + 16
    if code == 2:
        (n,) = struct.unpack_from(bo + "I", buf, pos)
        return pos + 4 + 16 * n
    raise CheckFailed(f"unexpected WKB geometry type {code}")


def ring_area(ring: np.ndarray) -> float:
    x, y = ring[:, 0], ring[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def wkb_area(blob: bytes) -> float:
    total = 0.0
    for rings in wkb_polygons(blob):
        total += abs(ring_area(rings[0])) - sum(abs(ring_area(r)) for r in rings[1:])
    return total


def wkb_bounds(blob: bytes) -> tuple[float, float, float, float]:
    xy = np.concatenate([r for p in wkb_polygons(blob) for r in p])
    return (float(xy[:, 0].min()), float(xy[:, 1].min()),
            float(xy[:, 0].max()), float(xy[:, 1].max()))


def clip_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland–Hodgman: ``subject`` (any simple ring) clipped by the
    convex ring ``clip``. Rings may be closed; the result is open. For a
    concave subject the result can hold zero-width bridges, which add
    no area."""
    if np.array_equal(subject[0], subject[-1]):
        subject = subject[:-1]
    if np.array_equal(clip[0], clip[-1]):
        clip = clip[:-1]
    if ring_area(clip) < 0:
        clip = clip[::-1]
    pts = [tuple(p) for p in subject]
    for i in range(len(clip)):
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % len(clip)]
        ex, ey = bx - ax, by - ay
        src, pts = pts, []
        if not src:
            break

        def side(p):
            return ex * (p[1] - ay) - ey * (p[0] - ax)

        prev = src[-1]
        sp = side(prev)
        for cur in src:
            sc = side(cur)
            if sc >= 0:
                if sp < 0:
                    pts.append(_cut(prev, cur, sp, sc))
                pts.append(cur)
            elif sp >= 0:
                pts.append(_cut(prev, cur, sp, sc))
            prev, sp = cur, sc
    return np.array(pts, dtype=np.float64).reshape(-1, 2)


def _cut(p, q, sp, sq):
    t = sp / (sp - sq)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def bbox_pairs(b1: np.ndarray, b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All (i, j) whose closed boxes overlap, by sweeping sorted minx."""
    order = np.argsort(b2[:, 0], kind="stable")
    s2 = b2[order]
    width = float((b2[:, 2] - b2[:, 0]).max()) if len(b2) else 0.0
    lo = np.searchsorted(s2[:, 0], b1[:, 0] - width, side="left")
    hi = np.searchsorted(s2[:, 0], b1[:, 2], side="right")
    ii, jj = [], []
    for i in range(len(b1)):
        cand = order[lo[i]:hi[i]]
        c = b2[cand]
        ok = ((c[:, 0] <= b1[i, 2]) & (c[:, 2] >= b1[i, 0])
              & (c[:, 1] <= b1[i, 3]) & (c[:, 3] >= b1[i, 1]))
        ii.append(np.full(int(ok.sum()), i))
        jj.append(cand[ok])
    if not ii:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(ii).astype(np.int64), np.concatenate(jj).astype(np.int64)


def expected_clip_areas(left: pa.Table, right: pa.Table) -> dict[tuple[int, int], float]:
    """{(l1_doc_id, l2_doc_id): area of left ∩ right} over every bbox
    candidate pair, with each right geometry a convex single ring."""
    lg = [wkb_polygons(b) for b in left.column("geometry").to_pylist()]
    rg = [wkb_polygons(b) for b in right.column("geometry").to_pylist()]
    lb = np.array([_ring_bounds(p[0][0]) for p in lg])
    rb = np.array([_ring_bounds(p[0][0]) for p in rg])
    ia, ib = bbox_pairs(lb, rb)
    lid = left.column("doc_id").to_numpy()
    rid = right.column("doc_id").to_numpy()
    out = {}
    for i, j in zip(ia.tolist(), ib.tolist()):
        clipped = clip_convex(lg[i][0][0], rg[j][0][0])
        out[(int(lid[i]), int(rid[j]))] = (
            abs(ring_area(clipped)) if len(clipped) >= 3 else 0.0
        )
    return out


def _ring_bounds(r: np.ndarray) -> tuple[float, float, float, float]:
    return r[:, 0].min(), r[:, 1].min(), r[:, 0].max(), r[:, 1].max()


def check_clip_areas(out: pa.Table, expected: dict[tuple[int, int], float],
                     tol: float) -> None:
    """Every output pair is a candidate whose area matches the clip within
    ``tol``, no pair repeats, and every candidate whose clip area exceeds
    ``tol`` is in the output."""
    l1 = out.column("l1_doc_id").to_pylist()
    l2 = out.column("l2_doc_id").to_pylist()
    geoms = out.column("geometry").to_pylist()
    seen = set()
    for a, b, g in zip(l1, l2, geoms):
        key = (a, b)
        require(key not in seen, f"pair {key} emitted twice")
        seen.add(key)
        require(key in expected, f"pair {key} is not a bbox candidate")
        got = wkb_area(g)
        require(abs(got - expected[key]) <= tol,
                f"pair {key}: area {got!r}, clip gives {expected[key]!r}")
    missing = [k for k, v in expected.items() if v > tol and k not in seen]
    require(not missing, f"{len(missing)} intersecting pairs missing, e.g. {missing[:3]}")


# ------------------------------------------------------------- GeoPackage


def bbox_filter(t: pa.Table, bbox: tuple[float, float, float, float]) -> pa.Table:
    """Rows of ``t`` whose geometry's box meets ``bbox`` (closed boxes)."""
    b = np.array([wkb_bounds(g) for g in t.column("geometry").to_pylist()])
    keep = ((b[:, 0] <= bbox[2]) & (b[:, 2] >= bbox[0])
            & (b[:, 1] <= bbox[3]) & (b[:, 3] >= bbox[1]))
    return t.filter(pa.array(keep))


def check_same_rows(got: pa.Table, exp: pa.Table, what: str) -> None:
    """``got`` holds every column of ``exp`` with equal values (bytes
    exact for binary columns), in any row order; ``exp`` is sorted by
    ``doc_id``."""
    require(got.num_rows == exp.num_rows,
            f"{what}: {got.num_rows} rows, expected {exp.num_rows}")
    got = sorted_by(got, ["doc_id"])
    for name in exp.column_names:
        require(name in got.column_names, f"{what}: column {name} missing")
        g, e = got.column(name), exp.column(name)
        require(g.type == e.type, f"{what}: column {name} is {g.type}, wrote {e.type}")
        require(g.equals(e), f"{what}: column {name} differs")
