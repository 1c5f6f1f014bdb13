"""ESRI Shapefile endpoints (.shp/.shx/.dbf) — pure Python, no GDAL.

The second format a geofileops user reaches for (reference driver
matrix geofileops/util/geofiletypes.csv; read through OGR in
fileops.py:1621-1745). The format is three fixed-layout binary files
(ESRI Shapefile Technical Description, 1998), all parseable with
struct + numpy:

* ``.shp`` — geometry records: 2D Point / MultiPoint / PolyLine /
  Polygon (Z/M variants read with the extra dimensions dropped, the
  engine's 2D model — same degrade as the WKB decoder). MultiPatch
  and unknown shape types raise ``ValueError``.
* ``.dbf`` — dBase III attribute table (C/N/F/L/D field types).
* ``.shx`` — record offset index (written; reads scan ``.shp``
  directly).

Polygon records carry all rings flat; ring→polygon assembly follows
the spec's orientation rule (outer rings clockwise, holes
counter-clockwise) with containment assignment of holes to outers.
Interchange endpoint like GeoJSON/GPKG: single files, driver-side
parse re-blocked into a streaming Dataset; the 100 TB path is
partitioned Parquet/Lance."""

from __future__ import annotations

import os
import struct

import numpy as np
import pyarrow as pa

import ray.data

_GEOM = "geometry"

from ..geom.array import (
    LINESTRING,
    MISSING,
    MULTILINESTRING,
    MULTIPOINT,
    MULTIPOLYGON,
    POINT,
    POLYGON,
    GeometryArray,
)


def _signed_area(ring: np.ndarray) -> float:
    x, y = ring[:, 0], ring[:, 1]
    return 0.5 * float(
        np.sum(x[:-1] * y[1:] - x[1:] * y[:-1])
        + (x[-1] * y[0] - x[0] * y[-1])
    )


def _point_in_ring(pt: np.ndarray, ring: np.ndarray) -> bool:
    x, y = float(pt[0]), float(pt[1])
    inside = False
    j = len(ring) - 1
    for i in range(len(ring)):
        xi, yi = ring[i]
        xj, yj = ring[j]
        if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
            inside = not inside
        j = i
    return inside


def _assemble_polygon(rings: list[np.ndarray]) -> tuple[int, list]:
    """Shapefile ring soup → (type, parts): outers are CW (negative
    signed area in math orientation), holes CCW, assigned to the
    innermost containing outer."""
    outers = [r for r in rings if _signed_area(r) <= 0]
    holes = [r for r in rings if _signed_area(r) > 0]
    if not outers:  # degenerate: treat every ring as an outer
        outers, holes = rings, []
    parts: list[list[np.ndarray]] = [[o] for o in outers]
    for h in holes:
        cands = [
            (abs(_signed_area(o[0])), i)
            for i, o in enumerate(parts)
            if _point_in_ring(h[0], o[0])
        ]
        if cands:
            parts[min(cands)[1]].append(h)
        else:
            parts.append([h])  # orphan hole: keep as its own outer
    if len(parts) == 1:
        return POLYGON, parts
    return MULTIPOLYGON, parts


# Null, Point, PolyLine, Polygon, MultiPoint and their Z (+10) and M
# (+20) variants; MultiPatch (31) and unknown codes are not read
_SHP_TYPES = frozenset({0, 1, 3, 5, 8, 11, 13, 15, 18, 21, 23, 25, 28})


def _parse_shp(buf: bytes, path: str) -> list[tuple[int, list]]:
    """.shp bytes → list of (type, parts) in GeometryArray convention."""
    geoms: list[tuple[int, list]] = []
    n = len(buf)
    pos = 100  # main header
    while pos + 8 <= n:
        (_recno, clen) = struct.unpack_from(">ii", buf, pos)
        pos += 8
        end = pos + clen * 2
        (stype,) = struct.unpack_from("<i", buf, pos)
        if stype not in _SHP_TYPES:
            raise ValueError(
                f"unsupported shapefile shape type {stype} in {path}"
            )
        base = stype % 10  # Z(+10) / M(+20) variants
        p = pos + 4
        if stype == 0:
            geoms.append((MISSING, []))
        elif base == 1:  # Point / PointZ(11) / PointM(21)
            x, y = struct.unpack_from("<dd", buf, p)
            geoms.append((POINT, [[np.array([[x, y]], dtype=np.float64)]]))
        elif base == 8:  # MultiPoint
            (npts,) = struct.unpack_from("<i", buf, p + 32)
            pts = np.frombuffer(
                buf, "<f8", npts * 2, p + 36
            ).reshape(npts, 2)
            geoms.append(
                (MULTIPOINT,
                 [[pts[i : i + 1].astype(np.float64)] for i in range(npts)])
            )
        else:  # PolyLine / Polygon
            nparts, npts = struct.unpack_from("<ii", buf, p + 32)
            offs = np.frombuffer(buf, "<i4", nparts, p + 40)
            pts = np.frombuffer(
                buf, "<f8", npts * 2, p + 40 + nparts * 4
            ).reshape(npts, 2).astype(np.float64)
            bounds = np.append(offs, npts)
            seqs = [
                pts[bounds[i] : bounds[i + 1]] for i in range(nparts)
                if bounds[i + 1] - bounds[i] >= 2
            ]
            if base == 3:
                if len(seqs) == 1:
                    geoms.append((LINESTRING, [[seqs[0]]]))
                else:
                    geoms.append((MULTILINESTRING, [[s] for s in seqs]))
            else:
                rings = [
                    s if np.all(s[0] == s[-1]) else np.vstack([s, s[:1]])
                    for s in seqs
                    if len(s) >= 3
                ]
                if rings:
                    geoms.append(_assemble_polygon(rings))
                else:
                    geoms.append((POLYGON, []))
        pos = end
    return geoms


def _parse_dbf(buf: bytes) -> tuple[list[tuple[str, str, int, int]], list[list]]:
    """.dbf bytes → (fields, rows). Field types C/N/F/L/D."""
    if not buf:
        return [], []
    nrec, hdr_len, rec_len = struct.unpack_from("<iHH", buf, 4)
    fields = []
    pos = 32
    while pos < hdr_len - 1 and buf[pos] != 0x0D:
        name = buf[pos : pos + 11].split(b"\x00")[0].decode("ascii")
        ftype = chr(buf[pos + 11])
        flen = buf[pos + 16]
        fdec = buf[pos + 17]
        fields.append((name, ftype, flen, fdec))
        pos += 32
    rows = []
    pos = hdr_len
    for _ in range(nrec):
        if pos + rec_len > len(buf):
            break
        if buf[pos] == 0x2A:  # deleted record
            pos += rec_len
            continue
        rec = []
        q = pos + 1
        for _name, ftype, flen, fdec in fields:
            raw = buf[q : q + flen]
            q += flen
            txt = raw.decode("latin-1").strip()
            if ftype in ("N", "F"):
                if not txt or txt in ("*" * len(txt),):
                    rec.append(None)
                elif fdec == 0 and ftype == "N" and "." not in txt:
                    rec.append(int(txt))
                else:
                    rec.append(float(txt))
            elif ftype == "L":
                rec.append(
                    True if txt in "TtYy" else False if txt in "FfNn" else None
                )
            else:  # C, D and anything else: text
                rec.append(txt if txt else None)
        rows.append(rec)
        pos += rec_len
    return fields, rows


def read_shapefile(
    path: str, columns: list[str] | None = None
) -> ray.data.Dataset:
    """Shapefile → Dataset of (fid, attrs…, geometry WKB). ``path``
    names the ``.shp``; the sibling ``.dbf`` supplies attributes (a
    missing .dbf yields geometry-only rows). fid is the 0-based record
    number (OGR shapefile convention)."""
    from ..geom.wkb import to_wkb_arrow

    with open(path, "rb") as fh:
        geoms = _parse_shp(fh.read(), path)
    dbf_path = os.path.splitext(path)[0] + ".dbf"
    fields: list = []
    rows: list = []
    if os.path.exists(dbf_path):
        with open(dbf_path, "rb") as fh:
            fields, rows = _parse_dbf(fh.read())
    ga = GeometryArray.from_parts(geoms)
    wkb = to_wkb_arrow(ga)
    cols: dict = {
        "fid": pa.array(range(len(geoms)), pa.int64()),
    }
    for j, (name, ftype, _l, fdec) in enumerate(fields):
        vals = [r[j] if j < len(r) else None for r in rows]
        vals += [None] * (len(geoms) - len(vals))
        if ftype in ("N", "F"):
            typ = (
                pa.int64()
                if ftype == "N" and fdec == 0
                and all(v is None or isinstance(v, int) for v in vals)
                else pa.float64()
            )
            cols[name] = pa.array(vals, typ)
        elif ftype == "L":
            cols[name] = pa.array(vals, pa.bool_())
        else:
            cols[name] = pa.array(vals, pa.string())
    cols[_GEOM] = wkb if isinstance(wkb, pa.Array) else wkb.combine_chunks()
    t = pa.table(cols)
    if columns:
        keep = [c for c in t.column_names if c in columns or c == _GEOM]
        t = t.select(keep)
    block = 65536
    return ray.data.from_arrow(
        [t.slice(i, block) for i in range(0, max(t.num_rows, 1), block)]
    )


def _ring_cw(ring: np.ndarray) -> np.ndarray:
    return ring[::-1] if _signed_area(ring) > 0 else ring


def _ring_ccw(ring: np.ndarray) -> np.ndarray:
    return ring[::-1] if _signed_area(ring) <= 0 else ring


def _shp_record(t: int, parts: list) -> tuple[int, bytes]:
    """(shape type, record content bytes) for one geometry."""
    if t == MISSING or not parts:
        return 0, struct.pack("<i", 0)
    if t == POINT:
        xy = parts[0][0][0]
        return 1, struct.pack("<idd", 1, float(xy[0]), float(xy[1]))
    if t == MULTIPOINT:
        pts = np.vstack([p[0][0:1][0] for p in parts])
        body = struct.pack(
            "<i4di",
            8,
            float(pts[:, 0].min()), float(pts[:, 1].min()),
            float(pts[:, 0].max()), float(pts[:, 1].max()),
            len(pts),
        ) + pts.astype("<f8").tobytes()
        return 8, body
    if t in (LINESTRING, MULTILINESTRING):
        seqs = [p[0] for p in parts if len(p) and len(p[0]) >= 2]
        stype = 3
    else:  # POLYGON / MULTIPOLYGON: outer CW, holes CCW per spec
        seqs = []
        for part in parts:
            if not part:
                continue
            seqs.append(_ring_cw(part[0]))
            for h in part[1:]:
                seqs.append(_ring_ccw(h))
        stype = 5
    if not seqs:
        return 0, struct.pack("<i", 0)
    allpts = np.vstack(seqs)
    offs = np.cumsum([0] + [len(s) for s in seqs[:-1]]).astype("<i4")
    body = (
        struct.pack(
            "<i4dii",
            stype,
            float(allpts[:, 0].min()), float(allpts[:, 1].min()),
            float(allpts[:, 0].max()), float(allpts[:, 1].max()),
            len(seqs), len(allpts),
        )
        + offs.tobytes()
        + allpts.astype("<f8").tobytes()
    )
    return stype, body


def write_shapefile(ds: ray.data.Dataset, path: str) -> None:
    """Dataset → .shp/.shx/.dbf triple. One geometry type family per
    file (the format's constraint — mixed inputs raise); attribute
    columns map to DBF C/N/F/L fields."""
    from ..geom.wkb import from_wkb

    base = os.path.splitext(path)[0]
    records: list[tuple[int, bytes]] = []
    attr_schema: pa.Schema | None = None
    attr_rows: list[tuple] = []
    bounds = [np.inf, np.inf, -np.inf, -np.inf]
    for batch in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        if attr_schema is None:
            attr_schema = pa.schema(
                [f for f in batch.schema if f.name not in (_GEOM, "fid")]
            )
        if len(batch) == 0:
            continue
        ga = from_wkb(batch.column(_GEOM))
        b = ga.bounds()
        ok = np.isfinite(b[:, 0])
        if ok.any():
            bounds[0] = min(bounds[0], float(b[ok, 0].min()))
            bounds[1] = min(bounds[1], float(b[ok, 1].min()))
            bounds[2] = max(bounds[2], float(b[ok, 2].max()))
            bounds[3] = max(bounds[3], float(b[ok, 3].max()))
        acols = [batch.column(f.name).to_pylist() for f in attr_schema]
        for i in range(len(batch)):
            records.append(_shp_record(int(ga.types[i]), ga._parts_of(i)))
            attr_rows.append(tuple(c[i] for c in acols))
    stypes = {s for s, _b in records if s != 0}
    if len(stypes) > 1:
        raise ValueError(
            f"shapefile cannot mix shape types {sorted(stypes)}; "
            "write per-type layers or use GPKG/GeoJSON"
        )
    stype = stypes.pop() if stypes else 1
    if bounds[0] == np.inf:
        bounds = [0.0, 0.0, 0.0, 0.0]

    # ---- .shp + .shx
    shp_parts: list[bytes] = []
    shx_parts: list[bytes] = []
    off_words = 50  # header = 100 bytes
    for k, (_s, body) in enumerate(records):
        clen = len(body) // 2
        shx_parts.append(struct.pack(">ii", off_words, clen))
        shp_parts.append(struct.pack(">ii", k + 1, clen) + body)
        off_words += 4 + clen

    def _hdr(total_words: int) -> bytes:
        # 100 bytes: BE file code + 20 unused + BE length, then LE
        # version/type/bbox/zm ranges
        return (
            struct.pack(">i", 9994)
            + b"\x00" * 20
            + struct.pack(">i", total_words)
            + struct.pack("<ii", 1000, stype)
            + struct.pack("<4d", *bounds)
            + struct.pack("<4d", 0.0, 0.0, 0.0, 0.0)
        )

    with open(base + ".shp", "wb") as fh:
        fh.write(_hdr(off_words))
        fh.writelines(shp_parts)
    with open(base + ".shx", "wb") as fh:
        fh.write(_hdr(50 + 4 * len(records)))
        fh.writelines(shx_parts)

    # ---- .dbf
    fields: list[tuple[str, str, int, int]] = []
    attr_schema = attr_schema or pa.schema([])
    for f in attr_schema:
        name = f.name[:10]
        if pa.types.is_boolean(f.type):
            fields.append((name, "L", 1, 0))
        elif pa.types.is_integer(f.type):
            fields.append((name, "N", 18, 0))
        elif pa.types.is_floating(f.type):
            fields.append((name, "N", 24, 10))
        else:
            fields.append((name, "C", 80, 0))
    rec_len = 1 + sum(fl for _n, _t, fl, _d in fields)
    hdr_len = 32 + 32 * len(fields) + 1
    with open(base + ".dbf", "wb") as fh:
        fh.write(
            struct.pack(
                "<4BiHH20x", 3, 95, 1, 1, len(records), hdr_len, rec_len
            )
        )
        for name, ftype, flen, fdec in fields:
            fh.write(
                name.encode("ascii").ljust(11, b"\x00")
                + ftype.encode("ascii")
                + b"\x00" * 4
                + bytes([flen, fdec])
                + b"\x00" * 14
            )
        fh.write(b"\x0d")
        for row in attr_rows:
            fh.write(b" ")
            for (name, ftype, flen, fdec), v in zip(fields, row):
                if v is None:
                    fh.write(b" " * flen)
                elif ftype == "L":
                    fh.write(b"T" if v else b"F")
                elif ftype == "N" and fdec == 0:
                    fh.write(str(int(v)).rjust(flen)[:flen].encode("ascii"))
                elif ftype == "N":
                    fh.write(
                        f"{float(v):.{fdec}f}".rjust(flen)[:flen].encode(
                            "ascii"
                        )
                    )
                else:
                    fh.write(
                        str(v)[:flen].encode("latin-1", "replace").ljust(
                            flen
                        )
                    )
        fh.write(b"\x1a")
