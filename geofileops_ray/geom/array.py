"""Ragged numpy representation of a column of geometries.

This is the in-worker geometry model of the engine: a zero-copy-friendly
columnar layout (coords + three levels of offsets) equivalent in spirit to
GeoArrow / shapely 2 ragged arrays, built from scratch on numpy because the
sandbox has no GEOS.

Layout (uniform for every geometry type):

    types        : int8[n]         -- GeomType codes, 0 = missing/null
    geom_offsets : int64[n+1]      -- geometry i owns parts  [g[i], g[i+1])
    part_offsets : int64[nparts+1] -- part j owns rings      [p[j], p[j+1])
    ring_offsets : int64[nrings+1] -- ring k owns coords     [r[k], r[k+1])
    coords       : float64[ncoords, 2]

* Point            : 1 part, 1 ring, 1 coord
* LineString       : 1 part, 1 ring (the line), k coords
* Polygon          : 1 part, rings = exterior + holes (closed: first==last)
* Multi*/Collection: many parts
* empty geometry   : 0 parts (type retained); missing: type 0, 0 parts

Reference data model analogue: a geofileops "layer" row's geometry column
(WKB blob, geofileops/fileops.py:216-286 LayerInfo.geometrycolumn); here it
is decoded per Arrow batch into this structure, transformed vectorized, and
re-encoded to WKB for the next stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# GeomType codes — match ISO WKB geometry type codes.
MISSING = 0
POINT = 1
LINESTRING = 2
POLYGON = 3
MULTIPOINT = 4
MULTILINESTRING = 5
MULTIPOLYGON = 6
GEOMETRYCOLLECTION = 7

TYPE_NAMES = {
    MISSING: "MISSING",
    POINT: "POINT",
    LINESTRING: "LINESTRING",
    POLYGON: "POLYGON",
    MULTIPOINT: "MULTIPOINT",
    MULTILINESTRING: "MULTILINESTRING",
    MULTIPOLYGON: "MULTIPOLYGON",
    GEOMETRYCOLLECTION: "GEOMETRYCOLLECTION",
}

@dataclass
class GeometryArray:
    types: np.ndarray  # int8[n]
    geom_offsets: np.ndarray  # int64[n+1]
    part_offsets: np.ndarray  # int64[nparts+1]
    ring_offsets: np.ndarray  # int64[nrings+1]
    coords: np.ndarray  # float64[ncoords, 2]
    # cached bounds, lazily computed: float64[n, 4] (minx, miny, maxx, maxy);
    # empty/missing rows get (inf, inf, -inf, -inf)
    _bounds: np.ndarray | None = field(default=None, repr=False)
    # cached BoxGrid over bounds() — built on first box_grid() call, so a
    # broadcast side decoded once per worker pays the build once
    _box_grid: object | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.types)

    def box_grid(self):
        """Memoized uniform-grid bbox index over ``bounds()`` (strtree
        .BoxGrid) — for repeated per-batch joins against this array."""
        if self._box_grid is None:
            from .strtree import BoxGrid

            self._box_grid = BoxGrid(self.bounds())
        return self._box_grid

    # ---------------------------------------------------------- constructors

    @classmethod
    def empty(cls, n: int = 0) -> "GeometryArray":
        return cls(
            types=np.zeros(n, dtype=np.int8),
            geom_offsets=np.zeros(n + 1, dtype=np.int64),
            part_offsets=np.zeros(1, dtype=np.int64),
            ring_offsets=np.zeros(1, dtype=np.int64),
            coords=np.empty((0, 2), dtype=np.float64),
        )

    @classmethod
    def from_parts(
        cls,
        geoms: list[tuple[int, list[list[np.ndarray]]]],
    ) -> "GeometryArray":
        """Build from python list of (type_code, parts) where parts is a list
        of rings, each ring an (k,2) float array. For points/lines each part
        has exactly one "ring" (the coord sequence)."""
        n = len(geoms)
        types = np.zeros(n, dtype=np.int8)
        geom_offsets = np.zeros(n + 1, dtype=np.int64)
        part_lens: list[int] = []
        ring_arrays: list[np.ndarray] = []
        ring_lens: list[int] = []
        for i, (code, parts) in enumerate(geoms):
            types[i] = code
            geom_offsets[i + 1] = geom_offsets[i] + len(parts)
            for rings in parts:
                part_lens.append(len(rings))
                for ring in rings:
                    ring = np.asarray(ring, dtype=np.float64).reshape(-1, 2)
                    ring_arrays.append(ring)
                    ring_lens.append(len(ring))
        part_offsets = np.zeros(len(part_lens) + 1, dtype=np.int64)
        np.cumsum(part_lens, out=part_offsets[1:]) if part_lens else None
        ring_offsets = np.zeros(len(ring_lens) + 1, dtype=np.int64)
        np.cumsum(ring_lens, out=ring_offsets[1:]) if ring_lens else None
        coords = (
            np.concatenate(ring_arrays, axis=0)
            if ring_arrays
            else np.empty((0, 2), dtype=np.float64)
        )
        return cls(types, geom_offsets, part_offsets, ring_offsets, coords)

    # ------------------------------------------------------------- accessors

    def geom_coord_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """(start, stop) coord index per geometry, vectorized."""
        part_lo = self.geom_offsets[:-1]
        part_hi = self.geom_offsets[1:]
        ring_lo = self.part_offsets[part_lo]
        ring_hi = self.part_offsets[part_hi]
        lo = self.ring_offsets[ring_lo]
        hi = self.ring_offsets[ring_hi]
        return lo, hi

    def num_coords(self) -> np.ndarray:
        lo, hi = self.geom_coord_ranges()
        return (hi - lo).astype(np.int64)

    def is_missing(self) -> np.ndarray:
        return self.types == MISSING

    def is_empty(self) -> np.ndarray:
        """Empty (0 coords) or missing."""
        lo, hi = self.geom_coord_ranges()
        return hi == lo

    def bounds(self) -> np.ndarray:
        """Per-geometry (minx, miny, maxx, maxy); empty rows -> inf/-inf."""
        if self._bounds is not None:
            return self._bounds
        n = len(self)
        out = np.empty((n, 4), dtype=np.float64)
        out[:, 0] = np.inf
        out[:, 1] = np.inf
        out[:, 2] = -np.inf
        out[:, 3] = -np.inf
        lo, hi = self.geom_coord_ranges()
        nonempty = hi > lo
        if nonempty.any():
            idx = np.flatnonzero(nonempty)
            starts = lo[idx]
            # np.minimum.reduceat needs strictly valid segment starts; we
            # compute per-geometry reductions over the contiguous coord slab.
            xs = self.coords[:, 0]
            ys = self.coords[:, 1]
            out[idx, 0] = np.minimum.reduceat(xs, starts)
            out[idx, 1] = np.minimum.reduceat(ys, starts)
            out[idx, 2] = np.maximum.reduceat(xs, starts)
            out[idx, 3] = np.maximum.reduceat(ys, starts)
            # reduceat segments run to the next start, not to hi -- fix tail
            # segments that span gaps (possible when empty geoms interleave):
            # recompute any geometry whose segment crosses into another's
            # range. Segments are contiguous (coords of consecutive
            # geometries are adjacent), so the only error source is the LAST
            # listed start running to end of array; but that IS its range.
            # Gaps cannot occur because every coord belongs to some geometry
            # and reduceat uses consecutive non-empty starts — the segment
            # for idx[j] ends at idx[j+1]'s start == hi of idx[j] when all
            # in-between geometries are empty. So results are correct.
        self._bounds = out
        return out

    def take(self, indices: np.ndarray) -> "GeometryArray":
        """Gather a new GeometryArray for the given geometry indices —
        fully vectorized (three levels of ragged gather, no per-geometry
        Python)."""
        indices = np.asarray(indices, dtype=np.int64)

        def ragged(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
            total = int(counts.sum())
            if total == 0:
                return np.empty(0, dtype=np.int64)
            base = np.zeros(len(counts), dtype=np.int64)
            np.cumsum(counts[:-1], out=base[1:])
            return np.repeat(starts - base, counts) + np.arange(
                total, dtype=np.int64
            )

        g0 = self.geom_offsets[indices]
        nparts = self.geom_offsets[indices + 1] - g0
        part_idx = ragged(g0, nparts)
        p0 = self.part_offsets[part_idx]
        nrings = self.part_offsets[part_idx + 1] - p0
        ring_idx = ragged(p0, nrings)
        r0 = self.ring_offsets[ring_idx]
        ncoords = self.ring_offsets[ring_idx + 1] - r0
        coord_idx = ragged(r0, ncoords)
        geom_offsets = np.zeros(len(indices) + 1, dtype=np.int64)
        np.cumsum(nparts, out=geom_offsets[1:])
        part_offsets = np.zeros(len(part_idx) + 1, dtype=np.int64)
        np.cumsum(nrings, out=part_offsets[1:])
        ring_offsets = np.zeros(len(ring_idx) + 1, dtype=np.int64)
        np.cumsum(ncoords, out=ring_offsets[1:])
        return GeometryArray(
            types=self.types[indices].copy(),
            geom_offsets=geom_offsets,
            part_offsets=part_offsets,
            ring_offsets=ring_offsets,
            coords=self.coords[coord_idx],
        )

    def _parts_of(self, i: int) -> list[list[np.ndarray]]:
        parts = []
        for p in range(self.geom_offsets[i], self.geom_offsets[i + 1]):
            rings = []
            for r in range(self.part_offsets[p], self.part_offsets[p + 1]):
                rings.append(
                    self.coords[self.ring_offsets[r] : self.ring_offsets[r + 1]]
                )
            parts.append(rings)
        return parts

    def part_types(self, i: int) -> int:
        """Primitive part type code for geometry i (POINT/LINESTRING/POLYGON)."""
        t = int(self.types[i])
        if t in (POINT, MULTIPOINT):
            return POINT
        if t in (LINESTRING, MULTILINESTRING):
            return LINESTRING
        if t in (POLYGON, MULTIPOLYGON):
            return POLYGON
        return t

    # ------------------------------------------------------------- mutation

    def with_coords(self, coords: np.ndarray) -> "GeometryArray":
        """Same structure, new coordinates (e.g. after an affine transform)."""
        return GeometryArray(
            self.types,
            self.geom_offsets,
            self.part_offsets,
            self.ring_offsets,
            np.asarray(coords, dtype=np.float64).reshape(-1, 2),
        )


def concat(arrays: list[GeometryArray]) -> GeometryArray:
    """Concatenate geometry arrays (offset-shifted)."""
    arrays = [a for a in arrays if len(a) > 0] or [GeometryArray.empty(0)]
    types = np.concatenate([a.types for a in arrays])
    go, po, ro, co = [np.zeros(1, dtype=np.int64)], [np.zeros(1, dtype=np.int64)], [
        np.zeros(1, dtype=np.int64)
    ], []
    g = p = r = 0
    for a in arrays:
        go.append(a.geom_offsets[1:] + g)
        po.append(a.part_offsets[1:] + p)
        ro.append(a.ring_offsets[1:] + r)
        co.append(a.coords)
        g += a.geom_offsets[-1]
        p += a.part_offsets[-1]
        r += a.ring_offsets[-1]
    return GeometryArray(
        types,
        np.concatenate(go),
        np.concatenate(po),
        np.concatenate(ro),
        np.concatenate(co) if co else np.empty((0, 2), dtype=np.float64),
    )
