"""Unit tests for the hex cell index (tiling/hexgrid.py) and the
line-line overlap kernel. The registry oracle row hex_bin_points is
covered by test_registry; these pin the kernel math and hex_ring."""

import numpy as np
import pyarrow as pa


def test_hex_assign_is_nearest_center_voronoi():
    from geofileops_ray.tiling.hexgrid import hex_assign

    rng = np.random.default_rng(7)
    x = np.round(rng.uniform(0, 200, 5000) * 4) / 4
    y = np.round(rng.uniform(0, 200, 5000) * 4) / 4
    row, col = hex_assign(x, y)
    W, H = 8.0, 3.5
    cs = []
    for i in range(-2, 30):
        for j in range(-2, 32):
            cs.append((i * W, j * 2 * H, 2 * j, 2 * i))
            cs.append((i * W + 4, j * 2 * H + 3.5, 2 * j + 1, 2 * i + 1))
    cs = np.array(cs)
    d = (x[:, None] - cs[None, :, 0]) ** 2 + (y[:, None] - cs[None, :, 1]) ** 2
    k = d.argmin(1)
    ties = (d == d.min(1)[:, None]).sum(1) > 1
    ok = ((row == cs[k, 2]) & (col == cs[k, 3])) | ties
    assert ok.all()
    # parity invariant of doubled coordinates
    assert (((row + col) % 2) == 0).all()


def test_hex_center_roundtrip_and_rings():
    from geofileops_ray.tiling.hexgrid import hex_assign, hex_center, hex_ring

    row = np.array([0, 1, 2, 5, -3])
    col = np.array([0, 1, 4, 7, -1])
    cx, cy = hex_center(row, col)
    r2, c2 = hex_assign(cx, cy)
    assert (r2 == row).all() and (c2 == col).all()
    # H3 kRing sizes: 1 + 3k(k+1)
    for k in (0, 1, 2, 3):
        ring = hex_ring(4, 6, k)
        assert len(ring) == 1 + 3 * k * (k + 1)
        assert (4, 6) in ring


def test_line_line_overlap_kernel():
    """Collinear overlap kept + merged, point crossings dropped,
    difference is the exact complement (geom/overlay.line_line_overlap)."""
    import pyarrow as pa

    from geofileops_ray.geom import from_wkb
    from geofileops_ray.geom.overlay import line_line_overlap

    def wkb_line(coords):
        import struct

        n = len(coords)
        return (
            b"\x01\x02\x00\x00\x00"
            + struct.pack("<I", n)
            + b"".join(struct.pack("<dd", *c) for c in coords)
        )

    base = from_wkb(pa.array([wkb_line([(0, 0), (10, 0), (10, 5)])]))
    cand = from_wkb(
        pa.array(
            [
                wkb_line([(1, 0), (4, 0)]),     # collinear overlap [1,4]
                wkb_line([(3, 0), (6, 0)]),     # overlaps previous → merge [1,6]
                wkb_line([(8, -1), (8, 2)]),    # vertical crosser → point, dropped
                wkb_line([(10, 1), (10, 3)]),   # collinear with vertical run
                wkb_line([(20, 0), (30, 0)]),   # disjoint
            ]
        )
    )
    import numpy as np

    js = np.arange(5)
    inter = line_line_overlap(base._parts_of(0), cand, js, "intersection")
    total = sum(abs(p[1] - p[0]).sum() for p in inter)
    assert total == 5 + 2  # [1,6] on the run + [1,3] on the riser
    diff = line_line_overlap(base._parts_of(0), cand, js, "difference")
    dtotal = sum(np.hypot(*(p[1] - p[0])) for p in diff)
    assert dtotal == (10 + 5) - 7


def test_hex_ring_matches_voronoi_adjacency():
    """Ring-1 must be the six EDGE-SHARING Voronoi neighbours: the two
    vertical same-phase cells (±2, 0) and four diagonals (±1, ±1) — the
    two horizontal cells (0, ±2) are NOT adjacent (the old doubled-width
    formula had the axes swapped and probed exactly the wrong pair)."""
    from geofileops_ray.tiling.hexgrid import hex_assign, hex_ring

    ring1 = set(hex_ring(0, 0, 1)) - {(0, 0)}
    assert ring1 == {(-2, 0), (2, 0), (-1, -1), (-1, 1), (1, -1), (1, 1)}
    # empirical check: walk outward from the center in many directions;
    # the first cell entered must always be a ring-1 member
    seen = set()
    for ang in np.linspace(0, 2 * np.pi, 720, endpoint=False):
        d = np.array([np.cos(ang), np.sin(ang)])
        for rad in np.linspace(0.05, 8, 400):
            r, c = hex_assign(np.array([d[0] * rad]), np.array([d[1] * rad]))
            cell = (int(r[0]), int(c[0]))
            if cell != (0, 0):
                seen.add(cell)
                break
    assert seen == ring1
