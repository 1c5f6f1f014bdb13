"""Property-based test (hypothesis) for the WKT codec: pure numpy, no
Ray."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

coord = st.integers(-50, 50).map(float)
pt = st.tuples(coord, coord)


def _ring(pts):
    # closed ring from >=3 distinct corner points (may self-intersect —
    # the codec round-trips structure, not validity)
    arr = np.asarray(pts + [pts[0]], dtype=np.float64)
    return arr


wkt_geom = st.one_of(
    st.tuples(st.just("POINT"), st.lists(pt, min_size=1, max_size=1)),
    st.tuples(st.just("LINESTRING"), st.lists(pt, min_size=2, max_size=6)),
    st.tuples(
        st.just("POLYGON"),
        st.lists(pt, min_size=3, max_size=6, unique=True),
    ),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(wkt_geom, min_size=1, max_size=8))
def test_wkt_roundtrip_property(geoms):
    from geofileops_ray.geom.array import (
        LINESTRING,
        POINT,
        POLYGON,
        GeometryArray,
    )
    from geofileops_ray.geom.wkt import from_wkt, to_wkt

    parts = []
    for kind, pts in geoms:
        if kind == "POINT":
            parts.append((POINT, [[np.asarray(pts, dtype=np.float64)]]))
        elif kind == "LINESTRING":
            parts.append((LINESTRING, [[np.asarray(pts, dtype=np.float64)]]))
        else:
            parts.append((POLYGON, [[_ring(pts)]]))
    ga = GeometryArray.from_parts(parts)
    txt = to_wkt(ga)
    ga2 = from_wkt(txt)
    assert (ga.types == ga2.types).all()
    assert np.array_equal(ga.coords, ga2.coords)
    assert to_wkt(ga2) == txt  # emit is a fixed point
