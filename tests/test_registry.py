"""End-to-end check of the driver contract: every queries() entry runs
and matches its DuckDB oracle_sql() exactly —
the same comparison the driver performs at sf0.01, run here at sf0.001.
"""

import math

import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _to_table(res) -> pa.Table:
    import pandas as pd
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return pa.Table.from_pylist(res.take_all())
    if isinstance(res, pd.DataFrame):
        return pa.Table.from_pandas(res)
    return res


def _normalize(tbl: pa.Table):
    cols = sorted(tbl.column_names)
    rows = []
    for r in tbl.select(cols).to_pylist():
        rows.append(tuple(_norm_val(r[c]) for c in cols))
    return cols, sorted(rows, key=lambda t: tuple(str(x) for x in t))


def _norm_val(v):
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return round(v, 9)
    return v


def _typed(rows):
    """Type-sensitive canonical form. The driver's value-hash hashes the
    REPR of values, so Decimal('100.0') vs float 100.0 (equal under ==)
    still mismatches — a DuckDB oracle whose arithmetic stays DECIMAL
    (pure-literal inputs) must CAST to DOUBLE. Compare reprs here so
    that class of bug fails in pytest, not first in the driver record."""
    return [tuple(f"{type(v).__name__}:{v!r}" for v in row) for row in rows]


def _oracle_table(con, sql) -> pa.Table:
    return con.execute(sql).arrow()


@pytest.fixture(scope="module")
def registry():
    import __ray_entry__ as e

    return e.queries(), e.oracle_sql()


def test_entry_runs(ray_session):
    import __ray_entry__ as e

    res = e.entry()
    tbl = _to_table(res)
    assert tbl.num_rows >= 0
    assert "geometry" in tbl.column_names


def test_all_queries_against_oracles(ray_session, oracle, registry):
    queries, oracles = registry
    failures = []
    for name, fn in queries.items():
        if name not in oracles:
            failures.append(f"{name}: no oracle")
            continue
        res = _to_table(fn(SF))
        want = _oracle_table(oracle, oracles[name])
        gc, gr = _normalize(res)
        wc, wr = _normalize(want)
        if len(gr) == 0 and len(wr) == 0:
            continue
        if gc != wc:
            failures.append(f"{name}: columns {gc} != {wc}")
        elif _typed(gr) != _typed(wr):
            tg, tw = _typed(gr), _typed(wr)
            diff = next(
                (i for i, (a, b) in enumerate(zip(tg, tw)) if a != b),
                min(len(tg), len(tw)),
            )
            failures.append(
                f"{name}: rows {len(gr)} vs {len(wr)}; first diff at "
                f"{diff}: {tg[diff] if diff < len(tg) else None} != "
                f"{tw[diff] if diff < len(tw) else None}"
            )
    assert not failures, "\n".join(failures)


def test_every_row_has_an_exact_oracle():
    """No rows-only entry and no orphaned oracle: every registry row is
    compared exactly, in pytest and in tools/gatesim.py."""
    from geofileops_ray.pipelines.queries import ORACLES, QUERIES

    assert set(QUERIES) == set(ORACLES), (
        sorted(set(QUERIES) - set(ORACLES)), sorted(set(ORACLES) - set(QUERIES))
    )


def test_driver_window_covers_families_with_oracles():
    """The per-round driver checks only the FIRST 50 queries() entries.
    Lock the curated window: every slot has an exact oracle (zero
    rows-only checks inside the window) and every operator family keeps
    a representative (VERDICT r2 item #1)."""
    from geofileops_ray.pipelines.queries import ORACLES, QUERIES

    window = list(QUERIES)[:50]
    missing = [k for k in window if k not in ORACLES]
    assert missing == [], f"driver-window rows without oracle: {missing}"
    required = {
        # two-layer joins (incl. the forced cell path and the
        # span-sequence invariant carried through export_by_location)
        "sjoin_intersects", "sjoin_intersects_shuffle", "sjoin_within",
        "sjoin_left", "sjoin_relate_mask_tri", "join_attributes",
        "join_nearest_k2", "export_by_location_semi",
        "export_by_location_anti_tri", "export_by_distance",
        "export_by_bounds_window", "spans_roundtrip",
        # overlays (incl. the heterogeneous line+polygon candidate mix)
        "intersection_pairs", "intersection_tri", "intersection_lines",
        "intersection_complexpoly", "clip_areas", "clip_by_geometry_window",
        "difference_areas", "difference_mixed",
        "symmetric_difference_areas",
        "union_overlay_areas", "identity_areas",
        "select_two_layers", "union_full_self_invariants",
        "delete_duplicate_geometries", "concat_layers",
        # dissolve, and the composed flagship
        "dissolve_gewasgroep", "dissolve_median_json",
        "dissolve_within_distance_bars", "flagship_agg",
        # single-layer and the user-SQL surface
        "buffer_area", "convexhull_area", "simplify_counts",
        "makevalid_bowties", "isvalid_bowties", "apply_scale2",
        "update_column_area", "warp_affine", "reproject_3857",
        "select_st_functions", "select_wkt_roundtrip",
        # tiling
        "tile_assignments_16", "zonal_rasterize_16", "vector_tile_cut_16",
        "polygonize_mask_16", "quadkey_cover_12", "hex_bin_points",
        "layer_digest_parcels",
        # format codecs
        "geofile_roundtrip",
    }
    assert required <= set(window), sorted(required - set(window))


def test_synth_hash_exact_beyond_int64_wrap():
    """The synth layers' _hash (mirrored by every oracle CTE) must equal
    doc_id*MULT mod 2^32 at ANY doc_id — a plain int64 product wraps
    past doc_id ≈ 3.47e9 (the 100TB synth scale)."""
    import numpy as np

    from geofileops_ray.io.synth import _MOD, _MULT, _hash

    ids = np.array(
        [0, 1, 123456, 2**31, 3_470_000_000, 5_000_000_000, 10**12, 2**62],
        dtype=np.int64,
    )
    expect = np.array([(int(v) * _MULT) % _MOD for v in ids], dtype=np.int64)
    assert (_hash(ids) == expect).all()
