"""Compound ops + lineage checkpoint/resume tests."""

import os
import shutil

import numpy as np
import pyarrow as pa

from geofileops_ray.io.synth import parcels_dataset, zones_dataset
from geofileops_ray.stages.compound import (
    concat,
    dissolve_within_distance,
    select_two_layers,
    union_full_self,
)
from geofileops_ray.state import checkpointed_write, finished_partitions

SF = "/root/testdata/sf0.001"


def test_union_full_self_flat_and_covered(ray_session, oracle):
    # zones are pairwise disjoint → pieces == zones, each covered once
    r = union_full_self(zones_dataset(SF), agg_cols=["naam"]).take_all()
    assert len(r) == 5
    assert all(x["nb_covering"] == 1 for x in r)

    # parcels overlap in the urban cluster → some pieces multi-covered;
    # total flat area must equal the union area of all parcels (oracle:
    # distinct unit cells — parcels have integer coords)
    from geofileops_ray.geom import from_wkb
    from geofileops_ray.geom.measure import area
    from geofileops_ray.io.synth import PARCELS_CTE

    p = union_full_self(parcels_dataset(SF), agg_cols=["OIDN"]).take_all()
    ga = from_wkb([x["geometry"] for x in p])
    total = float(np.sum(area(ga)))
    want = oracle.execute(
        f"""WITH {PARCELS_CTE.strip()},
        cells AS (SELECT DISTINCT CAST(p.minx AS BIGINT)+gx.g cx,
                         CAST(p.miny AS BIGINT)+gy.g cy
                  FROM parcels p, generate_series(0,15) gx(g), generate_series(0,15) gy(g)
                  WHERE p.minx + gx.g < p.maxx AND p.miny + gy.g < p.maxy)
        SELECT COUNT(*) FROM cells"""
    ).fetchone()[0]
    assert abs(total - want) < 1e-6
    assert any(x["nb_covering"] > 1 for x in p)


def test_dissolve_within_distance_merges(ray_session):
    # zones are 25 units apart (125 pitch, 100 wide) → distance 30 merges
    # neighbours; distance 2 keeps them apart
    far = dissolve_within_distance(zones_dataset(SF), distance=2.0).take_all()
    near = dissolve_within_distance(zones_dataset(SF), distance=60.0).take_all()
    from geofileops_ray.geom import from_wkb

    n_parts_far = from_wkb([r["geometry"] for r in far]).geom_offsets[-1]
    n_parts_near = from_wkb([r["geometry"] for r in near]).geom_offsets[-1]
    assert n_parts_near < n_parts_far


def test_dissolve_within_distance_exact(ray_session):
    # same-height bars: gap < distance merges into the exact bounding
    # rectangle (original boundaries preserved, connector fills the gap
    # exactly, +/− buffer corner artifacts dropped by the neighbour
    # filter); gap > distance stays separate
    import ray

    from geofileops_ray.geom import from_wkb as _fw
    from geofileops_ray.geom.measure import area as _ar
    from geofileops_ray.io.synth import rect_wkb

    def rect(x0, y0, x1, y1):
        return rect_wkb(
            np.array([x0]), np.array([y0]), np.array([x1]), np.array([y1])
        )[0].as_py()

    ds = ray.data.from_items(
        [
            {"doc_id": 1, "geometry": rect(0, 0, 10, 10)},
            {"doc_id": 2, "geometry": rect(12, 0, 22, 10)},  # gap 2
            {"doc_id": 3, "geometry": rect(40, 0, 50, 10)},  # gap 18
        ]
    )
    out = dissolve_within_distance(ds, distance=3.0).take_all()
    areas = sorted(
        round(float(_ar(_fw([r["geometry"]]))[0]), 4) for r in out
    )
    assert areas == [100.0, 220.0]  # 1+2 merged exactly, 3 untouched

    out1 = dissolve_within_distance(ds, distance=1.0).take_all()
    assert sorted(
        round(float(_ar(_fw([r["geometry"]]))[0]), 4) for r in out1
    ) == [100.0, 100.0, 100.0]

    out25 = dissolve_within_distance(ds, distance=25.0).take_all()
    assert sorted(
        round(float(_ar(_fw([r["geometry"]]))[0]), 4) for r in out25
    ) == [500.0]


def test_select_two_layers(ray_session):
    out = select_two_layers(
        parcels_dataset(SF), zones_dataset(SF),
        "SELECT count(*) AS n_parcels, count(DISTINCT doc_id) AS n_ids FROM layer1",
    ).take_all()
    assert sum(r["n_parcels"] for r in out) >= 500  # replicas included


def test_concat_null_fills(ray_session):
    c = concat([parcels_dataset(SF), zones_dataset(SF)])
    rows = c.take_all()
    assert len(rows) == 505
    zrow = [r for r in rows if r.get("naam")][0]
    assert zrow["GEWASGROEP"] is None  # parcels-only column null-filled


def test_checkpointed_write_resume(ray_session, tmp_path):
    ckpt = str(tmp_path / "ckpt")
    ds = parcels_dataset(SF).map_batches(
        lambda b: b.append_column(
            "__cell", pa.array((b.column("doc_id").to_numpy() % 7), pa.int64())
        ).select(["doc_id", "__cell"]),
        batch_format="pyarrow",
    )
    out = checkpointed_write(ds, ckpt)
    assert len(out) == 7
    assert finished_partitions(ckpt) == set(range(7))
    # resume: nothing left to write
    out2 = checkpointed_write(ds, ckpt)
    assert out2 == []
    # partial resume: delete two lineage records → only those rewrite
    for k in (2, 5):
        os.remove(os.path.join(ckpt, "lineage", f"{k}.json"))
    out3 = checkpointed_write(ds, ckpt)
    assert sorted(r["partition"] for r in out3) == [2, 5]


def test_union_full_self_columns_pivot(ray_session):
    """COLUMNS pivot (reference _union_full.py:365-416): i<n>_<col> wide
    columns, one per covering rank, padded with nulls to the global max."""
    from geofileops_ray.io.synth import parcels_dataset
    from geofileops_ray.stages.compound import union_full_self

    SF = "/root/testdata/sf0.001"
    out = union_full_self(
        parcels_dataset(SF), agg="columns", agg_cols=["OIDN"]
    ).take_all()
    maxn = max(r["nb_covering"] for r in out)
    assert f"i{maxn}_OIDN" in out[0]
    for r in out:
        vals = [r[f"i{i + 1}_OIDN"] for i in range(maxn)]
        nonnull = [v for v in vals if v is not None]
        assert len(nonnull) == r["nb_covering"]
        # sorted covering ids, nulls at the tail
        assert nonnull == sorted(nonnull)
        assert all(v is None for v in vals[r["nb_covering"]:])


def test_pair_key_vectorized_matches_scalar():
    import numpy as np

    from geofileops_ray.stages.compound import _splitmix64, _splitmix64_np, _SM64_MASK

    xs = np.array([0, 1, 2**40, 2**62, 123456789], dtype=np.int64)
    got = _splitmix64_np(xs)
    want = [(_splitmix64(int(x)) & _SM64_MASK) for x in xs]
    assert got.tolist() == want


def test_job_cli_checkpointed(ray_session, tmp_path):
    # ray-job-submit driver: run a registry pipeline through the CLI
    # main() with a checkpoint dir, then resume after dropping a record
    from geofileops_ray.job import main

    ckpt = str(tmp_path / "job")
    main(["--query", "buffer_area", "--sf-dir", SF,
          "--checkpoint-dir", ckpt])
    import glob
    import json as _json

    recs = sorted(glob.glob(os.path.join(ckpt, "lineage", "*.json")))
    assert recs
    os.remove(recs[0])
    main(["--query", "buffer_area", "--sf-dir", SF,
          "--checkpoint-dir", ckpt])
    m = _json.load(open(os.path.join(ckpt, "metrics.json")))
    assert m["partitions_written"] == 1
    assert m["partitions_skipped_resume"] == len(recs) - 1


def test_checkpointed_write_kill_resume(ray_session, tmp_path):
    """Resume-path end-to-end proof: a checkpointed write is SIGKILLed
    mid-run in a child process (writer slowed so the kill lands between
    partition commits), then resumed here — finished partitions are
    skipped, the torn partition is rewritten, and the final data equals
    an unkilled control run byte-for-row."""
    import glob
    import json
    import signal
    import subprocess
    import sys
    import time

    import pyarrow.parquet as pq

    ckpt = str(tmp_path / "killed")
    child = tmp_path / "child.py"
    child.write_text(
        f"""
import os, sys
sys.path.insert(0, "/root/repo")
os.environ["GFR_LINEAGE_WRITE_DELAY"] = "0.6"  # inherited by workers
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
import numpy as np
import pyarrow as pa
import ray.data
import geofileops_ray.state.lineage as L

n = 800
t = pa.table({{
    "doc_id": pa.array(np.arange(n), pa.int64()),
    "val": pa.array(np.arange(n) * 3 % 17, pa.int64()),
    "__cell": pa.array(np.arange(n) % 8, pa.int64()),
}})
L.checkpointed_write(ray.data.from_arrow(t), {ckpt!r})
ray.shutdown()
"""
    )
    proc = subprocess.Popen(
        [sys.executable, str(child)], cwd="/root/repo",
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,  # own process group: the kill takes the
        # raylet + workers down too, not just the driver
    )
    # wait until SOME partitions committed, then kill mid-flight
    deadline = time.time() + 180
    while time.time() < deadline:
        done = finished_partitions(ckpt)
        if len(done) >= 2:
            break
        if proc.poll() is not None:  # pragma: no cover - too fast
            break
        time.sleep(0.05)
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    time.sleep(1.0)  # let any torn fs writes settle
    done_after_kill = finished_partitions(ckpt)
    assert 1 <= len(done_after_kill) < 8, done_after_kill

    # resume in THIS session: only the unfinished partitions write
    import ray.data

    n = 800
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "val": pa.array(np.arange(n) * 3 % 17, pa.int64()),
            "__cell": pa.array(np.arange(n) % 8, pa.int64()),
        }
    )
    out = checkpointed_write(ray.data.from_arrow(t), ckpt)
    written = sorted(r["partition"] for r in out)
    assert written == sorted(set(range(8)) - done_after_kill)
    assert finished_partitions(ckpt) == set(range(8))

    # control: unkilled run → identical data
    ctrl = str(tmp_path / "control")
    checkpointed_write(ray.data.from_arrow(t), ctrl)

    def collect(d):
        rows = []
        for p in sorted(glob.glob(os.path.join(d, "data", "part=*", "*.parquet"))):
            part = int(p.split("part=")[1].split("/")[0])
            for r in pq.read_table(p).to_pylist():
                rows.append((part, r["doc_id"], r["val"]))
        return sorted(rows)

    assert collect(ckpt) == collect(ctrl)
    # lineage records carry the metrics contract
    rec = json.load(
        open(sorted(glob.glob(os.path.join(ckpt, "lineage", "*.json")))[0])
    )
    assert {"partition", "rows_out", "bytes_out", "write_seconds"} <= set(rec)


def test_lineage_input_range_provenance(ray_session, tmp_path):
    """range_col records the input id slice each partition covers
    (the north rule's "input batch range" lineage field)."""
    import json

    ckpt = str(tmp_path / "ckpt_range")
    ds = parcels_dataset(SF).map_batches(
        lambda b: b.append_column(
            "__cell", pa.array((b.column("doc_id").to_numpy() % 3), pa.int64())
        ).select(["doc_id", "__cell"]),
        batch_format="pyarrow",
    )
    checkpointed_write(ds, ckpt, range_col="doc_id")
    for k in range(3):
        with open(os.path.join(ckpt, "lineage", f"{k}.json")) as f:
            rec = json.load(f)
        rng = rec["input_range"]
        assert rng["col"] == "doc_id"
        assert rng["min"] % 3 == k and rng["max"] % 3 == k
        assert rng["count"] == rec["rows_out"]
