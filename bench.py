#!/usr/bin/env python
"""Benchmark harness — headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": "...", "value": rows_per_sec, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N, ...}

Inputs are synthesized deterministically from the driver's ``documents``
table (io/synth.py) and MATERIALIZED before the timed sections, so the
timings measure operator throughput (the reference benchmark reads
pre-built GPKGs the same way, benchmark/benchmarks/testdata.py).

``--scaling`` runs the headline sjoin+dissolve pipeline twice in FRESH
processes at N and 4N CPUs (default 8 vs 32; override with
BENCH_SCALING_CPUS="2,8") on the same (larger, 8M-row) input and
reports both throughputs + scaling efficiency = (T_N / T_4N) / 4 — the
sandbox evidence for the north rule's N vs 4N cluster criterion. The
larger input keeps the parallel compute dominant over the fixed
per-stage scheduling latencies, which is exactly the regime a real
multi-node run at 10^12 rows sits in.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS") or os.cpu_count() or 1)
REPEAT = int(os.environ.get("BENCH_REPEAT", "0"))  # 0 = auto (≈500k rows)
SCALING_REPEAT = int(os.environ.get("BENCH_SCALING_REPEAT", "0"))  # 0 = auto (≈8M)


def _auto_repeat(sf_dir: str, target: int) -> int:
    import pyarrow.parquet as pq

    n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    return max(1, target // n)


def run_benchmarks(num_cpus: int, only_flagship: bool = False, repeat: int = 0) -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            log_to_driver=False,
        )
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from geofileops_ray.io.synth import (
        lshapes_dataset,
        parcels_dataset,
        points_dataset,
        triangles_dataset,
        zones_dataset,
    )
    from geofileops_ray.pipelines import flagship
    from geofileops_ray.stages import single_layer as sl
    from geofileops_ray.stages.dissolve import dissolve
    from geofileops_ray.stages.knn import join_nearest
    from geofileops_ray.stages.overlay_ops import intersection
    from geofileops_ray.stages.spatial_join import (
        export_by_location,
        join_by_location,
    )

    repeat = repeat or REPEAT or _auto_repeat(SF_DIR, 500_000)
    p = parcels_dataset(SF_DIR, repeat).materialize()
    z = zones_dataset(SF_DIR).materialize()
    n_parcels = p.count()
    # spawn the worker pool before timing starts (first streaming
    # pipeline in a session otherwise pays ~10s of process fork+import
    # that has nothing to do with the measured operator)
    p.map_batches(lambda b: b.slice(0, 1), batch_format="pyarrow").count()

    # best-of-N (default 2): this sandbox's wall times vary ±30% run to
    # run (shared-host bandwidth throttling); the min is the operator's
    # honest cost. Set BENCH_BEST_OF=1 for single-shot timing.
    best_of = int(os.environ.get("BENCH_BEST_OF", "2"))

    def timed(fn, n: int | None = None):
        best = float("inf")
        out = None
        for _ in range(n or best_of):
            t0 = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - t0)
        return out, best

    results: dict[str, float] = {}
    _, t_flag = timed(lambda: flagship(p, z).count())
    results["sjoin_dissolve"] = round(t_flag, 3)

    if not only_flagship:
        _, t = timed(lambda: sl.buffer(p, 2.0).count())
        results["buffer"] = round(t, 3)
        _, t = timed(
            lambda: join_by_location(
                p, z, "intersects is True", cols1=["OIDN"], cols2=["naam"],
                salt=True,
            ).count()
        )
        results["join_by_location"] = round(t, 3)
        _, t = timed(
            lambda: export_by_location(p, z, "intersects is True").count()
        )
        results["export_by_location"] = round(t, 3)
        _, t = timed(
            lambda: intersection(p, z, cols1=["OIDN"], cols2=["naam"]).count()
        )
        results["intersection"] = round(t, 3)
        _, t = timed(
            lambda: dissolve(
                p, groupby=["GEWASGROEP"],
                agg_columns=[("OPPERVL", "sum", "sum_oppervl")],
            ).count()
        )
        results["dissolve"] = round(t, 3)
# (union_overlay row is added below, after the triangle layer exists)
        # irregular layer: right triangles (general sweep/predicate path,
        # no rectangle fast paths) — same row count as the rect benchmarks
        tri = triangles_dataset(SF_DIR, repeat).materialize()
        _, t = timed(
            lambda: join_by_location(
                tri, z, "intersects is True", cols1=["grp"], cols2=["naam"],
                salt=True,
            ).count()
        )
        results["sjoin_tri"] = round(t, 3)
        _, t = timed(
            lambda: intersection(tri, z, cols1=["grp"], cols2=["naam"]).count()
        )
        results["intersection_tri"] = round(t, 3)
        _, t = timed(
            lambda: dissolve(
                tri, groupby=["grp"],
                agg_columns=[("tri_area", "sum", "sum_area")],
            ).count()
        )
        results["dissolve_tri"] = round(t, 3)
        # full 3-way union overlay on two FULL-SIZE layers (parcels ×
        # triangles, 500k × 500k) — the shape of the reference's slowest
        # benchmark op (union 515k × 521k: 93.7 s, benchmark_results.csv:95)
        from geofileops_ray.stages.overlay_ops import union as union_overlay

        _, t = timed(
            lambda: union_overlay(p, tri, cols1=[], cols2=[]).count()
        )
        results["union_overlay"] = round(t, 3)
        # flat self-union with cover counts on the 500k triangle layer —
        # the reference's union_full_self row (515k self-overlay, attr
        # COLUMNS: 73.9 s, benchmark_results.csv:96); best-of-1, the op
        # is the heaviest single row
        from geofileops_ray.stages.compound import union_full_self

        # best-of like every other row: single-shot numbers on this
        # shared host swing ±3× run to run (see BASELINE.md variance note)
        _, t = timed(lambda: union_full_self(tri, agg="count").count())
        results["union_full_self"] = round(t, 3)
        # concave layer: interlocking staircase L-shapes (no rect or
        # convex-SAT predicate path; overlays clip each L by its rect
        # partner in one batch and sweep only bridged results)
        lsh = lshapes_dataset(SF_DIR, repeat).materialize()
        _, t = timed(
            lambda: intersection(lsh, z, cols1=["grp"], cols2=["naam"]).count()
        )
        results["intersection_lshape"] = round(t, 3)
        _, t = timed(
            lambda: dissolve(
                lsh, groupby=["grp"],
                agg_columns=[("larea", "sum", "sum_area")],
            ).count()
        )
        results["dissolve_lshape"] = round(t, 3)
        pts = points_dataset(SF_DIR, repeat).materialize()
        _, t = timed(
            lambda: join_nearest(pts, z, nb_nearest=1, cols1=[], cols2=[]).count()
        )
        results["join_nearest"] = round(t, 3)
        from ray.data.aggregate import Max as _Max
        from ray.data.aggregate import Min as _Min

        from geofileops_ray.stages.geometry_batch import add_bounds
        from geofileops_ray.tiling.grid import polygonize_covered

        bb = p.map_batches(
            lambda b: add_bounds(b).select(["minx", "miny", "maxx", "maxy"]),
            batch_format="pyarrow",
        ).aggregate(_Min("minx"), _Min("miny"), _Max("maxx"), _Max("maxy"))
        bounds = (bb["min(minx)"], bb["min(miny)"], bb["max(maxx)"], bb["max(maxy)"])
        _, t = timed(
            lambda: polygonize_covered(p, bounds, 16, pixels_per_tile=8).count()
        )
        results["polygonize"] = round(t, 3)

    return {
        "metric": "sjoin+dissolve rows/sec (parcels rows / wall sec)",
        "value": round(n_parcels / t_flag, 1),
        "unit": "sec",
        "queries": results,
        "sf": SF_DIR,
        "num_cpus": num_cpus,
        "n_parcels": n_parcels,
        "repeat": repeat,
    }


def main():
    if "--scaling" in sys.argv:
        rep = SCALING_REPEAT or _auto_repeat(SF_DIR, 8_000_000)
        cpu_n, cpu_4n = (
            int(c) for c in os.environ.get("BENCH_SCALING_CPUS", "8,32").split(",")
        )
        outs = {}
        for cpus in (cpu_n, cpu_4n):
            env = dict(os.environ)
            env["RAY_GRAFT_CPUS"] = str(cpus)
            env["BENCH_REPEAT"] = str(rep)
            env.setdefault("BENCH_BEST_OF", "1")  # ratio of two legs: one shot each
            proc = subprocess.run(
                [sys.executable, __file__, "--flagship-only"],
                capture_output=True, text=True, env=env,
            )
            line = [l for l in proc.stdout.strip().splitlines() if l.startswith("{")][-1]
            outs[cpus] = json.loads(line)
        th_n = outs[cpu_n]["value"]
        th_4n = outs[cpu_4n]["value"]
        eff = (th_4n / th_n) / 4.0
        print(
            json.dumps(
                {
                    "metric": (
                        f"scaling efficiency (N={cpu_n} vs 4N={cpu_4n} cpus, "
                        "same input)"
                    ),
                    "value": round(eff, 3),
                    "unit": "ratio",
                    f"throughput_{cpu_n}cpu": th_n,
                    f"throughput_{cpu_4n}cpu": th_4n,
                    "queries": {
                        f"t_{cpu_n}cpu": outs[cpu_n]["queries"]["sjoin_dissolve"],
                        f"t_{cpu_4n}cpu": outs[cpu_4n]["queries"]["sjoin_dissolve"],
                    },
                    "n_parcels": outs[cpu_n]["n_parcels"],
                    "sf": SF_DIR,
                    "num_cpus": cpu_4n,
                }
            )
        )
        return
    only = "--flagship-only" in sys.argv
    out = run_benchmarks(NUM_CPUS, only_flagship=only)
    print(json.dumps(out))
    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
