"""Cluster job entry point, the ``ray job submit`` surface:

    ray job submit --working-dir . -- \
        python -m geofileops_ray.job --query sjoin_dissolve \
        --sf-dir /data/sf1 --checkpoint-dir /data/out/run1

Runs the flagship ``sjoin_dissolve`` or any registry query (``--list``
enumerates them) against a table directory.

* ``--checkpoint-dir`` writes the result partitioned on a ``__cell`` key
  through ``state.checkpointed_write``: one parquet fragment and one
  lineage record per partition, committed write-then-rename. A
  resubmitted job skips every partition a previous (killed) run already
  committed. ``metrics.json`` lands in the same directory.
* ``--output`` streams the result to a layer (``io.write_layer``; the
  format follows the suffix, parquet otherwise).
* With neither, the result is only counted.

One JSON metrics line is printed either way. When submitted via ``ray
job submit`` the cluster runtime provides the session; a standalone run
starts a local one. ``ray.init`` is never called when a session exists.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _add_partition_cell(ds, size: float):
    """Attach a ``__cell`` partition key (owner cell of the bbox center)
    for checkpointed writes; geometry-less results partition on a hash
    of the first column."""
    import numpy as np
    import pyarrow as pa

    from .stages.geometry_batch import decode_geometry
    from .tiling.cells import CELL_OFFSET, CELL_SHIFT

    names = ds.schema().base_schema.names

    if "geometry" in names:
        def fn(batch: pa.Table) -> pa.Table:
            ga = decode_geometry(batch)
            b = ga.bounds()
            cx = np.floor((b[:, 0] + b[:, 2]) * 0.5 / size).astype(np.int64)
            cy = np.floor((b[:, 1] + b[:, 3]) * 0.5 / size).astype(np.int64)
            cell = ((cx + CELL_OFFSET) << CELL_SHIFT) | (cy + CELL_OFFSET)
            return batch.append_column("__cell", pa.array(cell, pa.int64()))
    else:
        key = names[0]

        def fn(batch: pa.Table) -> pa.Table:
            # geometry-less results are small aggregates; a splitmix of
            # the first column when numeric, else one partition
            col = batch.column(key)
            if pa.types.is_integer(col.type) or pa.types.is_floating(col.type):
                from .stages.compound import _splitmix64_np

                v = col.to_numpy(zero_copy_only=False)
                h = _splitmix64_np(np.nan_to_num(v).astype(np.int64)) % 64
            else:
                h = np.zeros(len(batch), np.int64)
            return batch.append_column(
                "__cell", pa.array(h.astype(np.int64), pa.int64())
            )

    return ds.map_batches(fn, batch_format="pyarrow")


def _pipelines() -> dict:
    from .io.synth import parcels_dataset, zones_dataset
    from .pipelines.queries import QUERIES, flagship

    return {
        "sjoin_dissolve": lambda sf: flagship(
            parcels_dataset(sf), zones_dataset(sf)
        ),
        **QUERIES,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m geofileops_ray.job")
    ap.add_argument("--query", help="'sjoin_dissolve' or a registry query (see --list)")
    ap.add_argument("--list", action="store_true", help="list the queries")
    ap.add_argument("--sf-dir", help="input table directory (documents/events parquet)")
    ap.add_argument("--output", help="streaming output layer (omit = count only)")
    ap.add_argument("--checkpoint-dir",
                    help="resumable partitioned output + lineage records + metrics.json")
    args = ap.parse_args(argv)

    pipelines = _pipelines()
    if args.list:
        print("\n".join(pipelines))
        return 0
    if args.query not in pipelines:
        ap.error(f"unknown or missing --query {args.query!r}; see --list")
    if not args.sf_dir:
        ap.error("--sf-dir is required")

    import pyarrow as pa

    import ray
    import ray.data

    if not ray.is_initialized():  # job-submit/cluster provides the session
        ray.init(include_dashboard=False)

    from .config import OPTIONS

    t0 = time.perf_counter()
    ds = pipelines[args.query](args.sf_dir)
    if isinstance(ds, pa.Table):
        ds = ray.data.from_arrow(ds)
    metrics: dict = {"query": args.query, "sf_dir": args.sf_dir}
    if args.checkpoint_dir:
        from .state import checkpointed_write, finished_partitions

        pre_done = len(finished_partitions(args.checkpoint_dir))
        ds = _add_partition_cell(ds, OPTIONS.cell_size * 8)
        summaries = checkpointed_write(ds, args.checkpoint_dir)
        metrics.update(
            partitions_written=len(summaries),
            partitions_skipped_resume=pre_done,
            rows_out=int(sum(s["rows_out"] for s in summaries)),
        )
    else:
        ds = ds.materialize()
        metrics["rows_out"] = ds.count()
        if args.output:
            from .io.readwrite import write_layer

            write_layer(ds, args.output)
            metrics["output"] = args.output
    metrics["wall_seconds"] = round(time.perf_counter() - t0, 3)
    print(json.dumps(metrics), flush=True)
    if args.checkpoint_dir:
        with open(os.path.join(args.checkpoint_dir, "metrics.json"), "w") as f:
            json.dump(metrics, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
