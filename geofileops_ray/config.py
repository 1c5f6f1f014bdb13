"""Engine configuration.

Analogue of the reference's env-var option surface
(geofileops/helpers/_options.py — GFO_NB_PARALLEL :312, GFO_TMPDIR :807,
GFO_SLIVER_TOLERANCE :575, ...), re-expressed as a small typed object with
env overrides. All knobs govern Ray Data physical execution (batch sizes,
cell sizing for the spatial shuffle, salting thresholds), not semantics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


def _env_float(name: str, default: float) -> float:
    v = os.environ.get(name)
    return float(v) if v else default


def _env_int(name: str, default: int) -> int:
    v = os.environ.get(name)
    return int(v) if v else default


@dataclass
class Options:
    # rows per Arrow batch handed to geometry kernels (map_batches batch_size)
    batch_size: int = _env_int("GFR_BATCH_SIZE", 8192)
    # spatial-shuffle cell edge length in layer units; one groupby key per cell
    cell_size: float = _env_float("GFR_CELL_SIZE", 50.0)
    # hot-cell salting: cells with more rows than this get split into
    # ceil(count / salt_target) salted sub-keys (SURVEY.md §3.2 "Ray shape")
    salt_threshold: int = _env_int("GFR_SALT_THRESHOLD", 4000)
    salt_target: int = _env_int("GFR_SALT_TARGET", 2000)
    # dissolve auto cell sizing: target rows per shuffle cell. The first
    # dissolve pass picks cell_size = sqrt(extent_area * target / nrows)
    # (clamped to >= cell_size) so per-cell union work stays constant as
    # the dataset grows — a fixed edge length over-shards sparse data and
    # under-shards dense data at 1000x scale. 3000 measured best at 500k
    # rows / 32 CPUs (sweep 300..9600: 600→6.1s, 2400-4800→4.6-5.0s,
    # 9600→5.9s on both rect and triangle layers); keeps group count
    # ≈ rows/3000 » CPU count at any realistic scale
    dissolve_cell_rows: int = _env_int("GFR_DISSOLVE_CELL_ROWS", 3000)
    # subdivide geometries with more coords than this before two-layer ops
    # (reference default: 2000 for difference, 15000 for intersection,
    # geofileops _geoops_sql.py:1893-1929)
    subdivide_coords: int = _env_int("GFR_SUBDIVIDE_COORDS", 2000)
    # max reduced-id rows pulled to the driver for a broadcast semi-filter;
    # above this the filter runs as a distributed hash join instead
    broadcast_id_limit: int = _env_int("GFR_BROADCAST_ID_LIMIT", 20_000_000)
    # two-layer ops broadcast the smaller side (ray.put once, read
    # zero-copy in every task — NO shuffle at all) when its materialized
    # size is at most this many bytes; 0 disables the broadcast path.
    # Budget: the raw table is ONE plasma copy per node; the decoded
    # GeometryArray (~3× WKB) is cached once per worker PROCESS
    # (_bcast_side), so per-node cost ≈ cap + ncpu_per_node × 3 × cap —
    # 128 MB ⇒ ~12 GB on a 32-core node, well inside 4 GB/core sizing
    broadcast_bytes: int = _env_int("GFR_BROADCAST_BYTES", 128 * 1024 * 1024)
    # layer1 rows per task on the broadcast path (repartition before the
    # map so one task never owns a whole dense region — with ordered
    # input all rows touching the small side can land in one block and
    # that straggler IS the op's wall time); 0 keeps input blocks
    broadcast_rows_per_task: int = _env_int("GFR_BCAST_ROWS_PER_TASK", 4096)
    # minimum pool size (CPUs) before the broadcast path repartitions
    # layer1 into rows_per_task blocks. With few CPUs the natural block
    # count already saturates the pool and the extra repartition pass
    # dominates (2-cpu flagship: 72 s → 195 s measured with
    # unconditional splitting); with a big pool the split prevents one
    # dense block from being the op's wall time. Tunable because the
    # crossover is host-dependent.
    broadcast_split_min_cpus: int = _env_int("GFR_BCAST_SPLIT_MIN_CPUS", 16)
    # sliver tolerance applied to overlay outputs (GFO_SLIVER_TOLERANCE
    # default 0.001 projected, helpers/_options.py:575)
    sliver_tolerance: float = _env_float("GFR_SLIVER_TOLERANCE", 0.001)
    # blocks to split single-file parquet reads into
    # (io/synth.read_documents) — parallelism floor when the source has
    # fewer fragments than the cluster has slots
    read_blocks: int = _env_int("GFR_READ_BLOCKS", 64)


OPTIONS = Options()
