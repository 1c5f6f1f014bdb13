"""The four workloads: how each builds its inputs, makes one op call and
checks that call's output.

Each op call is one closed-loop request: it calls the library's public
functions on materialized inputs and returns only once the result is
fully consumed (materialized, or the write returned). ``call`` receives a
tracer whose spans mark the calls into each layer; the untraced run
passes a no-op one.
"""

from __future__ import annotations

import os

import pyarrow as pa

from geofileops_ray.config import OPTIONS
from geofileops_ray.io import read_gpkg, synth, write_gpkg
from geofileops_ray.stages.dissolve import dissolve
from geofileops_ray.stages.knn import join_nearest
from geofileops_ray.stages.overlay_ops import intersection
from geofileops_ray.stages.spatial_join import join_by_location
from geofileops_ray.util import collect

from . import checks, inputs
from .layers import gpkg_block_metrics, gpkg_phase_metrics

# blocks of the documents Dataset, and so of every layer built from it
N_BLOCKS = 8


class Workload:
    name = ""
    why = ""
    # scale -> (documents, expand_documents repeat)
    sizes: dict[str, tuple[int, int]] = {}
    # (kind, expanded) per input layer; the first is the "left" layer
    layers: tuple[tuple[str, bool], ...] = ()

    def __init__(self, scale: str, work_dir: str, cpus: int):
        self.n_docs, self.repeat = self.sizes[scale]
        self.work_dir = work_dir
        self.cpus = cpus

    def generate(self, seed: int) -> tuple[pa.Table, dict]:
        """The seeded documents and every input layer, materialized."""
        docs = inputs.documents(seed, self.n_docs)
        dds = inputs.documents_dataset(docs, N_BLOCKS)
        layers = {
            kind: self.prepare(
                inputs.layer(dds, kind, self.repeat if expanded else 1)
            ).materialize()
            for kind, expanded in self.layers
        }
        return docs, layers

    def prepare(self, ds):
        return ds

    def input_rows(self, layers: dict) -> int:
        return sum(ds.count() for ds in layers.values())

    def expected(self, docs: pa.Table, layers: dict):
        raise NotImplementedError

    def call(self, layers: dict, tr):
        raise NotImplementedError

    def check(self, out, expected) -> None:
        raise NotImplementedError

    def kernel_inputs(self, layers: dict) -> tuple[pa.Table, pa.Table]:
        """(A, B): the fixed blocks the ``geom`` kernels run on."""
        left, right = (layers[k] for k, _ in self.layers)
        return first_block(left), first_block(right)

    def io_metrics(self, block: pa.Table, spans: list[dict], rows: int) -> dict:
        """The ``io.gpkg`` metrics: a GeoPackage round trip of ``block``."""
        path = os.path.join(self.work_dir, f"{self.name}-block.gpkg")
        metrics = gpkg_block_metrics(block, path)
        os.remove(path)
        return metrics


def first_block(ds) -> pa.Table:
    for t in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        return t
    raise ValueError("dataset has no rows")


# -------------------------------------------------------- sjoin_dissolve


def _rewrap(batch: pa.Table) -> pa.Table:
    return pa.table(
        {
            "doc_id": batch.column("l1_doc_id"),
            "GEWASGROEP": batch.column("l1_GEWASGROEP"),
            "naam": batch.column("l2_naam"),
            "OPPERVL": batch.column("l1_OPPERVL"),
            "geometry": batch.column("l1_geometry"),
        }
    )


class SjoinDissolve(Workload):
    name = "sjoin_dissolve"
    why = ("broadcast sjoin then tiled cell-shuffle dissolve: the flagship, "
           "with the most driver round-trips")
    sizes = {"full": (4000, 10), "tiny": (400, 2)}
    layers = (("parcels", True), ("zones", False))

    def expected(self, docs, layers):
        return checks.duckdb_oracle(
            "flagship_agg", docs, synth.PARCELS_CTE, self.repeat, self.cpus
        )

    def call(self, layers, tr):
        with tr.span("stages.join_by_location"):
            joined = join_by_location(
                layers["parcels"], layers["zones"], "intersects is True",
                cols1=["GEWASGROEP", "OPPERVL"], cols2=["naam"],
            )
        joined = joined.map_batches(_rewrap, batch_format="pyarrow")
        with tr.span("stages.dissolve"):
            out = dissolve(
                joined,
                groupby=["GEWASGROEP", "naam"],
                agg_columns=[("OPPERVL", "sum", "sum_oppervl"),
                             ("doc_id", "count", "nb_rows")],
            )
        with tr.span("stages.consume"):
            out = out.materialize()
            out.count()
        return out

    def check(self, out, expected):
        checks.check_flagship_agg(collect(out), expected)


# ------------------------------------------------------- overlay_concave


class OverlayConcave(Workload):
    name = "overlay_concave"
    why = ("L-shape x triangle intersection: the cell_cogroup partition path "
           "and the general sweep boolean kernels, no rect/convex fast path")
    sizes = {"full": (1000, 1), "tiny": (200, 1)}
    layers = (("lshapes", False), ("triangles", False))

    def expected(self, docs, layers):
        return checks.expected_clip_areas(
            collect(layers["lshapes"]), collect(layers["triangles"])
        )

    def call(self, layers, tr):
        with tr.span("stages.intersection"):
            out = intersection(layers["lshapes"], layers["triangles"])
        with tr.span("stages.consume"):
            out = out.materialize()
            out.count()
        return out

    def check(self, out, expected):
        checks.check_clip_areas(collect(out), expected, OPTIONS.sliver_tolerance)


# --------------------------------------------------------------- nearest


class Nearest(Workload):
    # not listed in BENCHMARK.json: a few percent of its runs abort inside
    # Ray (NOTES.md, "sporadic Ray abort"), and the benchmark's workloads
    # must run without failures
    name = "nearest"
    why = ("points x zones kNN (k=2): the broadcast kNN path in stages/knn.py "
           "with its NULL/EMPTY guard, no shuffle, little boolean geometry")
    sizes = {"full": (4000, 50), "tiny": (400, 2)}
    layers = (("points", True), ("zones", False))

    def expected(self, docs, layers):
        return checks.duckdb_oracle(
            "join_nearest_k2", docs, synth.POINTS_CTE, self.repeat, self.cpus
        )

    def call(self, layers, tr):
        with tr.span("stages.join_nearest"):
            out = join_nearest(
                layers["points"], layers["zones"], nb_nearest=2,
                cols1=[], cols2=[], crs_epsg=3857,
            )
        with tr.span("stages.consume"):
            out = out.materialize()
            out.count()
        return out

    def check(self, out, expected):
        checks.check_nearest_k2(collect(out), expected)


# -------------------------------------------------------- gpkg_roundtrip

# the box of the pushed-down read: the dense cluster plus the first rows
# of the sparse grid (about a fifth of the layer)
GPKG_BBOX = (0.0, 0.0, 400.0, 400.0)


def drop_spans(batch: pa.Table) -> pa.Table:
    # write_gpkg cannot bind the list<struct> spans column (sqlite3
    # ProgrammingError), so the layer is written with its scalar columns
    return batch.drop_columns(["spans"])


class GpkgRoundtrip(Workload):
    name = "gpkg_roundtrip"
    why = ("write_gpkg then full read_gpkg then an r-tree bbox read: the io "
           "layer alone, no shuffle and no overlay kernel")
    sizes = {"full": (4000, 10), "tiny": (400, 2)}
    layers = (("parcels", True),)

    def __init__(self, scale, work_dir, cpus):
        super().__init__(scale, work_dir, cpus)
        self.path = os.path.join(work_dir, "roundtrip.gpkg")

    def prepare(self, ds):
        return ds.map_batches(drop_spans, batch_format="pyarrow", zero_copy_batch=True)

    def expected(self, docs, layers):
        written = checks.sorted_by(collect(layers["parcels"]), ["doc_id"])
        return written, checks.bbox_filter(written, GPKG_BBOX)

    def call(self, layers, tr):
        with tr.span("io.gpkg.write"):
            write_gpkg(layers["parcels"], self.path)
        with tr.span("io.gpkg.read"):
            full = read_gpkg(self.path).materialize()
            full.count()
        with tr.span("io.gpkg.read_bbox"):
            part = read_gpkg(self.path, bbox=GPKG_BBOX).materialize()
            part.count()
        return full, part

    def check(self, out, expected):
        # the full read must give back the written table, the bbox read
        # the same box filter applied to it in memory
        full, part = out
        written, in_box = expected
        checks.check_same_rows(collect(full), written, "full read")
        checks.check_same_rows(collect(part), in_box, "bbox read")

    def kernel_inputs(self, layers):
        block = first_block(layers["parcels"])
        return block, block

    def io_metrics(self, block, spans, rows):
        # the op itself is the GeoPackage round trip: report its phases
        return gpkg_phase_metrics(spans, self.path, rows)


WORKLOADS = {w.name: w for w in (SjoinDissolve, OverlayConcave, Nearest, GpkgRoundtrip)}
