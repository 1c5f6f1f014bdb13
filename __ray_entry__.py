"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash →
CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library) calls ``ray.init()`` / ``ray.shutdown()``.

The engine's canonical input is the ``documents`` table; the geometry
layers (each row also carrying its interleaved text+media spans, per
BASELINE.json input_hint) are deterministic pure-int64 functions of
doc_id (io/synth.py), so every result is reproducible by plain SQL in
the DuckDB oracle.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship sjoin + dissolve pipeline on sf0.001 (the BASELINE.json
    headline metric shape): parcels×zones spatial join → dissolve by
    (GEWASGROEP, zone)."""
    from geofileops_ray.io.synth import parcels_dataset, zones_dataset
    from geofileops_ray.pipelines import flagship

    sf = "/root/testdata/sf0.001"
    return flagship(parcels_dataset(sf), zones_dataset(sf))


def queries() -> dict[str, Callable[[str], Any]]:
    from geofileops_ray.pipelines import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from geofileops_ray.pipelines import ORACLES

    return dict(ORACLES)
