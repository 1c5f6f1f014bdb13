"""How many Ray executions an op launches from the driver, and which.

Every execution is a separate scheduling round (about 10-15 ms per task
on one CPU), so the broadcast overlay path and dissolve's auto-sizing
must plan from data the driver already holds. The executor's entry is
wrapped with ``monkeypatch`` for one test at a time."""

import pyarrow as pa
import pytest
from conftest import SF_DIR as SF


@pytest.fixture
def executions(monkeypatch):
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    plans: list[str] = []
    execute = StreamingExecutor.execute

    def counted(ex, dag, *args, **kwargs):
        plans.append(dag.dag_str)
        return execute(ex, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return plans


def test_broadcast_intersection_runs_one_execution(ray_session, executions):
    from geofileops_ray.io import synth
    from geofileops_ray.stages.overlay_ops import intersection

    lshapes = synth.lshapes_dataset(SF).materialize()
    tris = synth.triangles_dataset(SF).materialize()
    executions.clear()
    out = intersection(lshapes, tris)
    assert executions == []
    out = out.materialize()
    assert out.count() > 0
    assert len(executions) == 1, executions
    assert "LimitOperator" not in executions[0]


def test_join_then_dissolve_executions(ray_session, executions):
    from geofileops_ray.io import synth
    from geofileops_ray.stages.dissolve import dissolve
    from geofileops_ray.stages.spatial_join import join_by_location

    parcels = synth.parcels_dataset(SF).materialize()
    zones = synth.zones_dataset(SF).materialize()
    executions.clear()
    joined = join_by_location(
        parcels, zones, "intersects is True", cols1=["GEWASGROEP"],
        cols2=["naam"],
    ).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("l1_doc_id"),
                "GEWASGROEP": b.column("l1_GEWASGROEP"),
                "naam": b.column("l2_naam"),
                "geometry": b.column("l1_geometry"),
            }
        ),
        batch_format="pyarrow",
    )
    out = dissolve(
        joined, groupby=["GEWASGROEP", "naam"],
        agg_columns=[("doc_id", "count", "nb_rows")],
    ).materialize()
    plans = list(executions)
    assert len(plans) <= 5, plans
    assert not [p for p in plans if "LimitOperator" in p], plans
    assert sum(r["nb_rows"] for r in out.take_all()) == joined.count() > 0


def test_materialized_line_dissolve_pins_nothing(ray_session, executions):
    """A materialized input is read in place: a line dissolve plans with
    no execution and pins no projection of its own."""
    from geofileops_ray.io import synth
    from geofileops_ray.stages.dissolve import dissolve

    lines = synth.lines_dataset(SF).materialize()
    executions.clear()
    out = dissolve(
        lines, groupby=["grp"], agg_columns=[("doc_id", "count", "nb_rows")]
    )
    assert executions == []
    assert sum(r["nb_rows"] for r in out.take_all()) == lines.count() > 0
    assert not [p for p in executions if "source_columns" in p], executions


@pytest.mark.parametrize("path", ["broadcast", "cell"])
@pytest.mark.parametrize("op", ["identity", "symmetric_difference", "union"])
def test_fused_overlay_executions(ray_session, executions, monkeypatch, op, path):
    """The fused overlays plan with no probe: one execution on the
    broadcast path, the co-group materialization plus the straddler
    gather on the cell path."""
    from geofileops_ray.config import OPTIONS
    from geofileops_ray.io import synth
    from geofileops_ray.stages import overlay_ops

    if path == "cell":
        monkeypatch.setattr(OPTIONS, "broadcast_bytes", 0)
    parcels = synth.parcels_dataset(SF).materialize()
    zones = synth.zones_dataset(SF).materialize()
    executions.clear()
    out = getattr(overlay_ops, op)(parcels, zones).materialize()
    assert out.count() > 0
    assert len(executions) == (1 if path == "broadcast" else 2), executions
    assert not [
        p for p in executions if "Aggregate" in p or "LimitOperator" in p
    ], executions
