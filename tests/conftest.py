import duckdb
import pyarrow as pa
import pytest
import ray

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        log_to_driver=False,
    )
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def oracle():
    """DuckDB connection with the driver's sf0.001 tables as views."""
    con = duckdb.connect()
    for t in (
        "region nation customer supplier part orders lineitem events "
        "documents embeddings"
    ).split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return con


def composed_overlay(op, ds1, ds2, cols1, cols2):
    """The reference's composition of identity, symmetric_difference or
    union (_geoops_sql.py:2752-3292) from the public ``intersection`` and
    ``difference``, with other-side columns null-filled and ordered as
    the fused op emits them. Returns one Arrow table."""
    from geofileops_ray.stages.overlay_ops import difference, intersection
    from geofileops_ray.util import collect

    def prefixed(ds, prefix, cols):
        schema = ds.schema().base_schema
        return [
            pa.field(prefix + c, schema.field(c).type)
            for c in dict.fromkeys(["doc_id", *cols])
        ]

    fields = [
        *prefixed(ds1, "l1_", cols1), *prefixed(ds2, "l2_", cols2),
        pa.field("geometry", pa.binary()),
    ]

    def filled(t):
        return pa.table({
            f.name: t.column(f.name) if f.name in t.column_names
            else pa.nulls(len(t), f.type)
            for f in fields
        })

    parts = []
    if op in ("identity", "union"):
        parts.append(collect(intersection(ds1, ds2, cols1, cols2)))
    parts.append(collect(difference(ds1, ds2, cols1)))
    if op in ("symmetric_difference", "union"):
        d21 = collect(difference(ds2, ds1, cols2))
        parts.append(d21.rename_columns(
            [c.replace("l1_", "l2_", 1) for c in d21.column_names]
        ))
    return pa.concat_tables([filled(t) for t in parts])
