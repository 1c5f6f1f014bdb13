"""GeoJSON / GeoJSONSeq / CSV+WKT layer endpoints — pure Python.

The reference's first user action is ``read_file("layer.gpkg")`` /
``read_file("layer.geojson")`` through OGR (fileops.py:1621-1745,
driver matrix geofileops/util/geofiletypes.csv). This sandbox has no
GDAL, so the text formats that need no native driver are implemented
directly:

* **GeoJSON** (one FeatureCollection document): a single JSON value —
  parsed in one pass and re-blocked into a streaming Dataset. This is
  an interchange endpoint; a 100 TB corpus is Parquet/Lance, never one
  JSON document.
* **GeoJSONSeq / NDJSON** (one feature per line, RFC 8142-style): the
  scale path — ``ray.data.read_text`` reads the lines and the blocks
  parse in parallel, to one schema decided for the whole file.
* **CSV with a WKT geometry column**: ``ray.data.read_csv`` + the WKT
  codec per batch.

fid handling mirrors the reference (fileops read_file ``fid_as_index``):
a feature's ``id`` member becomes the ``fid`` column when present,
else its sequential position (GeoJSONSeq: null, and no ``fid`` column
when no feature has an id). CRS: RFC 7946 GeoJSON is WGS84; the legacy
``crs`` member (``urn:ogc:def:crs:EPSG::31370`` / ``EPSG:31370``) is
parsed by ``geojson_crs`` and written by ``write_geojson(epsg=...)``.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

import ray.data

_GEOM = "geometry"
_SEQ_SUFFIXES = (".geojsonl", ".geojsons", ".ndjson", ".jsonl")


def _property_columns(
    feats: list[dict], schema: pa.Schema | None = None
) -> dict[str, pa.Array]:
    """Property columns of ``feats``: keys in first-seen order (like OGR)
    with inferred types, or exactly the fields of ``schema``."""
    props = [f.get("properties") or {} for f in feats]
    if schema is None:
        keys = list(dict.fromkeys(k for p in props for k in p))
        types = [None] * len(keys)
    else:
        keys, types = schema.names, schema.types
    return {
        k: pa.array([p.get(k) for p in props], type=t)
        for k, t in zip(keys, types)
    }


def _features_table(
    feats: list[dict], fids: list | None, schema: pa.Schema | None = None
) -> pa.Table:
    """Feature dicts → Arrow table (fid when ``fids`` is given,
    properties…, geometry WKB)."""
    from ..geom.geojson import from_geojson
    from ..geom.wkb import to_wkb_arrow

    wkb = to_wkb_arrow(from_geojson([f.get("geometry") for f in feats]))
    cols: dict = {} if fids is None else {"fid": pa.array(fids, pa.int64())}
    cols.update(_property_columns(feats, schema))
    cols[_GEOM] = wkb if isinstance(wkb, pa.Array) else wkb.combine_chunks()
    return pa.table(cols)


def _parse_lines(text: pa.Array) -> list[dict]:
    return [json.loads(s) for s in text.to_pylist() if s.strip()]


@ray.remote
def _seq_block_schema(block) -> tuple[pa.Schema, bool]:
    """One GeoJSONSeq text block → (its property schema, whether any
    feature carries an ``id``)."""
    from ray.data.block import BlockAccessor

    feats = _parse_lines(BlockAccessor.for_block(block).to_arrow().column("text"))
    props = _property_columns(feats)
    has_id = any(f.get("id") is not None for f in feats)
    return pa.schema([(k, v.type) for k, v in props.items()]), has_id


def geojson_crs(path: str) -> int | None:
    """EPSG code from the legacy ``crs`` member, or None (= WGS84 per
    RFC 7946). Reads only the document head for the Seq format."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(65536)
    try:
        doc = json.loads(head)
    except json.JSONDecodeError:
        try:  # whole-document FeatureCollection larger than the head
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError:
            return None  # Seq format: per-line features carry no crs
    crs = (doc or {}).get("crs")
    if not isinstance(crs, dict):
        return None
    name = str((crs.get("properties") or {}).get("name", ""))
    for sep in ("::", ":"):
        if sep in name:
            tail = name.rsplit(sep, 1)[1]
            if tail.isdigit():
                return int(tail)
    return None


def read_geojson(
    path: str, columns: list[str] | None = None
) -> ray.data.Dataset:
    """GeoJSON layer → Dataset of (fid, properties…, geometry WKB).

    ``.geojsonl``/``.ndjson`` (one feature per line) reads through
    ``ray.data.read_text``: one task per text block finds its property
    schema, the caller unifies them, and every block then parses in
    parallel to that schema. A FeatureCollection document parses once
    and is re-blocked (interchange-scale by construction)."""
    if path.endswith(_SEQ_SUFFIXES):
        # a per-line file has no stable sequential fid: a fid column
        # exists iff some feature has an id, null on lines without one
        txt = ray.data.read_text(path).materialize()
        summaries = ray.get([
            _seq_block_schema.remote(ref)
            for bundle in txt.iter_internal_ref_bundles()
            for ref, _meta in bundle.blocks
        ])
        try:
            schema = pa.unify_schemas(
                [sch for sch, _ in summaries] or [pa.schema([])],
                promote_options="permissive",
            )
        except (pa.ArrowInvalid, pa.ArrowTypeError) as e:
            raise ValueError(
                f"GeoJSONSeq {path!r}: a property has incompatible types "
                f"across features: {e}"
            ) from e
        has_id = any(h for _, h in summaries)

        def parse(batch: pa.Table) -> pa.Table:
            feats = _parse_lines(batch.column("text"))
            fids = None
            if has_id:
                fids = [
                    int(f["id"]) if isinstance(f.get("id"), (int, float)) else None
                    for f in feats
                ]
            t = _features_table(feats, fids, schema)
            return t.select(columns) if columns else t

        return txt.map_batches(parse, batch_format="pyarrow")
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("type") == "Feature":
        feats = [doc]
    elif doc.get("type") == "FeatureCollection":
        feats = doc.get("features") or []
    else:  # a bare geometry object
        feats = [{"type": "Feature", "geometry": doc, "properties": {}}]
    # one table, so columns and types are decided over every feature;
    # the fid is the feature id, else its position in the file
    fids = [
        int(f["id"]) if isinstance(f.get("id"), (int, float)) else k
        for k, f in enumerate(feats)
    ]
    t = _features_table(feats, fids)
    if columns:
        t = t.select(columns)
    block = 65536
    return ray.data.from_arrow(
        [t.slice(i, block) for i in range(0, max(len(t), 1), block)]
    )


def write_geojson(
    ds: ray.data.Dataset,
    path: str,
    epsg: int | None = None,
    seq: bool | None = None,
) -> None:
    """Dataset → single GeoJSON file (FeatureCollection), or one
    feature per line when ``seq`` (auto for ``.geojsonl``/``.ndjson``
    paths). Streams block by block — never materializes the dataset.
    ``epsg`` writes the legacy crs member (omitted for 4326/None, per
    RFC 7946)."""
    from ..geom.geojson import geometry_geojson
    from ..geom.wkb import from_wkb

    if seq is None:
        seq = path.endswith(_SEQ_SUFFIXES)

    def rows(batch: pa.Table):
        ga = from_wkb(batch.column(_GEOM))
        attrs = [c for c in batch.column_names if c not in (_GEOM, "fid")]
        fid_col = (
            batch.column("fid").to_pylist()
            if "fid" in batch.column_names
            else [None] * len(batch)
        )
        prop_cols = {c: batch.column(c).to_pylist() for c in attrs}
        for i in range(len(batch)):
            feat = {
                "type": "Feature",
                "properties": {c: prop_cols[c][i] for c in attrs},
                "geometry": geometry_geojson(ga, i),
            }
            if fid_col[i] is not None:
                feat["id"] = fid_col[i]
            yield feat

    with open(path, "w", encoding="utf-8") as fh:
        if seq:
            for batch in ds.iter_batches(batch_format="pyarrow", batch_size=None):
                for feat in rows(batch):
                    fh.write(json.dumps(feat, separators=(",", ":")))
                    fh.write("\n")
            return
        fh.write('{"type": "FeatureCollection"')
        if epsg is not None and int(epsg) != 4326:
            fh.write(
                ', "crs": {"type": "name", "properties": '
                f'{{"name": "urn:ogc:def:crs:EPSG::{int(epsg)}"}}}}'
            )
        fh.write(', "features": [\n')
        first = True
        for batch in ds.iter_batches(batch_format="pyarrow", batch_size=None):
            for feat in rows(batch):
                if not first:
                    fh.write(",\n")
                first = False
                fh.write(json.dumps(feat, separators=(",", ":")))
        fh.write("\n]}\n")


def read_csv_wkt(
    path: str,
    geometry_column: str = "geometry",
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """CSV with a WKT geometry column → Dataset with WKB ``geometry``
    (the reference's OGR CSV driver with GEOM_POSSIBLE_NAMES). Streams
    through ``ray.data.read_csv``; WKT parses per batch."""
    from ..geom.wkb import to_wkb_arrow
    from ..geom.wkt import from_wkt

    ds = ray.data.read_csv(path)

    def conv(batch: pa.Table) -> pa.Table:
        wkt = batch.column(geometry_column).to_pylist()
        wkb = to_wkb_arrow(from_wkt(wkt))
        out = batch.drop_columns([geometry_column])
        out = out.append_column(
            _GEOM, wkb if isinstance(wkb, pa.Array) else wkb.combine_chunks()
        )
        return out.select(columns) if columns else out

    return ds.map_batches(conv, batch_format="pyarrow")


def write_csv_wkt(
    ds: ray.data.Dataset, path: str, geometry_column: str = "geometry"
) -> None:
    """Dataset → single CSV file with the geometry as WKT text.
    Streams block by block (interchange endpoint — the 100 TB sink is
    partitioned Parquet/Lance via write_layer)."""
    import csv

    from ..geom.wkb import from_wkb
    from ..geom.wkt import to_wkt

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = None
        for batch in ds.iter_batches(batch_format="pyarrow", batch_size=None):
            attrs = [c for c in batch.column_names if c != _GEOM]
            wkt = to_wkt(from_wkb(batch.column(_GEOM)))
            if writer is None:
                writer = csv.writer(fh)
                writer.writerow([*attrs, geometry_column])
            cols = [batch.column(c).to_pylist() for c in attrs]
            for i in range(len(batch)):
                writer.writerow([*(c[i] for c in cols), wkt[i] or ""])
