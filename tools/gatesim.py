#!/usr/bin/env python
"""Driver-gate simulation: run EVERY queries() entry against its
oracle_sql() with the driver's exact type-sensitive comparison, at an
arbitrary sf dir (the per-round driver uses sf0.01 and the first 50
registry slots; tests/test_registry.py runs the same at sf0.001).

Usage:
    python tools/gatesim.py [sf_dir] [--cpus N] [--window 50]

Prints one line per query (ok/FAIL/rows-only) and a summary; exit code
1 if any row fails or has no oracle (rows-only).
"""

from __future__ import annotations

import math
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _to_table(res):
    import pandas as pd
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return pa.Table.from_pylist(res.take_all())
    if isinstance(res, pd.DataFrame):
        return pa.Table.from_pandas(res)
    return res


def _norm_val(v):
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return round(v, 9)
    return v


def _normalize(tbl):
    cols = sorted(tbl.column_names)
    rows = []
    for r in tbl.select(cols).to_pylist():
        rows.append(tuple(_norm_val(r[c]) for c in cols))
    return cols, sorted(rows, key=lambda t: tuple(str(x) for x in t))


def _typed(rows):
    return [tuple(f"{type(v).__name__}:{v!r}" for v in row) for row in rows]


def main() -> int:
    flags: dict[str, str] = {}
    args = []
    argv = iter(sys.argv[1:])
    for a in argv:
        if a.startswith("--"):
            name, eq, val = a[2:].partition("=")
            val = val if eq else next(argv, None)  # "--cpus=4" or "--cpus 4"
            if val is None:
                sys.exit(f"gatesim: --{name} needs a value")
            flags[name] = val
        else:
            args.append(a)
    sf = args[0] if args else "/root/testdata/sf0.01"
    cpus = int(flags.get("cpus", 32))
    window = int(flags["window"]) if "window" in flags else None
    only = flags.get("only")

    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=cpus, include_dashboard=False,
                 log_to_driver=False)

    import __ray_entry__ as e

    queries, oracles = e.queries(), e.oracle_sql()
    names = list(queries)
    if window:
        names = names[:window]
    if only:
        pats = only.split(",")
        names = [n for n in names if any(p in n for p in pats)]

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem "
              "events documents embeddings").split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )

    n_ok = n_rowsonly = 0
    failures = []
    for name in names:
        if name not in oracles:
            n_rowsonly += 1
            print(f"rows-only {name}: no oracle")
            continue
        t0 = time.perf_counter()
        try:
            res = _to_table(queries[name](sf))
        except Exception as ex:  # noqa: BLE001
            failures.append(f"{name}: EXC {type(ex).__name__}: {ex}")
            print(f"FAIL {name}: {type(ex).__name__}: {ex}")
            continue
        dt = time.perf_counter() - t0
        want = con.execute(oracles[name]).arrow()
        gc, gr = _normalize(res)
        wc, wr = _normalize(want)
        if len(gr) == 0 and len(wr) == 0:
            n_ok += 1
            print(f"ok   {name}: 0 rows  [{dt:.2f}s]")
            continue
        if gc != wc:
            failures.append(f"{name}: columns {gc} != {wc}")
            print(f"FAIL {name}: columns {gc} != {wc}")
        elif _typed(gr) != _typed(wr):
            tg, tw = _typed(gr), _typed(wr)
            diff = next((i for i, (a, b) in enumerate(zip(tg, tw)) if a != b),
                        min(len(tg), len(tw)))
            msg = (f"{name}: rows {len(gr)} vs {len(wr)}; first diff at {diff}: "
                   f"{tg[diff] if diff < len(tg) else None} != "
                   f"{tw[diff] if diff < len(tw) else None}")
            failures.append(msg)
            print(f"FAIL {msg}")
        else:
            n_ok += 1
            print(f"ok   {name}: {len(gr)} rows  [{dt:.2f}s]")

    print(f"\n{n_ok} oracle-exact, {n_rowsonly} rows-only, "
          f"{len(failures)} FAILED of {len(names)}")
    ray.shutdown()
    return 1 if failures or n_rowsonly else 0


if __name__ == "__main__":
    sys.exit(main())
