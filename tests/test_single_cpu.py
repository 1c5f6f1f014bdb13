"""Hash joins on a 1-CPU Ray session. Ray 2.49's ``Dataset.join`` hangs
there unless its aggregator actors ask for no CPU; the test session in
conftest.py has 4 CPUs and cannot show it, so the two registry rows that
run a join go through a fresh ``num_cpus=1`` session in a subprocess
under a timeout."""

import json
import os
import subprocess
import sys

from conftest import SF_DIR as SF

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROWS = ("join_attributes", "union_full_self_invariants")

_CHILD = f"""
import json
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
from geofileops_ray.pipelines.queries import QUERIES
from geofileops_ray.util import collect
import pyarrow as pa

out = {{}}
for name in {ROWS!r}:
    res = QUERIES[name]({SF!r})
    out[name] = res.num_rows if isinstance(res, pa.Table) else collect(res).num_rows
print(json.dumps(out))
ray.shutdown()
"""


def test_joins_finish_on_one_cpu(oracle):
    from geofileops_ray.pipelines.queries import ORACLES

    r = subprocess.run(
        [sys.executable, "-c", _CHILD], capture_output=True, text=True,
        cwd=ROOT, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    got = json.loads(r.stdout.strip().splitlines()[-1])
    want = {n: len(oracle.execute(ORACLES[n]).fetchall()) for n in ROWS}
    assert got == want
