"""`python -m geofileops_ray.job` — the ray-job-submit entry point."""

import json
import os
import subprocess
import sys

from conftest import SF_DIR


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "geofileops_ray.job", *args],
        capture_output=True, text=True, cwd="/root/repo",
        env={**os.environ, "RAY_ADDRESS": "local"}, timeout=400,
    )


def test_job_entry_list_run_and_resume(tmp_path):
    r = _run("--list")
    assert r.returncode == 0
    names = r.stdout.split()
    assert "buffer_area" in names and "sjoin_dissolve" in names

    out = str(tmp_path / "ckpt")
    args = ("--query", "tile_assignments_16",
            "--sf-dir", SF_DIR, "--checkpoint-dir", out)
    r1 = _run(*args)
    assert r1.returncode == 0, r1.stderr[-2000:]
    rec1 = json.loads(r1.stdout.strip().splitlines()[-1])
    assert rec1["rows_out"] == 532 and rec1["partitions_written"] > 0
    with open(os.path.join(out, "metrics.json")) as f:
        assert json.load(f) == rec1

    # resubmission: every partition already committed → all skipped
    r2 = _run(*args)
    rec2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert rec2["rows_out"] == 0 and rec2["partitions_written"] == 0
    assert rec2["partitions_skipped_resume"] == rec1["partitions_written"]

    r3 = _run("--query", "nope")
    assert r3.returncode != 0
