"""Fast self-check of the benchmark: every workload once on tiny inputs,
untraced and traced, in one Ray session. Asserts that each run passes its
output checks and emits exactly the metrics ``BENCHMARK.json`` names, each
with its unit, and that the traced run counts the same number of Ray
executions on every call. ``nearest`` is checked too, although
``BENCHMARK.json`` does not list it (see NOTES.md).

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path.insert(0, ROOT)
    from perfbench.checks import require
    from perfbench.host import RaySession, host_cpus
    from perfbench.measure import configure_ray_data, prepare_environment, run_workload
    from perfbench.workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = [w["name"] for w in spec["workloads"]]
    require(set(listed) <= set(WORKLOADS), f"{listed} not all in {sorted(WORKLOADS)}")
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    work_dir = os.path.join(ROOT, ".perfbench")
    prepare_environment(work_dir)
    cpus = host_cpus()
    t0 = time.perf_counter()
    with RaySession(work_dir, cpus):
        configure_ray_data()
        ready_s = time.perf_counter() - t0
        for name in WORKLOADS:
            for trace in (0, 1):
                wl = WORKLOADS[name]("tiny", work_dir, cpus)
                # two traced calls, so that their execution counts compare
                result, notes = run_workload(
                    wl, 0, 0.0, bool(trace), ready_s, min_calls=4 if trace else 1
                )
                where = f"{name} trace={trace}"
                require(set(result) == {"correct", "attempted", "failed", "metrics"},
                        f"{where}: keys {sorted(result)}")
                require(result["correct"] and result["failed"] == 0,
                        f"{where}: {result}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                require(got == wanted[trace], f"{where}: metrics {got}")
                for k, v in result["metrics"].items():
                    require(set(v) == {"value", "unit"}, f"{where}: {k} is {v}")
                    require(isinstance(v["value"], (int, float))
                            and math.isfinite(v["value"]), f"{where}: {k} is {v}")
                if trace:
                    counts = notes["ray_executions_each"]
                    require(len(set(counts)) == 1,
                            f"{where}: Ray executions per call vary: {counts}")
                print(f"ok {where}: {result['attempted']} call(s)", flush=True)
    print("self-check passed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
