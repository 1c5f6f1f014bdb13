"""Benchmark of geofileops_ray: one workload per run.

    python3 perfbench/run.py --workload sjoin_dissolve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run starts a local Ray session on
the CPUs this process may use, builds the workload's seeded inputs and
materializes them, then calls the workload's op in a closed loop (one
caller; the next call starts when the previous one has returned) for
``--seconds``. Every call's output is checked, outside the timed section.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced calls, then measures the layers one by one, reports
the per-layer metrics and writes the spans to ``.perfbench/trace/``.

The last line of standard output is the result object; the line before
it records the host, the seed, the input size and every call's time.
The exit code is 0 only when every call passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    sys.path.insert(0, ROOT)
    try:
        import geofileops_ray  # noqa: F401
    except ImportError as e:
        print(f"geofileops_ray is not importable from {ROOT}: {e}", file=sys.stderr)
        return 2
    from perfbench.host import RaySession, host_cpus, process_age_s
    from perfbench.measure import configure_ray_data, prepare_environment, run_workload
    from perfbench.workloads import WORKLOADS

    # set-up is timed from the process start, interpreter start included
    started = t0 - (process_age_s() - (time.perf_counter() - t0))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".perfbench")
    prepare_environment(work_dir)
    cpus = host_cpus()
    wl = WORKLOADS[args.workload]("full", work_dir, cpus)
    with RaySession(work_dir, cpus):
        configure_ray_data()
        ready_s = time.perf_counter() - started
        result, notes = run_workload(wl, args.seed, args.seconds, bool(args.trace), ready_s)
    print(json.dumps(notes), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
