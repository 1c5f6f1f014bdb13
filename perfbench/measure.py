"""Set-up, closed-loop measurement and checking of one workload inside a
running Ray session; the traced variant adds the per-layer metrics."""

from __future__ import annotations

import os
import statistics
import sys
import time
import traceback

from geofileops_ray.config import OPTIONS

from . import layers
from .host import RssSampler, steal_ticks
from .trace import EXEC, NullTracer, Tracer, covered

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SETUP_REPS = 3


def _warm(batch):
    # first task in a fresh worker: pay the library import here, not in
    # the first generated layer
    import geofileops_ray.io.synth  # noqa: F401

    return batch


def prepare_environment(work_dir: str) -> None:
    """Environment every process of the run inherits: temp files under
    the work dir, the checkout importable by Ray workers, no usage
    reporting."""
    tmp = os.path.join(work_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    paths = [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"


def configure_ray_data() -> None:
    """Quiet Ray Data's logs and progress bars, and start the first
    worker."""
    import logging

    import ray.data

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ray.data.range(1).map_batches(_warm, batch_format="pyarrow").materialize()


def run_workload(wl, seed: int, seconds: float, trace: bool, ready_s: float,
                 min_calls: int = 1) -> tuple[dict, dict]:
    """Set up, measure and check one workload in the running Ray session.
    Returns (result line, notes line)."""
    gen_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        docs, inputs = wl.generate(seed)
        gen_times.append(time.perf_counter() - t0)
    gen_s = statistics.median(gen_times)
    input_rows = wl.input_rows(inputs)
    expected = wl.expected(docs, inputs)

    run_id = f"{wl.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    tracer = Tracer(run_id) if trace else None
    null = NullTracer()
    walls, traced_ops, failures = [], [], []
    attempted = 0

    def one_call(kind: str) -> None:
        """kind: "warmup" (untimed), "timed" or "traced"."""
        nonlocal attempted
        attempted += 1
        out = None
        rss.active.set()
        t0 = time.perf_counter()
        try:
            if kind == "traced":
                with tracer.ray_hooked(), tracer.span("op", call=attempted) as sid:
                    out = wl.call(inputs, tracer)
                traced_ops.append(sid)
            else:
                out = wl.call(inputs, null)
            dt = time.perf_counter() - t0
        except Exception:  # noqa: BLE001 - a raising call is a failed call
            failures.append(f"call {attempted} raised:\n{traceback.format_exc()}")
            return
        finally:
            rss.active.clear()
        if kind == "timed":
            walls.append(dt)
        try:
            wl.check(out, expected)
        except Exception as e:  # noqa: BLE001 - any check error is a failure
            failures.append(f"call {attempted} failed its check: {e!r}")

    with RssSampler() as rss:
        # one untimed call first: the first call after set-up pays one-off
        # costs (worker caches, lazy imports) that later calls do not
        one_call("warmup")
        rss.peak = 0
        steal0, total0 = steal_ticks()
        t_start = time.perf_counter()
        n = 0
        while n < max(min_calls, 2 if trace else 1) or (
            time.perf_counter() - t_start < seconds
        ):
            one_call("traced" if trace and n % 2 == 1 else "timed")
            n += 1
        steal1, total1 = steal_ticks()
    failed = len(failures)
    for f in failures:
        print(f, file=sys.stderr)

    wall_s = statistics.median(walls) if walls else None
    notes = {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "trace": int(trace),
        "nproc": wl.cpus,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ray_version": __import__("ray").__version__,
        "python": sys.version.split()[0],
        "input_rows": input_rows,
        "documents": wl.n_docs,
        "repeat": wl.repeat,
        "samples": len(walls),
        "wall_s_each": [round(w, 6) for w in walls],
        "wall_s_max": max(walls) if walls else None,
        "setup_gen_s_each": [round(g, 6) for g in gen_times],
        "ray_ready_s": ready_s,
        # share of machine CPU time stolen by the hypervisor during the
        # timed calls: the main source of run-to-run spread on shared hosts
        "host_steal_frac": (steal1 - steal0) / max(total1 - total0, 1),
    }
    if not walls or (trace and not traced_ops):
        metrics = {}  # no call succeeded: nothing to measure
    elif not trace:
        metrics = {
            "setup_s": (ready_s + gen_s, "s"),
            "wall_s": (wall_s, "s"),
            "rows_per_s": (input_rows / wall_s, "rows/s"),
            "peak_rss_mb": (rss.peak / 2**20, "MB"),
        }
    else:
        metrics = stage_metrics(tracer, traced_ops, notes)
        a, b = wl.kernel_inputs(inputs)
        with tracer.span("layer.geom"):
            metrics.update(layers.geom_metrics(a, b))
        with tracer.span("layer.tiling"):
            left = inputs[wl.layers[0][0]]
            metrics.update(layers.tiling_metrics(left, OPTIONS.cell_size))
        with tracer.span("layer.io"):
            metrics.update(wl.io_metrics(a, tracer.spans, input_rows))
        metrics["io.synth.gen_s"] = (gen_s, "s")
        metrics["trace.overhead_frac"] = (
            metrics["stages.op_s"][0] / wall_s - 1.0, "ratio")
        metrics["error_rate"] = (failed / attempted, "ratio")

        trace_dir = os.path.join(wl.work_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{run_id}.json")
        tracer.dump(trace_path, notes)
        notes["trace_file"] = os.path.relpath(trace_path, ROOT)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, notes


def stage_metrics(tracer, traced_ops: list[int], notes: dict) -> dict:
    """Per-call medians over the traced op spans and the Ray executions
    below them; the per-call counts and plans go into ``notes``."""
    op_s, n_exec, exec_s, exec_max, driver_s, cov = [], [], [], [], [], []
    plans: dict[str, int] = {}
    for sid in traced_ops:
        op = tracer.get(sid)
        below = tracer.children(sid)
        execs = [s for s in below if s["name"] == EXEC]
        dur = op["end"] - op["start"]
        busy = covered(execs, op["start"], op["end"])
        op_s.append(dur)
        n_exec.append(len(execs))
        exec_s.append(busy)
        exec_max.append(max((s["end"] - s["start"] for s in execs), default=0.0))
        driver_s.append(dur - busy)
        cov.append(covered(below, op["start"], op["end"]) / dur)
        for s in execs:
            plans[s["plan"]] = plans.get(s["plan"], 0) + 1
    notes["ray_executions_each"] = n_exec
    notes["exec_plans"] = {p: c / len(traced_ops) for p, c in plans.items()}
    med = statistics.median
    return {
        "stages.op_s": (med(op_s), "s"),
        "stages.ray_executions": (float(med(n_exec)), "count"),
        "stages.ray_exec_s": (med(exec_s), "s"),
        "stages.exec_max_s": (med(exec_max), "s"),
        "stages.driver_s": (med(driver_s), "s"),
        "trace.covered_frac": (med(cov), "ratio"),
    }

