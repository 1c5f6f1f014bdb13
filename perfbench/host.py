"""Host facts, the Ray session and memory sampling, all read from ``/proc``
(psutil is not available)."""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import threading
import time

# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store,
# which adds up to 64 bytes to the temp dir
_SOCKET_PATH_BUDGET = 107 - 64
# inputs and outputs of every workload are tens of MB
_OBJECT_STORE_BYTES = 512 * 1024 * 1024


def host_cpus() -> int:
    """CPUs this process may use, as ``nproc`` counts them: the affinity
    mask, capped by ``OMP_NUM_THREADS`` when that is set."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    if omp.isdigit() and int(omp) > 0:
        n = min(n, int(omp))
    return n


def process_age_s() -> float:
    """Seconds since this process started (kernel start time)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def steal_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole machine since boot: the time
    the hypervisor ran someone else while this machine had work."""
    with open("/proc/stat") as f:
        ticks = [int(v) for v in f.readline().split()[1:]]
    return ticks[7], sum(ticks[:8])


def _stat(pid: str) -> tuple[int, int, int] | None:
    """(ppid, rss bytes, start ticks) of one live process, None if it is
    gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    if fields[0] == "Z":
        return None
    return (
        int(fields[1]),
        int(fields[21]) * os.sysconf("SC_PAGE_SIZE"),
        int(fields[19]),
    )


def _processes() -> dict[int, tuple[int, int, int]]:
    out = {}
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            st = _stat(pid)
            if st is not None:
                out[int(pid)] = st
    return out


def _descends_from(pid: int, root: int, procs: dict) -> bool:
    for _ in range(32):
        pid = procs[pid][0] if pid in procs else 0
        if pid == root:
            return True
        if not pid:
            return False
    return False


def _is_ray_worker(pid: str) -> bool:
    # Ray retitles its worker processes (tasks and actors alike) to
    # "ray::<task or actor name>", which replaces their command line
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().startswith(b"ray::")
    except OSError:
        return False


def driver_and_worker_rss() -> int:
    """Summed RSS (bytes) of this process and the Ray worker processes
    that descend from it."""
    me = os.getpid()
    procs = _processes()
    return sum(
        rss for pid, (_ppid, rss, _start) in procs.items()
        if pid == me or (_descends_from(pid, me, procs) and _is_ray_worker(str(pid)))
    )


class RssSampler:
    """Samples :func:`driver_and_worker_rss` every ``interval`` seconds
    while :attr:`active` is set, keeping the peak. One sleeping thread."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.peak = 0
        self.active = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            if self.active.is_set():
                self.peak = max(self.peak, driver_and_worker_rss())

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


class RaySession:
    """A local Ray session whose temp files stay under ``work_dir``.

    The Ray temp dir must be short enough for Ray's socket paths; when
    ``work_dir`` is too deep, a private directory under the system temp
    dir is used instead and removed on exit."""

    def __init__(self, work_dir: str, num_cpus: int):
        self.num_cpus = num_cpus
        self.temp_dir = os.path.join(work_dir, "r")
        self._private = False

    def __enter__(self) -> "RaySession":
        import ray

        if len(self.temp_dir) > _SOCKET_PATH_BUDGET:
            self.temp_dir = tempfile.mkdtemp(prefix="pb", dir="/tmp")
            self._private = True
        os.makedirs(self.temp_dir, exist_ok=True)
        self._before = set(os.listdir(self.temp_dir))
        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            object_store_memory=_OBJECT_STORE_BYTES,
            include_dashboard=False,
            log_to_driver=False,
            configure_logging=False,
            _temp_dir=self.temp_dir,
        )
        return self

    def __exit__(self, *exc) -> None:
        import ray

        me = os.getpid()
        procs = _processes()
        started = {
            pid: st[2] for pid, st in procs.items()
            if pid != me and _descends_from(pid, me, procs)
        }
        ray.shutdown()
        # ray.shutdown() returns before every worker has exited, and the
        # workers are re-parented when their raylet dies: wait for every
        # process this session started, and kill what outlives the wait
        if not _wait_gone(started, 20.0):
            for pid in _still_running(started):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            _wait_gone(started, 5.0)
        # remove this session's files only: another run may share the dir
        for name in set(os.listdir(self.temp_dir)) - self._before:
            path = os.path.join(self.temp_dir, name)
            if os.path.islink(path) or not os.path.isdir(path):
                os.remove(path)
            else:
                shutil.rmtree(path, ignore_errors=True)
        if self._private:
            shutil.rmtree(self.temp_dir, ignore_errors=True)


def _wait_gone(started: dict[int, int], timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while _still_running(started):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.1)
    return True


def _still_running(started: dict[int, int]) -> list[int]:
    out = []
    for pid, start in started.items():
        st = _stat(str(pid))
        if st is not None and st[2] == start:
            out.append(pid)
    return out
