"""Shared pieces of the benchmark: the Ray session, process clean-up,
timing statistics and machine facts."""

from __future__ import annotations

import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# the engine's own TCP/IPC sockets must fit the 107-byte AF_UNIX limit, so
# Ray's session files stay in the checkout only when its path is short
_MAX_RAY_TEMP = 40


def median(xs: Sequence[float]) -> float:
    return float(statistics.median(xs))


def tail(xs: Sequence[float]) -> Optional[tuple]:
    """(percentile, value) of the highest of p99/p95/p90 with at least ten
    samples beyond it, or None when even p90 is not supported."""
    s = sorted(xs)
    for p in (99, 95, 90):
        if len(s) * (100 - p) / 100 >= 10:
            return p, s[min(len(s) - 1, int(len(s) * p / 100))]
    return None


def machine_facts(ray_cpus: int) -> dict:
    import numpy
    import pyarrow
    import ray

    return {
        # CPUs this process may run on; the `nproc` command prints
        # OMP_NUM_THREADS instead when that is set
        "nproc": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ray_logical_cpus": ray_cpus,
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
    }


def _descendants(root_pid: int) -> List[int]:
    parent: Dict[int, int] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    parent[int(d)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
    out, frontier = [], [root_pid]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parent.items() if pp == p]
        out.extend(kids)
        frontier.extend(kids)
    return out


def _cmdline_mentions(needle: str) -> List[int]:
    out = []
    for d in os.listdir("/proc"):
        if d.isdigit() and int(d) != os.getpid():
            try:
                with open(f"/proc/{d}/cmdline", "rb") as f:
                    if needle.encode() in f.read():
                        out.append(int(d))
            except OSError:
                continue
    return out


def reap(extra_needle: Optional[str] = None, timeout: float = 20.0) -> None:
    """Wait until every process this benchmark started has ended: its
    descendants, plus (for Ray workers re-parented away from us) any process
    whose command line names this run's work directory.  SIGKILL what is
    still alive at the deadline."""
    deadline = time.monotonic() + timeout
    while True:
        pids = set(_descendants(os.getpid()))
        if extra_needle:
            pids.update(_cmdline_mentions(extra_needle))
        alive = [p for p in pids if os.path.exists(f"/proc/{p}")
                 and not _is_zombie(p)]
        for p in pids:
            try:
                os.waitpid(p, os.WNOHANG)
            except ChildProcessError:
                pass
        if not alive:
            return
        if time.monotonic() > deadline:
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5
        time.sleep(0.2)


def _cpu_ticks(pid: int) -> int:
    """utime + stime + cutime + cstime of a process, in clock ticks: its
    own CPU time plus that of the children it has reaped."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return sum(int(x) for x in fields[11:15])


def tree_cpu_s() -> float:
    """CPU seconds used so far by this process and every live process it
    started (Ray's workers, raylet and GCS).  A worker that ends is reaped
    by its parent, whose children's time then carries it on."""
    ticks = 0
    for pid in [os.getpid()] + _descendants(os.getpid()):
        try:
            ticks += _cpu_ticks(pid)
        except (OSError, IndexError, ValueError):
            continue  # the process ended meanwhile
    return ticks / os.sysconf("SC_CLK_TCK")


def status_mb(pid: int, field: str) -> float:
    """A memory line of /proc/<pid>/status (VmRSS, VmHWM) in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} for process {pid}")


def ray_worker_peak_mb() -> float:
    """The largest peak RSS (VmHWM) among the live Ray worker processes
    this process started.  Ray titles its workers ``ray::<task>``."""
    peaks = []
    for pid in _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if f.read().startswith(b"ray::"):
                    peaks.append(status_mb(pid, "VmHWM"))
        except (OSError, RuntimeError):
            continue  # the worker ended meanwhile
    if not peaks:
        raise RuntimeError("no live Ray worker processes")
    return max(peaks)


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (OSError, IndexError):
        return True


class RaySession:
    """``ray.init`` with a fixed logical CPU count; the start time is kept
    as ``start_s``.  With ``trace_dir`` set, every worker runs
    ``tracing.install_build_worker_hooks`` at start-up."""

    def __init__(self, work: str, cpus: int, trace_dir: Optional[str] = None):
        self.work, self.cpus, self.trace_dir = work, cpus, trace_dir
        self.start_s = 0.0

    def __enter__(self) -> "RaySession":
        import ray

        os.environ["PYTHONPATH"] = os.pathsep.join([ROOT, HERE])
        kwargs = {}
        if self.trace_dir:
            import tracing

            os.environ[tracing.TRACE_DIR_ENV] = self.trace_dir
            kwargs["runtime_env"] = {
                "worker_process_setup_hook": "tracing.install_build_worker_hooks"
            }
        temp = os.path.join(self.work, "ray")
        if len(temp) <= _MAX_RAY_TEMP:
            kwargs["_temp_dir"] = temp
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=self.cpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=256 * 2**20, **kwargs)
        from uci_searchengine_ray.config import configure_data_context

        configure_data_context()
        self.start_s = time.perf_counter() - t0
        return self

    def __exit__(self, *exc) -> None:
        import ray

        ray.shutdown()
        reap(self.work)


class ServerProcess:
    """``server_main.py`` in its own interpreter, stopped by closing its
    stdin."""

    def __init__(self, index_dir: str, mode: str,
                 trace_out: Optional[str] = None):
        cmd = [sys.executable, os.path.join(HERE, "server_main.py"),
               "--index", index_dir, "--mode", mode]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([ROOT, HERE]))
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=env)
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            self.stop()
            raise RuntimeError("search server did not start")
        self.port = int(line[1])

    def rss_mb(self, field: str = "VmRSS") -> float:
        return status_mb(self.proc.pid, field)

    def cpu_s(self) -> float:
        """CPU seconds the server process has used."""
        return _cpu_ticks(self.proc.pid) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
