"""Process control: the checkout layout, the CLI server subprocess and
``/proc`` readers for CPU time and peak RSS."""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional

__all__ = ["ROOT", "SRC", "OUT_DIR", "child_env", "ServerProcess",
           "cpu_seconds", "peak_rss_kb"]

#: The checkout: this package's parent directory.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
#: Everything a build leaves behind goes here (git-ignored), so the
#: benchmark never writes outside its checkout.
BUILD_DIR = ROOT / ".bench_build"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def child_env() -> Dict[str, str]:
    """Environment for the benchmark and its server: repo sources on the
    path, the native kernel cache and temporary files inside the checkout,
    one kernel thread.

    One kernel thread because the box has two vCPUs — one for the server,
    one for the load generator — and because on this microVM the kernels'
    two-thread pool swings +-25% run to run with how the host schedules the
    second vCPU (routine p50 13.5-22.6 ms over 14 runs, against 18.0-19.9 ms
    with one thread).  Thread scaling needs its own workload on a box
    that can hold it still.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_NATIVE_CACHE"] = str(BUILD_DIR / "repro-native")
    env["REPRO_NATIVE_THREADS"] = "1"
    # the C compiler's intermediate files stay inside the checkout too
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def cpu_seconds(pid: int) -> float:
    """utime + stime of a process (all threads), from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as fp:
        fields = fp.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_kb(pid: int) -> int:
    """``VmHWM`` of a process in kB."""
    with open(f"/proc/{pid}/status") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class ServerProcess:
    """``python -m repro serve --listen 127.0.0.1:0`` in its own process group.

    Only ``--listen``, ``--degree`` and ``--seed`` are passed; every other
    flag stays at its shipped default.  Use as a context manager: the
    group is killed on every exit path.  The server's standard error goes
    to ``out/server.log`` (the latest server's only).
    """

    def __init__(self, degree: int, seed: int, *, start_timeout_s: float = 60.0):
        self.degree = degree
        self.seed = seed
        self.start_timeout_s = start_timeout_s
        self.proc: Optional[subprocess.Popen] = None
        self._log = None
        self.port = 0
        self.start_to_listen_s = 0.0

    def __enter__(self) -> "ServerProcess":
        t0 = time.perf_counter()
        OUT_DIR.mkdir(exist_ok=True)
        self._log = open(OUT_DIR / "server.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--listen", "127.0.0.1:0",
             "--degree", str(self.degree), "--seed", str(self.seed)],
            stdout=subprocess.PIPE, stderr=self._log,
            stdin=subprocess.DEVNULL, text=True,
            env=child_env(), cwd=str(ROOT), start_new_session=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        self.start_timeout_s)
            line = self.proc.stdout.readline() if ready else ""
            match = re.search(r"127\.0\.0\.1:(\d+)", line)
            if match is None:
                raise RuntimeError(
                    f"server did not announce a port (first line: {line!r}, "
                    f"exit code {self.proc.poll()})")
            self.port = int(match.group(1))
        except BaseException:
            self.stop()
            raise
        self.start_to_listen_s = time.perf_counter() - t0
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pid)

    def peak_rss_kb(self) -> int:
        return peak_rss_kb(self.pid)

    def stop(self) -> None:
        """SIGINT the group (the CLI's clean shutdown), SIGKILL after 5 s.

        Close client connections first, and give the server a moment to
        see them close: it logs a traceback when it is interrupted with
        live connections.
        """
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                time.sleep(0.05)
                os.killpg(proc.pid, signal.SIGINT)
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            proc.stdout.close()
            self._log.close()
