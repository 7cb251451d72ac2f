"""A real ``python -m repro.serve start`` subprocess, and what ``/proc``
says about it: the serve workloads' system under test."""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from perfbench.hermetic import Scratch

WORKERS = 2
#: seconds a server gets to exit after ``POST /v1/shutdown`` before its
#: process group is killed and the hang is counted
SHUTDOWN_GRACE = 5.0
START_TIMEOUT = 60.0

_TICKS = os.sysconf("SC_CLK_TCK")


def placement() -> tuple[int, int] | None:
    """``(generator CPU, front-end CPU)``: the first and the last CPU this
    process may use (``None`` when it has only one).

    The load generator's threads run on the first and the server's front
    end (its main process: HTTP threads and dispatcher) on the last; the
    pool's workers stay free.  Left to the kernel, the two ends of an
    exchange sit on one CPU or on two from one server to the next, and a
    wake-up that crosses CPUs costs more (here it wakes an idle virtual
    CPU): ``serve_hit``'s 3 ms median moved by 37 % between servers of one
    minute, against 10 % with every exchange crossing (README, findings).
    """
    allowed = sorted(os.sched_getaffinity(os.getpid()))
    return (allowed[0], allowed[-1]) if len(allowed) > 1 else None


class Conn:
    """One persistent HTTP/1.1 connection speaking the serve JSON API."""

    def __init__(self, host: str, port: int, timeout: float = 35.0):
        self._http = http.client.HTTPConnection(host, port, timeout=timeout)

    def call(self, method: str, path: str, body: Any = None) -> tuple[int, Any]:
        """(status, document); status 0 with the error text when the
        exchange itself failed (the connection is reopened on next use)."""
        payload = None if body is None else json.dumps(body)
        try:
            self._http.request(
                method, path, body=payload, headers={"Content-Type": "application/json"}
            )
            response = self._http.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self._http.close()
            return 0, {"error": f"{type(exc).__name__}: {exc}"}

    def close(self) -> None:
        self._http.close()


class Server:
    """Spawn, wait for health, stop (callers stop it in a ``finally``)."""

    def __init__(self, scratch: Scratch, cache_dir: Path):
        self.scratch = scratch
        self.cache_dir = cache_dir
        self.host = "127.0.0.1"
        self.port = 0
        self.process: subprocess.Popen | None = None
        self.spawned_at = 0.0
        self.shutdown_hangs = 0
        self._stderr = None

    def conn(self) -> Conn:
        return Conn(self.host, self.port)

    def start(self) -> None:
        """Spawn the server and return once ``/v1/health`` answers 200."""
        self._stderr = (self.scratch.path / "server.stderr").open("ab")
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve", "start", "--port", "0",
                "--workers", str(WORKERS), "--cache-dir", str(self.cache_dir),
            ],
            env=self.scratch.env,
            cwd=self.scratch.path,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            start_new_session=True,
        )
        try:
            self.port = self._read_port()
            deadline = time.perf_counter() + START_TIMEOUT
            conn = self.conn()
            while conn.call("GET", "/v1/health")[0] != 200:
                if time.perf_counter() > deadline or self.process.poll() is not None:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.01)
            conn.close()
            self._place_front_end()
        except BaseException:
            self.stop()
            raise

    def _place_front_end(self) -> None:
        """Confine every thread of the main process (and so every thread it
        starts from now on) to the front-end CPU; see :func:`placement`."""
        cpus = placement()
        if cpus is None:
            return
        for task in os.listdir(f"/proc/{self.process.pid}/task"):
            os.sched_setaffinity(int(task), {cpus[1]})

    def _read_port(self) -> int:
        """The ephemeral port, from the ``listening on`` line the CLI prints."""
        lines: list[bytes] = []
        reader = threading.Thread(
            target=lambda: lines.append(self.process.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(START_TIMEOUT)
        line = lines[0].decode() if lines else ""
        if "listening on" not in line:
            raise RuntimeError(f"server did not announce its address: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def pids(self) -> list[int]:
        """The server's process tree: itself and its pool workers."""
        assert self.process is not None
        conn = self.conn()
        status, health = conn.call("GET", "/v1/health")
        conn.close()
        workers = [w["pid"] for w in health["workers"]] if status == 200 else []
        return [self.process.pid, *workers]

    def stop(self) -> None:
        """Ask politely, then kill the process group; never leaves a server."""
        process, self.process = self.process, None
        if process is None:
            return
        try:
            if process.poll() is None:
                Conn(self.host, self.port, timeout=2.0).call("POST", "/v1/shutdown")
                try:
                    process.wait(SHUTDOWN_GRACE)
                except subprocess.TimeoutExpired:
                    self.shutdown_hangs += 1
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
            process.stdout.close()
            if self._stderr is not None:
                self._stderr.close()


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU seconds consumed so far by *pids*."""
    total = 0
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()  # after "(comm)": state is [0]
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _TICKS


def peak_rss_mib(pids: list[int]) -> float:
    """Sum of the peak resident sets (``VmHWM``) of *pids*, in MiB."""
    total_kib = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0
