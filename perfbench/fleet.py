"""Run ``python -m repro.fleet`` as users do and talk to it over HTTP.

:class:`Fleet` starts the router (which spawns its replica) in its own
process group, waits for ``/healthz``, and on :meth:`Fleet.stop` sends
SIGTERM, waits, and kills the group if the drain hangs.  :class:`Connection`
is a minimal HTTP/1.1 keep-alive client on one asyncio stream; the benchmark
keeps its own client so a change to the repository's client cannot change
how the benchmark measures.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

CLK_TCK = os.sysconf("SC_CLK_TCK")


def _running(pid: int) -> bool:
    """Does ``pid`` exist and has not yet exited (zombies count as ended)?"""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "Connection":
        self._reader, self._writer = await asyncio.open_connection("127.0.0.1", self.port)
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        if self._writer is None:
            await self.open()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        payload = await self._reader.readexactly(length) if length else b""
        return status, payload


async def get_json(port: int, path: str) -> Dict[str, object]:
    conn = await Connection(port).open()
    try:
        status, payload = await conn.request("GET", path)
    finally:
        await conn.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(payload)


class Fleet:
    """``python -m repro.fleet --replicas 1`` on a given cache directory."""

    def __init__(self, root: Path, cache_dir: Path) -> None:
        self.root = root
        self.cache_dir = cache_dir
        self.port = free_port()
        self.proc: Optional[subprocess.Popen] = None

    def start(self, timeout: float = 60.0) -> float:
        """Start the fleet; returns seconds until the router's /healthz answers."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.fleet", "--replicas", "1",
                "--port", str(self.port), "--cache-dir", str(self.cache_dir), "--quiet",
            ],
            env=env,
            cwd=str(self.root),
            stdout=subprocess.DEVNULL,
            start_new_session=True,
        )
        deadline = started + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"fleet exited with code {self.proc.returncode}")
            try:
                with socket.create_connection(("127.0.0.1", self.port), timeout=1.0) as sock:
                    sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                    if sock.recv(64).startswith(b"HTTP/1.1 200"):
                        return time.perf_counter() - started
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("fleet did not become healthy")
            time.sleep(0.01)

    def pids(self) -> List[int]:
        """The router and every process it spawned (the replicas)."""
        assert self.proc is not None
        pids = [self.proc.pid]
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            try:
                children = (task / "children").read_text().split()
            except OSError:
                continue
            pids.extend(int(pid) for pid in children)
        return pids

    def replica_pids(self) -> List[int]:
        return self.pids()[1:]

    @staticmethod
    def cpu_seconds(pid: int) -> float:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident set (VmHWM) of the router and replicas."""
        total_kb = 0
        for pid in self.pids():
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        if self.proc is None:
            return
        replicas = self.replica_pids() if self.proc.poll() is None else []
        try:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        finally:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
            self.proc = None
        # replicas are the router's children, not ours: poll until they are gone
        deadline = time.perf_counter() + 10.0
        while any(_running(pid) for pid in replicas):
            if time.perf_counter() > deadline:
                raise RuntimeError(f"replica processes {replicas} did not exit")
            time.sleep(0.01)
