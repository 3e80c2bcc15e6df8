"""Replica-process supervision: spawn, health-check, restart with backoff.

A :class:`FleetManager` owns N replica subprocesses, each running the PR 5
gateway (``python -m repro.server``) on its own port with a **shared**
``--cache-dir`` — the content-addressed result store the replicas share (an
entry one replica stores is a disk hit on every other).  The manager:

* picks ports (ephemeral by default), builds each replica's command line and
  environment (``PYTHONPATH`` is extended so ``-m repro.server`` resolves from
  the source tree without an install), and spawns the processes;
* waits for every replica's ``/healthz`` to answer 200 before declaring the
  fleet up;
* runs a supervisor thread that restarts any replica that exits, with
  exponential backoff (``backoff_base * 2^consecutive_failures`` capped at
  ``backoff_cap``); a replica that stays up long enough resets its backoff.

Tests inject ``command_factory`` to supervise a lightweight stand-in process
instead of the real gateway.  The crash/restart acceptance story — kill a
replica mid-load, zero failed client requests — is the router's retry logic
(:mod:`repro.fleet.router`) plus this supervisor bringing the replica back.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["FleetConfig", "Replica", "FleetManager"]

#: Seconds a replica must stay up for its restart backoff to reset.
HEALTHY_RESET_AFTER = 10.0


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """Tunables of one replica fleet.

    Attributes
    ----------
    replicas:
        Number of gateway processes.
    host:
        Listen address shared by every replica (the fleet is one machine;
        cross-machine sharding needs a shared filesystem for the cache tier).
    base_port:
        First replica port; replica ``i`` listens on ``base_port + i``.
        ``0`` lets the manager pick free ephemeral ports.
    cache_dir:
        The shared result-store directory (required: without it a replica
        cannot serve an entry another replica solved).
    server_args:
        Extra command-line arguments appended to every replica's
        ``python -m repro.server`` invocation (batching, shard, admission
        knobs).
    backoff_base, backoff_cap:
        Restart backoff: the ceiling doubles per consecutive failure from
        ``backoff_base`` up to ``backoff_cap``; the actual delay is drawn
        uniformly from ``[0, ceiling]`` (full jitter) so replicas killed
        together do not restart in lockstep and stampede the shared cache.
    backoff_jitter:
        Disable to restore the deterministic ``base * 2^failures`` delay
        (some supervision tests want exact restart instants).
    backoff_seed:
        Seed for the jitter RNG (chaos plans replay deterministically).
    health_timeout:
        How long :meth:`FleetManager.start` waits for the full fleet to
        answer ``/healthz``.
    poll_interval:
        Supervisor loop period.
    """

    replicas: int = 2
    host: str = "127.0.0.1"
    base_port: int = 0
    cache_dir: str = ""
    server_args: Tuple[str, ...] = ()
    backoff_base: float = 0.25
    backoff_cap: float = 5.0
    backoff_jitter: bool = True
    backoff_seed: Optional[int] = None
    health_timeout: float = 120.0
    poll_interval: float = 0.1

    def __post_init__(self) -> None:
        if self.replicas <= 0:
            raise ValueError("replicas must be positive")
        if not self.cache_dir:
            raise ValueError("cache_dir is required: it is the shared cache tier")
        if self.backoff_base <= 0 or self.backoff_cap < self.backoff_base:
            raise ValueError("need 0 < backoff_base <= backoff_cap")


@dataclasses.dataclass
class Replica:
    """Book-keeping for one supervised gateway process."""

    index: int
    port: int
    process: Optional[subprocess.Popen] = None
    restarts: int = 0  # lifetime restart count (chaos tests read this)
    consecutive_failures: int = 0
    started_at: float = 0.0  # monotonic spawn instant
    restart_due_at: float = 0.0  # monotonic instant the next respawn may run

    @property
    def address(self) -> str:
        return f"{self.port}"

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


def _free_port(host: str) -> int:
    """Ask the OS for a currently-free TCP port (best-effort: a tiny race
    window exists between closing the probe socket and the replica binding)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def default_command(host: str, port: int, cache_dir: str, extra: Sequence[str]) -> List[str]:
    """The real replica command: one PR 5 gateway on ``port``."""
    return [
        sys.executable,
        "-m",
        "repro.server",
        "--host",
        host,
        "--port",
        str(port),
        "--cache-dir",
        cache_dir,
        "--quiet",
        *extra,
    ]


class FleetManager:
    """Spawn and supervise the replica fleet.

    Parameters
    ----------
    config:
        Fleet shape and supervision tuning.
    command_factory:
        ``(replica) -> argv`` override for tests; defaults to launching the
        real ``python -m repro.server`` gateway.
    """

    def __init__(
        self,
        config: FleetConfig,
        command_factory: Optional[Callable[[Replica], List[str]]] = None,
    ) -> None:
        self.config = config
        self._command_factory = command_factory
        self.replicas: List[Replica] = []
        self._supervisor: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._backoff_rng = random.Random(config.backoff_seed)
        self._env = dict(os.environ)
        # make `-m repro.server` importable in the children even when the
        # parent runs from the source tree without an installed package
        src_root = str(Path(__file__).resolve().parents[2])
        existing = self._env.get("PYTHONPATH", "")
        if src_root not in existing.split(os.pathsep):
            self._env["PYTHONPATH"] = (
                src_root + (os.pathsep + existing if existing else "")
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, wait_healthy: bool = True) -> "FleetManager":
        """Spawn every replica (and the supervisor); optionally block until
        the whole fleet answers ``/healthz``."""
        if self.replicas:
            raise RuntimeError("fleet already started")
        Path(self.config.cache_dir).mkdir(parents=True, exist_ok=True)
        for index in range(self.config.replicas):
            port = (
                self.config.base_port + index
                if self.config.base_port
                else _free_port(self.config.host)
            )
            replica = Replica(index=index, port=port)
            self.replicas.append(replica)
            self._spawn(replica)
        self._stop.clear()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-fleet-supervisor", daemon=True
        )
        self._supervisor.start()
        if wait_healthy:
            self.wait_all_healthy(self.config.health_timeout)
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Stop supervising, SIGTERM every replica, escalate to SIGKILL."""
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout)
            self._supervisor = None
        with self._lock:
            processes = [r.process for r in self.replicas if r.alive]
        for process in processes:
            try:
                process.send_signal(signal.SIGTERM)
            except OSError:
                pass
        deadline = time.monotonic() + timeout
        for process in processes:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)
        self.replicas = []

    def __enter__(self) -> "FleetManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def ports(self) -> List[int]:
        return [replica.port for replica in self.replicas]

    @property
    def addresses(self) -> List[Tuple[str, int]]:
        """``(host, port)`` of every replica — the router's upstream list."""
        return [(self.config.host, replica.port) for replica in self.replicas]

    @property
    def total_restarts(self) -> int:
        return sum(replica.restarts for replica in self.replicas)

    def healthz(self, index: int, timeout: float = 2.0) -> Optional[Dict[str, object]]:
        """One replica's ``/healthz`` document, or ``None`` when unreachable."""
        replica = self.replicas[index]
        connection = http.client.HTTPConnection(
            self.config.host, replica.port, timeout=timeout
        )
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            body = response.read()
            if response.status != 200:
                return None
            return json.loads(body)
        except (OSError, ValueError, http.client.HTTPException):
            return None
        finally:
            connection.close()

    def wait_healthy(self, index: int, timeout: float) -> None:
        """Block until one replica answers ``/healthz`` (RuntimeError on
        timeout)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.healthz(index) is not None:
                return
            time.sleep(0.05)
        raise RuntimeError(
            f"replica {index} (port {self.replicas[index].port}) "
            f"not healthy after {timeout:.0f}s"
        )

    def wait_all_healthy(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        for index in range(len(self.replicas)):
            remaining = max(0.1, deadline - time.monotonic())
            self.wait_healthy(index, remaining)

    # ------------------------------------------------------------------
    # chaos helper (tests and the kill-a-replica acceptance check)
    # ------------------------------------------------------------------
    def kill_replica(self, index: int) -> None:
        """SIGKILL one replica; the supervisor restarts it after backoff."""
        replica = self.replicas[index]
        if replica.process is not None and replica.alive:
            replica.process.kill()
            replica.process.wait(timeout=10.0)

    def pause_replica(self, index: int) -> None:
        """SIGSTOP one replica.  The process still polls as alive, so the
        supervisor will *not* restart it — exactly the wedged-but-alive shape
        (a replica that holds requests and never answers them) the chaos
        harness needs."""
        replica = self.replicas[index]
        if replica.process is not None and replica.alive:
            replica.process.send_signal(signal.SIGSTOP)

    def resume_replica(self, index: int) -> None:
        """SIGCONT a previously paused replica."""
        replica = self.replicas[index]
        if replica.process is not None and replica.alive:
            replica.process.send_signal(signal.SIGCONT)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _command(self, replica: Replica) -> List[str]:
        if self._command_factory is not None:
            return self._command_factory(replica)
        return default_command(
            self.config.host,
            replica.port,
            self.config.cache_dir,
            self.config.server_args,
        )

    def _spawn(self, replica: Replica) -> None:
        replica.process = subprocess.Popen(
            self._command(replica),
            env=self._env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        replica.started_at = time.monotonic()

    def _restart_delay(self, consecutive_failures: int) -> float:
        """Full-jitter backoff: uniform over ``[0, min(cap, base * 2^n)]``."""
        ceiling = min(
            self.config.backoff_cap,
            self.config.backoff_base * (2.0 ** consecutive_failures),
        )
        if not self.config.backoff_jitter:
            return ceiling
        return self._backoff_rng.uniform(0.0, ceiling)

    def _supervise(self) -> None:
        while not self._stop.wait(self.config.poll_interval):
            now = time.monotonic()
            for replica in self.replicas:
                with self._lock:
                    if replica.alive:
                        if (
                            replica.consecutive_failures
                            and now - replica.started_at >= HEALTHY_RESET_AFTER
                        ):
                            replica.consecutive_failures = 0
                        continue
                    if replica.restart_due_at == 0.0:
                        # just observed the death: schedule the respawn
                        delay = self._restart_delay(replica.consecutive_failures)
                        replica.consecutive_failures += 1
                        replica.restart_due_at = now + delay
                        continue
                    if now < replica.restart_due_at:
                        continue
                    replica.restart_due_at = 0.0
                    replica.restarts += 1
                    self._spawn(replica)
