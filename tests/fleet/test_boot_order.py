"""The order in which ``python -m repro.fleet`` brings the fleet up.

:func:`repro.fleet.__main__.serve` spawns the replicas without waiting, then
imports the router and waits for ``/healthz``, then binds the router, so the
router's start-up overlaps the replicas'.  Whatever fails after the spawn, no
replica process is left running.  Stand-in replicas (the stub HTTP server of
``test_manager``) keep each case to a fraction of a second.
"""

import asyncio
import socket
import sys

import pytest

import repro.fleet.__main__ as entry
from repro.fleet.manager import FleetManager
from repro.fleet.router import FleetRouter
from tests.fleet.test_manager import make_config, stub_command


def silent_command(replica):
    """A replica that runs but never answers ``/healthz``."""
    return [sys.executable, "-c", "import time; time.sleep(60)"]


@pytest.fixture()
def boot(monkeypatch):
    """Run ``serve`` on stand-in replicas; returns the event log, the managers
    it made, every replica process it spawned, and the runner."""
    events = []
    managers = []
    spawned = []

    def run(config, command=stub_command, router_settings=None):
        class RecordingManager(FleetManager):
            def __init__(self, fleet_config):
                super().__init__(fleet_config, command_factory=command)
                managers.append(self)

            def start(self, wait_healthy=True):
                events.append(("start", wait_healthy))
                super().start(wait_healthy)
                spawned.extend(replica.process for replica in self.replicas)
                return self

            def wait_all_healthy(self, timeout):
                events.append(("wait", [replica.alive for replica in self.replicas]))
                super().wait_all_healthy(timeout)
                events.append(("healthy",))

        monkeypatch.setattr(entry, "FleetManager", RecordingManager)
        settings = dict(host="127.0.0.1", port=0)
        settings.update(router_settings or {})
        asyncio.run(entry.serve(config, settings, quiet=True))

    return events, managers, spawned, run


def all_stopped(managers, spawned):
    return (
        len(spawned) == 2
        and all(process.poll() is not None for process in spawned)
        and all(manager.replicas == [] for manager in managers)
    )


class TestBootOrder:
    def test_replicas_spawn_before_the_health_wait_and_the_bind(
        self, tmp_path, boot, monkeypatch
    ):
        events, managers, spawned, run = boot

        async def refuse_to_bind(router):
            events.append(("bind",))
            raise OSError("address in use")

        monkeypatch.setattr(FleetRouter, "start", refuse_to_bind)
        with pytest.raises(OSError, match="address in use"):
            run(make_config(tmp_path))
        assert events == [
            ("start", False),
            ("wait", [True, True]),  # both replicas already running
            ("healthy",),
            ("bind",),
        ]
        assert all_stopped(managers, spawned)

    def test_a_failed_health_wait_stops_every_replica(self, tmp_path, boot):
        events, managers, spawned, run = boot
        config = make_config(tmp_path, health_timeout=0.3)
        with pytest.raises(RuntimeError, match="not healthy"):
            run(config, command=silent_command)
        assert events == [("start", False), ("wait", [True, True])]
        assert all_stopped(managers, spawned)

    def test_an_invalid_router_setting_stops_every_replica(self, tmp_path, boot):
        events, managers, spawned, run = boot
        with pytest.raises(ValueError, match="shed_watermark"):
            run(make_config(tmp_path), router_settings={"shed_watermark": -1.0})
        assert events == [("start", False)]
        assert all_stopped(managers, spawned)

    def test_the_bound_router_serves_the_spawned_replicas(
        self, tmp_path, boot, monkeypatch
    ):
        events, managers, spawned, run = boot
        seen = {}

        async def bind_then_stop(router):
            seen["upstreams"] = [
                (pool.host, pool.port) for pool in router.pools.values()
            ]
            seen["addresses"] = managers[0].addresses
            with socket.socket() as probe:  # the replicas answer while serving
                probe.connect(managers[0].addresses[0])

        monkeypatch.setattr(FleetRouter, "start", bind_then_stop)
        monkeypatch.setattr(
            FleetRouter, "serve_until_signal", lambda router, **kwargs: asyncio.sleep(0)
        )
        run(make_config(tmp_path))
        assert seen["upstreams"] == seen["addresses"]
        assert events[-1] == ("healthy",)
        assert all_stopped(managers, spawned)
