"""Synchronous fleet harness: manager + router behind one context manager.

:class:`BackgroundFleet` is to the fleet what
:class:`~repro.server.gateway.BackgroundGateway` is to a single gateway — the
shared harness of the tests, the benchmarks, the scaling example and the
load-generator fleet driver.  It spawns the replica processes through a
:class:`~repro.fleet.manager.FleetManager`, waits for them to answer
``/healthz``, then runs a :class:`~repro.fleet.router.FleetRouter` on a
dedicated event-loop thread.  Clients talk to ``(host, port)`` exactly as they
would to one gateway; everything behind the router is the fleet's business.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.fleet.manager import FleetConfig, FleetManager
from repro.fleet.router import FleetRouter, RouterConfig
from repro.server.http import BackgroundServer

__all__ = ["BackgroundRouter", "BackgroundFleet"]


class BackgroundRouter(BackgroundServer):
    """Run a :class:`FleetRouter` on a dedicated event-loop thread."""

    def __init__(self, router: FleetRouter) -> None:
        self.router = router
        super().__init__(router, thread_name="repro-fleet-router")


class BackgroundFleet:
    """A whole fleet — replica processes plus routing frontend — as one
    synchronous context manager.

    Parameters
    ----------
    replicas:
        Replica-process count.
    cache_dir:
        The shared cache-tier directory (required; see
        :class:`~repro.fleet.manager.FleetConfig`).
    server_args:
        Extra ``python -m repro.server`` arguments for every replica.
    fleet_config, router_config:
        Full overrides; ``replicas``/``cache_dir``/``server_args`` are
        ignored when ``fleet_config`` is given.
    """

    def __init__(
        self,
        replicas: int = 2,
        cache_dir: str = "",
        server_args: Sequence[str] = (),
        fleet_config: Optional[FleetConfig] = None,
        router_config: Optional[RouterConfig] = None,
    ) -> None:
        config = fleet_config or FleetConfig(
            replicas=replicas, cache_dir=cache_dir, server_args=tuple(server_args)
        )
        self.manager = FleetManager(config)
        self._router_harness: Optional[BackgroundRouter] = None
        try:
            self.manager.start(wait_healthy=True)
            router = FleetRouter(
                self.manager.addresses,
                router_config or RouterConfig(host=config.host, port=0),
            )
            self._router_harness = BackgroundRouter(router)
        except BaseException:
            self.stop()
            raise
        self._stopped = False

    @property
    def router(self) -> FleetRouter:
        assert self._router_harness is not None
        return self._router_harness.router

    @property
    def host(self) -> str:
        return self.manager.config.host

    @property
    def port(self) -> int:
        """The router's bound port — the fleet's single client-facing address."""
        assert self._router_harness is not None
        return self._router_harness.port

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the router first (drains client traffic), then the replicas."""
        if getattr(self, "_stopped", False):
            return
        self._stopped = True
        try:
            if self._router_harness is not None:
                self._router_harness.stop(timeout=timeout)
        finally:
            self.manager.stop(timeout=timeout)

    def __enter__(self) -> "BackgroundFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
