"""repro.fleet: a sharded multi-process solver fleet.

One machine, N replica processes, one front door.  The pieces:

* :mod:`repro.fleet.manager` — spawn and supervise N ``repro.server`` gateway
  processes (health checks, crash restart with exponential backoff) sharing
  one on-disk cache tier.
* :mod:`repro.fleet.hashing` — the consistent-hash ring that gives every job
  fingerprint an owning replica (and a deterministic failover chain).
* :mod:`repro.fleet.router` — the stdlib-asyncio frontend that routes each
  job, by the fingerprint its body decodes to (or its decode-memo entry
  holds), to its owner over keep-alive upstream pools, retries on the
  next replica when an upstream is down, and serves the fleet-wide
  ``/metrics`` roll-up.
* :mod:`repro.fleet.harness` — :class:`BackgroundFleet`, the synchronous
  manager-plus-router harness the tests, benchmarks and examples share.

Duplicate work is collapsed at two layers: the ring sends repeats of a job
to one replica, and that replica's micro-batcher joins concurrent identical
misses onto one solve.  The shared cache directory
(:mod:`repro.service.cache`) is a result store, not a lock: identical misses
sent to two replica ports directly, past the router, may be solved twice.

Quickstart::

    python -m repro.fleet --replicas 4 --cache-dir /tmp/fleet-cache
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.fleet.hashing": ["DEFAULT_VNODES", "HashRing"],
    "repro.fleet.manager": ["FleetConfig", "FleetManager", "Replica"],
    "repro.fleet.router": [
        "FleetRouter",
        "RouterConfig",
        "UpstreamError",
        "UpstreamPool",
    ],
    "repro.fleet.harness": ["BackgroundRouter", "BackgroundFleet"],
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
