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

Duplicate work is collapsed at three layers: the ring sends repeats of a job
to one replica, that replica's micro-batcher dedups concurrent identical
misses in-process, and the cache tier's per-fingerprint lock files
(:mod:`repro.service.cache`) give cross-replica single-flight for duplicates
that arrive at different replicas anyway.

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
