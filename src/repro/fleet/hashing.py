"""Consistent-hash routing of solve-job fingerprints to fleet replicas.

The router maps every :class:`~repro.service.jobs.SolveJob` fingerprint to an
*owning* replica so each hot cache entry has one home: repeat requests for the
same job land on the replica whose in-memory LRU already holds it, and
concurrent identical misses meet in one process where the micro-batcher joins
them onto one solve.  The ring plus the batcher's join is the fleet's
single-flight; there is no cross-replica lock.

A :class:`HashRing` hashes each node into ``vnodes`` points on a 64-bit ring
(SHA-256, so placement is deterministic across processes and Python runs —
``hash()`` randomization would re-shard the fleet every restart).  A key is
owned by the first node point clockwise from the key's hash.  Virtual nodes
smooth the load split; removing a node only remaps the keys it owned (~1/N of
the space) instead of reshuffling everything, which is what keeps replica
restarts from stampeding the warm caches of the survivors.

:meth:`HashRing.preference` yields *distinct* nodes in ring order starting at
the owner — the router's retry order when an upstream is down, chosen so every
key has the same deterministic failover chain.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterator, List, Sequence, Tuple

__all__ = ["HashRing", "DEFAULT_VNODES"]

#: Virtual-node count per physical node; 64 keeps the max/min load ratio of a
#: 4-replica fleet under ~1.3 while the ring stays a few hundred entries.
DEFAULT_VNODES = 64


def _point(label: str) -> int:
    """64-bit ring position of a label (stable across processes)."""
    return int.from_bytes(
        hashlib.sha256(label.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """A consistent-hash ring over named nodes.

    Parameters
    ----------
    nodes:
        Node names (for the fleet: ``"host:port"`` upstream addresses).
        Order does not matter — placement depends only on the names.
    vnodes:
        Ring points per node.
    """

    def __init__(self, nodes: Sequence[str], vnodes: int = DEFAULT_VNODES) -> None:
        if not nodes:
            raise ValueError("a hash ring needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"duplicate node names: {sorted(nodes)}")
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        self.nodes: Tuple[str, ...] = tuple(nodes)
        self.vnodes = vnodes
        points: List[Tuple[int, str]] = []
        for node in self.nodes:
            for index in range(vnodes):
                points.append((_point(f"{node}#{index}"), node))
        points.sort()
        self._points = [point for point, _node in points]
        self._owners = [node for _point, node in points]

    # ------------------------------------------------------------------
    def owner(self, key: str) -> str:
        """The node owning ``key`` (first ring point clockwise of its hash)."""
        index = bisect.bisect_right(self._points, _point(key)) % len(self._points)
        return self._owners[index]

    def preference(self, key: str) -> Iterator[str]:
        """All nodes in deterministic failover order for ``key``.

        Starts at the owner and walks the ring, yielding each *distinct* node
        once — the router tries these in order until an upstream answers.
        """
        start = bisect.bisect_right(self._points, _point(key)) % len(self._points)
        seen = set()
        for offset in range(len(self._points)):
            node = self._owners[(start + offset) % len(self._points)]
            if node not in seen:
                seen.add(node)
                yield node
                if len(seen) == len(self.nodes):
                    return

    def spread(self, keys: Sequence[str]) -> Dict[str, int]:
        """How many of ``keys`` each node owns (balance diagnostics)."""
        counts: Dict[str, int] = {node: 0 for node in self.nodes}
        for key in keys:
            counts[self.owner(key)] += 1
        return counts

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"HashRing({list(self.nodes)!r}, vnodes={self.vnodes})"
