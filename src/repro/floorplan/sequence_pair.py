"""Sequence-pair representation of a placement.

The HO ("Heuristic Optimal") algorithm of [10] extracts the sequence pair of a
first feasible solution and uses it as an additional constraint: for every pair
of areas the relative position (left-of / right-of / below / above) implied by
the sequence pair is fixed, which replaces the pairwise non-overlap rows of
the MILP by one row per pair and shrinks the search space dramatically.

Section II.A of the 2015 paper notes that when relocation is used as a
constraint under HO, the heuristic input must also place the free-compatible
areas so that the sequence pair naturally covers them too — which is exactly
how :class:`~repro.floorplan.ho.HOSeeder` uses this module.

Performance notes
-----------------
Every query goes through *memoized match positions*: the ``name -> index``
maps of the two sequences are computed once per pair and cached on the
instance, so :meth:`SequencePair.relation` is O(1) and
:meth:`SequencePair.relations` is O(n^2) total (it used to rebuild both maps
on every pairwise query).  :meth:`SequencePair.pack` evaluates a sequence
pair into packed coordinates with the O(n log n) longest-common-subsequence
algorithm (FAST-SP style, a Fenwick tree over match positions) instead of
building and longest-path-ing the O(n^2) horizontal/vertical constraint
graphs.  :meth:`SequencePair.from_rects` runs on plain adjacency sets with an
incremental reachability check rather than a ``networkx`` digraph per call.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.floorplan.geometry import Rect

#: Relative positions encoded by a sequence pair.
RELATION_LEFT = "left"
RELATION_RIGHT = "right"
RELATION_BELOW = "below"
RELATION_ABOVE = "above"


@dataclasses.dataclass(frozen=True)
class SequencePair:
    """A sequence pair ``(Gamma+, Gamma-)`` over a set of area names.

    The classic semantics are used:

    * ``a`` before ``b`` in both sequences       -> ``a`` is left of ``b``;
    * ``a`` before ``b`` only in ``Gamma-``      -> ``a`` is below ``b``;
    * the two remaining cases are the mirror images.
    """

    gamma_plus: Tuple[str, ...]
    gamma_minus: Tuple[str, ...]

    def __post_init__(self) -> None:
        if set(self.gamma_plus) != set(self.gamma_minus):
            raise ValueError("the two sequences must contain the same names")
        if len(set(self.gamma_plus)) != len(self.gamma_plus):
            raise ValueError("sequence pair entries must be unique")

    # ------------------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        """Area names in ``Gamma+`` order."""
        return self.gamma_plus

    def _positions(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Memoized ``name -> index`` maps of the two sequences."""
        cached = self.__dict__.get("_position_cache")
        if cached is None:
            cached = (
                {name: i for i, name in enumerate(self.gamma_plus)},
                {name: i for i, name in enumerate(self.gamma_minus)},
            )
            # the dataclass is frozen; the cache is derived state, not a field
            object.__setattr__(self, "_position_cache", cached)
        return cached

    def relation(self, a: str, b: str) -> str:
        """Relative position of ``a`` with respect to ``b``."""
        if a == b:
            raise ValueError("relation of an area with itself is undefined")
        pos_plus, pos_minus = self._positions()
        before_plus = pos_plus[a] < pos_plus[b]
        before_minus = pos_minus[a] < pos_minus[b]
        if before_plus and before_minus:
            return RELATION_LEFT
        if not before_plus and not before_minus:
            return RELATION_RIGHT
        if not before_plus and before_minus:
            return RELATION_BELOW
        return RELATION_ABOVE

    def relations(self) -> Dict[Tuple[str, str], str]:
        """Relation for every ordered pair ``(a, b)`` with ``a != b``."""
        pos_plus, pos_minus = self._positions()
        result = {}
        mirror = {
            RELATION_LEFT: RELATION_RIGHT,
            RELATION_BELOW: RELATION_ABOVE,
        }
        for i, a in enumerate(self.gamma_plus):
            pa_minus = pos_minus[a]
            for b in self.gamma_plus[i + 1 :]:
                # a precedes b in Gamma+ by construction
                relation = RELATION_LEFT if pa_minus < pos_minus[b] else RELATION_ABOVE
                result[(a, b)] = relation
                result[(b, a)] = mirror.get(relation, RELATION_BELOW)
        return result

    def is_consistent_with(self, rects: Mapping[str, Rect]) -> bool:
        """Whether a placement satisfies every relation of the pair."""
        pos_minus = self._positions()[1]
        for i, a in enumerate(self.gamma_plus):
            if a not in rects:
                continue
            ra = rects[a]
            pa_minus = pos_minus[a]
            for b in self.gamma_plus[i + 1 :]:
                if b not in rects:
                    continue
                rb = rects[b]
                if pa_minus < pos_minus[b]:
                    if not ra.col_end < rb.col:  # a left of b
                        return False
                elif not rb.row_end < ra.row:  # a above b
                    return False
        return True

    # ------------------------------------------------------------------
    def pack(
        self,
        widths: Mapping[str, int],
        heights: Mapping[str, int],
    ) -> Dict[str, Tuple[int, int]]:
        """Minimal packed bottom-left coordinates realizing the pair.

        The classic sequence-pair evaluation: each name's x-coordinate is the
        weighted longest common subsequence of the two sequences restricted to
        the names before it in *both* orders, and symmetrically for y with
        ``Gamma+`` reversed.  Computed in O(n log n) per axis with a Fenwick
        tree holding prefix maxima over match positions — no constraint graph
        is ever built.

        Returns a ``name -> (x, y)`` mapping; the resulting placement
        satisfies every relation of the pair with rectangles of the given
        extents touching edge-to-edge.
        """
        pos_minus = self._positions()[1]
        xs = _pack_axis(self.gamma_plus, pos_minus, widths)
        ys = _pack_axis(tuple(reversed(self.gamma_plus)), pos_minus, heights)
        return {name: (xs[name], ys[name]) for name in self.gamma_plus}

    def packed_rects(
        self,
        widths: Mapping[str, int],
        heights: Mapping[str, int],
    ) -> Dict[str, Rect]:
        """:meth:`pack` with the extents folded into :class:`Rect` objects."""
        return {
            name: Rect(x, y, widths[name], heights[name])
            for name, (x, y) in self.pack(widths, heights).items()
        }

    # ------------------------------------------------------------------
    @staticmethod
    def from_rects(rects: Mapping[str, Rect]) -> "SequencePair":
        """Extract a sequence pair consistent with a non-overlapping placement.

        Pairs whose rectangles overlap in rows (or columns) have their
        relation dictated by the placement and are inserted first.  Pairs
        separated in *both* axes ("diagonal" pairs) admit two valid relations;
        picking one per pair in isolation can create a cyclic combined order
        even for valid placements, so each diagonal pair is resolved against
        the partial orders built so far (horizontal separation preferred,
        falling back to vertical when the horizontal choice would close a
        cycle).

        Raises
        ------
        ValueError
            If two rectangles overlap (no separating direction exists).
        """
        names = sorted(rects.keys())
        forced: List[Tuple[str, str, str]] = []
        flexible: List[Tuple[str, str, Tuple[str, str]]] = []
        for i, a in enumerate(names):
            ra = rects[a]
            for b in names[i + 1 :]:
                rb = rects[b]
                horizontal = _horizontal_relation(ra, rb)
                vertical = _vertical_relation(ra, rb)
                if horizontal is None and vertical is None:
                    raise ValueError(
                        f"rectangles {a!r} ({ra}) and {b!r} ({rb}) overlap; "
                        "a sequence pair requires a non-overlapping placement"
                    )
                if horizontal is not None and vertical is not None:
                    flexible.append((a, b, (horizontal, vertical)))
                else:
                    forced.append((a, b, horizontal or vertical))

        # Gamma+ partial order: a < b when a left-of b OR a above b.
        # Gamma- partial order: a < b when a left-of b OR a below b.
        graph_plus = _Digraph(names)
        graph_minus = _Digraph(names)
        for a, b, relation in forced:
            _add_relation_edges(graph_plus, graph_minus, a, b, relation)
        if not (graph_plus.is_acyclic() and graph_minus.is_acyclic()):
            raise ValueError("placement induces contradictory forced relations")

        for a, b, candidates in flexible:
            for relation in candidates:
                if _relation_is_safe(graph_plus, graph_minus, a, b, relation):
                    _add_relation_edges(graph_plus, graph_minus, a, b, relation)
                    break
            else:
                raise ValueError(
                    f"could not order areas {a!r} and {b!r} without a cycle"
                )

        gamma_plus = tuple(graph_plus.lexicographic_toposort())
        gamma_minus = tuple(graph_minus.lexicographic_toposort())
        return SequencePair(gamma_plus=gamma_plus, gamma_minus=gamma_minus)

    @staticmethod
    def from_floorplan(floorplan) -> "SequencePair":
        """Extract the sequence pair of a solved floorplan (regions + FC areas)."""
        rects = {p.name: p.rect for p in floorplan.all_placements()}
        return SequencePair.from_rects(rects)


# ----------------------------------------------------------------------
# packing internals
# ----------------------------------------------------------------------
class _PrefixMaxTree:
    """Fenwick tree over ``0..size-1`` answering prefix-max queries."""

    __slots__ = ("size", "tree")

    def __init__(self, size: int) -> None:
        self.size = size
        self.tree = [0] * (size + 1)

    def update(self, index: int, value: int) -> None:
        """Raise the stored maximum at ``index`` to at least ``value``."""
        index += 1
        while index <= self.size:
            if self.tree[index] < value:
                self.tree[index] = value
            index += index & (-index)

    def query(self, index: int) -> int:
        """Maximum over positions ``0..index`` (inclusive); 0 when empty."""
        best = 0
        index += 1
        while index > 0:
            if self.tree[index] > best:
                best = self.tree[index]
            index -= index & (-index)
        return best


def _pack_axis(
    order: Sequence[str],
    pos_minus: Mapping[str, int],
    extents: Mapping[str, int],
) -> Dict[str, int]:
    """Coordinates along one axis via weighted-LCS over match positions.

    Processing names in ``order``, each name's coordinate is the largest
    ``coordinate + extent`` among already-processed names whose ``Gamma-``
    match position precedes its own — exactly the names that must stay on the
    smaller-coordinate side along this axis.
    """
    tree = _PrefixMaxTree(len(order))
    coords: Dict[str, int] = {}
    for name in order:
        position = pos_minus[name]
        coordinate = tree.query(position - 1) if position > 0 else 0
        coords[name] = coordinate
        tree.update(position, coordinate + extents[name])
    return coords


# ----------------------------------------------------------------------
# extraction internals
# ----------------------------------------------------------------------
class _Digraph:
    """Minimal successor-set digraph: exactly what ``from_rects`` needs."""

    __slots__ = ("nodes", "succ")

    def __init__(self, nodes: Iterable[str]) -> None:
        self.nodes: List[str] = list(nodes)
        self.succ: Dict[str, Set[str]] = {node: set() for node in self.nodes}

    def add_edge(self, src: str, dst: str) -> None:
        self.succ[src].add(dst)

    def has_path(self, src: str, dst: str) -> bool:
        """Depth-first reachability (``src == dst`` counts as reachable)."""
        if src == dst:
            return True
        seen = {src}
        stack = [src]
        while stack:
            for nxt in self.succ[stack.pop()]:
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def _indegrees(self) -> Dict[str, int]:
        indegree = {node: 0 for node in self.nodes}
        for targets in self.succ.values():
            for target in targets:
                indegree[target] += 1
        return indegree

    def is_acyclic(self) -> bool:
        """Kahn's algorithm: every node must be consumable."""
        indegree = self._indegrees()
        ready = [node for node, degree in indegree.items() if degree == 0]
        consumed = 0
        while ready:
            node = ready.pop()
            consumed += 1
            for target in self.succ[node]:
                indegree[target] -= 1
                if indegree[target] == 0:
                    ready.append(target)
        return consumed == len(self.nodes)

    def lexicographic_toposort(self) -> List[str]:
        """Topological order, smallest available name first (deterministic)."""
        indegree = self._indegrees()
        ready = [node for node, degree in indegree.items() if degree == 0]
        heapq.heapify(ready)
        order: List[str] = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for target in sorted(self.succ[node]):
                indegree[target] -= 1
                if indegree[target] == 0:
                    heapq.heappush(ready, target)
        if len(order) != len(self.nodes):
            raise ValueError("graph contains a cycle; no topological order exists")
        return order


def _horizontal_relation(ra: Rect, rb: Rect) -> str | None:
    """``a``'s horizontal relation to ``b``, or ``None`` if columns overlap."""
    if ra.col_end < rb.col:
        return RELATION_LEFT
    if rb.col_end < ra.col:
        return RELATION_RIGHT
    return None


def _vertical_relation(ra: Rect, rb: Rect) -> str | None:
    """``a``'s vertical relation to ``b``, or ``None`` if rows overlap."""
    if ra.row_end < rb.row:
        return RELATION_BELOW
    if rb.row_end < ra.row:
        return RELATION_ABOVE
    return None


#: Edge directions each relation of ``(a, b)`` adds to ``(Gamma+, Gamma-)``:
#: True = edge a->b, False = edge b->a.
_RELATION_EDGES = {
    RELATION_LEFT: (True, True),
    RELATION_RIGHT: (False, False),
    RELATION_BELOW: (False, True),
    RELATION_ABOVE: (True, False),
}


def _add_relation_edges(
    graph_plus: _Digraph, graph_minus: _Digraph, a: str, b: str, relation: str
) -> None:
    forward_plus, forward_minus = _RELATION_EDGES[relation]
    graph_plus.add_edge(a, b) if forward_plus else graph_plus.add_edge(b, a)
    graph_minus.add_edge(a, b) if forward_minus else graph_minus.add_edge(b, a)


def _relation_is_safe(
    graph_plus: _Digraph, graph_minus: _Digraph, a: str, b: str, relation: str
) -> bool:
    """Whether adding the relation's edges keeps both partial orders acyclic."""
    forward_plus, forward_minus = _RELATION_EDGES[relation]
    plus_src, plus_dst = (a, b) if forward_plus else (b, a)
    minus_src, minus_dst = (a, b) if forward_minus else (b, a)
    return not graph_plus.has_path(plus_dst, plus_src) and not graph_minus.has_path(
        minus_dst, minus_src
    )
