"""Resource types and resource accounting.

The paper expresses region requirements directly in *tiles per type*
(Table I: CLB tiles, BRAM tiles, DSP tiles), so the canonical resource unit in
this reproduction is "one tile of type t".  :class:`ResourceVector` is a small
immutable mapping used both for requirements (``Region.requirements``) and for
capacities (device/area coverage).
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, Iterable, Iterator, Mapping, Tuple


class ResourceType(enum.Enum):
    """Heterogeneous resource classes found on the reconfigurable fabric."""

    CLB = "CLB"
    BRAM = "BRAM"
    DSP = "DSP"
    IO = "IO"
    PROC = "PROC"  # hard processor / non-reconfigurable macro

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @classmethod
    def from_string(cls, name: str) -> "ResourceType":
        """Parse a resource type from its (case-insensitive) name."""
        try:
            return cls[name.upper()]
        except KeyError as exc:
            raise ValueError(f"unknown resource type {name!r}") from exc


class ResourceVector:
    """An immutable multiset of resources, keyed by :class:`ResourceType`.

    Supports the small algebra needed by the floorplanner: addition,
    subtraction (clamped at zero on request), scaling, and the component-wise
    comparison ``covers``.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Mapping[ResourceType, int] | None = None, **kwargs: int) -> None:
        merged: Dict[ResourceType, int] = {}
        for key, value in itertools.chain((counts or {}).items(), kwargs.items()):
            if not isinstance(key, ResourceType):
                key = ResourceType.from_string(str(key))
            if not value:
                continue
            if int(value) != value:
                raise ValueError(f"resource count for {key} must be integral, got {value!r}")
            merged[key] = merged.get(key, 0) + int(value)
        for key, value in merged.items():
            if value < 0:
                raise ValueError(f"negative resource count for {key}: {value}")
        self._counts: Dict[ResourceType, int] = merged

    # ------------------------------------------------------------------
    @staticmethod
    def zero() -> "ResourceVector":
        """The empty resource vector."""
        return ResourceVector()

    # ------------------------------------------------------------------
    def get(self, rtype: ResourceType) -> int:
        """Units of ``rtype`` (0 if absent)."""
        return self._counts.get(rtype, 0)

    def __getitem__(self, rtype: ResourceType) -> int:
        return self.get(rtype)

    def __iter__(self) -> Iterator[Tuple[ResourceType, int]]:
        return iter(sorted(self._counts.items(), key=lambda kv: kv[0].value))

    def types(self) -> Iterable[ResourceType]:
        """Resource types with a strictly positive count."""
        return [t for t, c in self if c > 0]

    @property
    def total(self) -> int:
        """Total number of resource units across all types."""
        return sum(self._counts.values())

    def is_zero(self) -> bool:
        """Whether all counts are zero."""
        return self.total == 0

    # ------------------------------------------------------------------
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        counts = dict(self._counts)
        for rtype, value in other._counts.items():
            counts[rtype] = counts.get(rtype, 0) + value
        return ResourceVector(counts)

    def subtract(self, other: "ResourceVector", clamp: bool = False) -> "ResourceVector":
        """Component-wise difference; with ``clamp`` negative entries become 0."""
        counts: Dict[ResourceType, int] = dict(self._counts)
        for rtype, value in other._counts.items():
            remaining = counts.get(rtype, 0) - value
            if remaining < 0 and not clamp:
                raise ValueError(
                    f"subtraction would make {rtype} negative ({remaining})"
                )
            counts[rtype] = max(0, remaining)
        return ResourceVector(counts)

    def __mul__(self, factor: int) -> "ResourceVector":
        if factor < 0:
            raise ValueError("cannot scale a ResourceVector by a negative factor")
        return ResourceVector({t: c * factor for t, c in self._counts.items()})

    __rmul__ = __mul__

    def covers(self, requirement: "ResourceVector") -> bool:
        """True if this vector has at least as many units of every type."""
        return all(self.get(t) >= c for t, c in requirement._counts.items())

    def deficit(self, requirement: "ResourceVector") -> "ResourceVector":
        """Resources missing to cover ``requirement`` (all-zero when covered)."""
        missing = {
            t: max(0, c - self.get(t)) for t, c in requirement._counts.items()
        }
        return ResourceVector(missing)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        keys = set(self._counts) | set(other._counts)
        return all(self.get(k) == other.get(k) for k in keys)

    def __hash__(self) -> int:
        return hash(tuple(sorted((t.value, c) for t, c in self._counts.items() if c)))

    def as_dict(self) -> Dict[str, int]:
        """Plain-string dictionary representation (for reports/serialization)."""
        return {t.value: c for t, c in self if c > 0}

    def __repr__(self) -> str:
        inner = ", ".join(f"{t.value}={c}" for t, c in self if c > 0)
        return f"ResourceVector({inner})"
