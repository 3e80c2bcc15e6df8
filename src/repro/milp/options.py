"""MILP solver options, kept free of the numerical stack.

:class:`SolverOptions` travels in every job spec, so modules that only
describe, fingerprint or route jobs import it from here without loading
scipy; :mod:`repro.milp.solver` re-exports it for the backends.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping


@dataclasses.dataclass(frozen=True)
class SolverOptions:
    """Options shared by all MILP backends.

    The dataclass is frozen so that option sets are hashable and can key
    caches (see :mod:`repro.service.jobs`); use :meth:`replace` to derive
    variants.

    Attributes
    ----------
    backend:
        ``"highs"`` (scipy/HiGHS branch-and-cut, default) or ``"branch-bound"``
        (pure-Python reference implementation).
    time_limit:
        Wall-clock limit in seconds, or ``None`` for no limit.  The budget
        covers matrix lowering, not just backend time.
    mip_gap:
        Relative optimality gap at which the solver may stop.
    max_nodes:
        Node budget for the branch-and-bound backend.
    verbose:
        Enable backend log output.

    :meth:`as_dict` also carries two keys that are always ``True``, left from
    two options that are gone: job fingerprints hash it, so dropping the keys
    would change every fingerprint and orphan every cache entry.
    :meth:`from_dict` drops them.
    """

    backend: str = "highs"
    time_limit: float | None = None
    mip_gap: float | None = None
    max_nodes: int = 200_000
    verbose: bool = False

    def replace(self, **changes) -> "SolverOptions":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (stable key order)."""
        return {
            "backend": self.backend,
            "time_limit": self.time_limit,
            "mip_gap": self.mip_gap,
            "max_nodes": self.max_nodes,
            "verbose": self.verbose,
            "presolve": True,
            "warm_start": True,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SolverOptions":
        """Rebuild options from :meth:`as_dict` output."""
        known = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})
