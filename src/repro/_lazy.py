"""Lazy package exports (PEP 562).

A package lists which submodule defines each name it re-exports, and
:func:`lazy_exports` returns the module-level ``__getattr__`` and ``__dir__``
that import that submodule on first access.  ``import repro`` then loads no
submodule, ``from repro import X`` loads only the one that defines ``X``, and
``from repro import *``, ``hasattr`` and ``dir()`` behave as with eager
imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps each submodule's full name to the names it provides.  A
    resolved name is stored in the package namespace, so later lookups do not
    reach ``__getattr__`` again.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
