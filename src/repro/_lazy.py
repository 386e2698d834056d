"""PEP 562 lazy re-exports for package ``__init__`` modules.

A package re-exports names from its submodules so users can write
``from repro.core import GanaxMachine``.  Done eagerly, that import loads
every submodule (and everything they import, numpy included) even when the
caller only needs one of them.  :func:`lazy_exports` builds the module-level
``__getattr__`` and ``__dir__`` hooks that import a submodule the first time
one of its names is asked for, then bind the name in the package namespace so
later lookups are plain attribute reads::

    __all__ = ["GanaxMachine", ...]

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".machine": ("GanaxMachine", "MachineRunStatistics"),
        ...
    })

``from pkg import name`` and ``from pkg import *`` go through the same hook.
A lazy name must not equal a submodule's name: importing that submodule
would bind the module object over the name.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``.

    ``exports`` maps a relative submodule name (``".machine"``) to the names
    it provides.  Every exported name must already be listed in the package's
    ``__all__``, which stays the literal, complete export list.
    """
    namespace = sys.modules[package].__dict__
    origin = {name: submodule for submodule, names in exports.items() for name in names}
    unlisted = sorted(origin.keys() - set(namespace["__all__"]))
    if unlisted:
        raise ValueError(f"{package}: lazy exports missing from __all__: {unlisted}")

    def __getattr__(name: str) -> object:
        submodule = origin.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(submodule, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__
