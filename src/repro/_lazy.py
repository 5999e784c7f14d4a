"""Lazy package re-exports (PEP 562) for the ``repro`` subpackages.

Each subpackage ``__init__`` names its public API once, in an
``_EXPORTS`` table of ``{submodule: (name, ...)}``, and derives the rest
from it::

    _EXPORTS = {
        ".engine": ("Environment", "Event"),
        "..obs.metrics": ("TimeWeightedValue",),
    }
    __all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

A re-exported name's submodule is imported the first time the name is
looked up on the package (``repro.sim.Environment``, ``from repro.sim
import Environment`` or ``from repro.sim import *``), and the value is
then cached in the package namespace.  Importing a package therefore
costs nothing until a name is used, and a run pays only for the
submodules it reaches.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(
    package: str, table: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package`` from ``table``.

    ``table`` maps a module path relative to ``package`` to the names it
    re-exports; a name may appear under only one module.  A name spelled
    like its own submodule (``repro.core.percentiles.percentiles``) is
    bound at once: importing that submodule later would otherwise set the
    module object over the package attribute.
    """
    owner: dict[str, str] = {}
    for module, names in table.items():
        for name in names:
            if name in owner:
                raise ValueError(
                    f"{package}: {name!r} exported by both {owner[name]!r} "
                    f"and {module!r}"
                )
            owner[name] = module
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owner))

    for name, module in owner.items():
        if module.rpartition(".")[2] == name:
            __getattr__(name)
    return list(owner), __getattr__, __dir__
