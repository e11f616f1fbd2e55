"""Lazy package re-exports (PEP 562).

A package ``__init__`` declares which names it re-exports from which
submodule; the submodule is imported the first time one of its names is
read, and the value is cached in the package namespace so later reads
are plain attribute lookups.  ``import repro`` therefore loads nothing a
run does not execute, while ``from repro.core import JetsDispatcher``,
``repro.obs.build_spans`` and ``from repro.analysis import *`` keep
working.

One rule: a re-exported name that is also the name of a submodule (the
``session`` function of :mod:`repro.obs` and its ``repro.obs.session``
module) must be imported eagerly in the ``__init__``.  The import system
binds a freshly loaded submodule onto its package, so a lazy name would
resolve to the module or the function depending on which import ran
first.
"""

from __future__ import annotations

import importlib

__all__ = ["lazy_exports"]


def lazy_exports(package: str, namespace: dict, exports: dict):
    """PEP 562 hooks for ``package``.

    ``exports`` maps a relative submodule name (``".jets"``) to the names
    re-exported from it.  Returns ``(__all__, __getattr__, __dir__)`` for
    the package to bind at module level; ``__all__`` is every exported
    name, sorted.
    """
    where = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return sorted(where), __getattr__, __dir__
