"""Lazy package exports (PEP 562), the one idiom every ``__init__`` uses.

A package lists its public names in ``__all__`` and declares where each
one is defined; the defining module is imported the first time one of
its names is read, and the value is cached in the package namespace so
later reads are plain global lookups.  ``from pkg import name``,
``from pkg import *`` and ``dir(pkg)`` all go through the same hooks.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], table: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair for a package namespace.

    *table* maps each defining module to the names it exports.
    """
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | where.keys())

    return __getattr__, __dir__
