"""Lazy package exports (PEP 562).

A package that re-exports names from its submodules would import every
submodule on its own import, and a search imports only some of them.
:func:`lazy_exports` gives a package a module ``__getattr__`` over a
name -> defining submodule table instead: the first read of a public
name imports its submodule and caches the value in the package, so
every public name stays and later reads are plain attribute lookups.

A function or class that shares its submodule's name cannot be lazy:
importing the submodule binds the package attribute to the submodule
itself.  Such a package imports that name eagerly (``repro.core``
imports ``grid_search``).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(
    package: str,
    names: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``.

    ``names`` maps each submodule (relative to ``package``) to the
    public names it defines; every entry of ``submodules`` is exported
    as the submodule itself.
    """
    table = {name: name for name in submodules}
    for submodule, defined in names.items():
        table.update(dict.fromkeys(defined, submodule))

    def __getattr__(name: str) -> Any:
        try:
            submodule = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(f"{package}.{submodule}")
        value = module if submodule == name else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return list(table), __getattr__, __dir__
