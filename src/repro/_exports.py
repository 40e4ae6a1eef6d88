"""Package re-exports resolved on first access (PEP 562).

Every package ``__init__`` that re-exports names from its modules declares
them in one table, ``{module: names}``, and installs the ``__getattr__``
built here.  Importing a package then imports none of its modules: the first
read of an exported name imports the one module that defines it and stores
the value on the package, so every later read is a plain attribute hit.  A
name the table does not hold is looked up as a submodule (``repro.cluster``
after ``import repro``); anything else raises :class:`AttributeError`.

A fresh interpreter therefore compiles only the modules its run reaches; see
``docs/architecture.md`` ("What a process imports").
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping


def lazy_exports(package: str, table: Mapping[str, tuple[str, ...]]) -> Callable[[str], Any]:
    """The module ``__getattr__`` of ``package``, resolving ``table`` lazily.

    ``table`` maps a module path (relative to ``package`` when it starts
    with a dot) to the names the package re-exports from it.
    """
    owners = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is not None:
            value = getattr(import_module(module, package), name)
        else:
            submodule = f"{package}.{name}"
            try:
                value = import_module(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
