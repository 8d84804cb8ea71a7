"""Package namespaces that import a submodule when one of its names is used.

A package's ``__init__`` hands :func:`lazy_exports` its ``globals()`` and
a table of which submodule defines each public name::

    __getattr__, __dir__ = lazy_exports(globals(), {
        ".server": ("GatewayConfig", "GatewayServer"),
    })

Importing the package then imports none of them.  The first
``package.GatewayServer`` (or ``from package import GatewayServer``)
imports ``.server`` (PEP 562 module ``__getattr__``) and stores the
object in the package's globals, so later lookups never come back here.
A process thus loads only the submodules whose names it uses: a
volunteer's ``from repro.gateway import run_volunteer`` loads no server
module and no numpy.
"""

from __future__ import annotations

import importlib
import typing as _t


def lazy_exports(namespace: dict[str, _t.Any],
                 sources: dict[str, tuple[str, ...]]
                 ) -> tuple[_t.Callable[[str], _t.Any],
                            _t.Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    *namespace*: each name in *sources* (relative submodule -> the names
    it defines) resolves from its submodule on first access; any other
    name raises :class:`AttributeError`."""
    package = namespace["__name__"]
    home = {name: module for module, names in sources.items()
            for name in names}

    def __getattr__(name: str) -> _t.Any:
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(home[name], package), name)
        namespace[name] = value
        return value

    return __getattr__, lambda: sorted(namespace.keys() | home.keys())
