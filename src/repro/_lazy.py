"""Lazy re-exports for the ``repro`` packages (PEP 562).

A package's ``__init__`` re-exports names from its submodules so users can
write ``from repro.trace import TaskTrace``.  Importing every submodule up
front would make ``import repro`` (and every command of the CLI) load the
whole simulator, so the packages resolve their re-exports on first
attribute access instead::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.trace.records": ("TaskTrace", "TaskRecord"),
    })

``from package import name``, ``from package import *`` and
``dir(package)`` behave as with eager imports; an unknown name raises
:class:`AttributeError`.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, table: Mapping[str, Sequence[str]],
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]],
                            List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps each submodule to the names the package re-exports from
    it; a name may also be a submodule of that module.  A resolved name is
    stored in the package's namespace, so only its first access goes through
    ``__getattr__``.
    """
    origin: Dict[str, str] = {name: module for module, names in table.items()
                              for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        source = importlib.import_module(module)
        try:
            value = getattr(source, name)
        except AttributeError:
            # As with ``from module import name``: a not-yet-imported
            # submodule of a (lazy) package.
            value = importlib.import_module(f"{module}.{name}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, list(origin)
