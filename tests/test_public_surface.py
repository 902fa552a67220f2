"""Every name a ``repro`` module lists in ``__all__`` exists.

A name deleted from a module but left in its ``__all__`` breaks
``from repro.<module> import *`` for users, and nothing else would
notice.  Every module is imported, so one that fails to import fails the
test too.
"""

import importlib
import pkgutil

import repro


def _refuse(name):
    raise ImportError(f"cannot import package {name}")


def test_every_all_name_resolves():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.",
                                          onerror=_refuse)
    ]
    exported = {}
    missing = []
    for name in names:
        module = importlib.import_module(name)
        listed = getattr(module, "__all__", None)
        if listed is None:
            continue
        exported[name] = listed
        missing += [
            f"{name}.{attr}" for attr in listed
            if not isinstance(attr, str) or not hasattr(module, attr)
        ]
    assert not missing, f"__all__ names that do not exist: {missing}"
    assert {"repro.api", "repro.flow", "repro.core", "repro.opt"} <= set(
        exported
    )
