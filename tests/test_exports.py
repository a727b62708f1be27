"""Every name a ``repro`` module lists in ``__all__`` exists.

A stale ``__all__`` entry only breaks ``from module import *``, which
nothing else in the suite exercises, so each package and module is
imported and its exports resolved here.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert missing == []
