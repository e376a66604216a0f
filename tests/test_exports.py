"""Every name in the ``__all__`` of kppspeed and of each of its modules
exists, so that ``from kppspeed import *`` cannot fail on a deleted name."""

import importlib
import pkgutil

import pytest

import kppspeed

MODULES = ["kppspeed"] + [f"kppspeed.{m.name}" for m in pkgutil.iter_modules(kppspeed.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
