"""The examples in the module docstrings run and give the printed output."""

import doctest
import importlib
import pkgutil

import pytest

import alcovepaths

MODULES = sorted(m.name for m in pkgutil.iter_modules(alcovepaths.__path__))
# modules whose docstrings carry examples, which must keep them
WITH_EXAMPLES = {"affine", "lattice", "qbg", "weylgroup"}


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"alcovepaths.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0
    if name in WITH_EXAMPLES:
        assert result.attempted > 0


@pytest.mark.parametrize("name", MODULES)
def test_public_names_exist(name):
    # perfbench/recorder.py wraps these names and skips a missing one silently
    module = importlib.import_module(f"alcovepaths.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
