"""Every name a module exports through __all__ exists."""

import importlib

import pytest

MODULES = ["algebra", "cli", "contraction", "dsl", "errors", "exact", "modes",
           "specfun"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"coset_forge.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
