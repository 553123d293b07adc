"""Every name a module exports in ``__all__`` exists, so a deleted function
cannot stay listed."""
import importlib

import pytest

MODULES = ["ssfx", "ssfx.models", "ssfx.nn", "ssfx.data", "ssfx.io", "ssfx.features",
           "ssfx.evaluation"]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists undefined names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
