"""Every name a module exports resolves, so a deletion cannot leave a
dangling entry in __all__."""

import importlib
import pkgutil

import pytest

import fngd

MODULES = ["fngd"] + [f"fngd.{m.name}" for m in pkgutil.iter_modules(fngd.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_package_root_exports_only_the_version():
    # each function has one name, in its submodule
    assert fngd.__all__ == ["__version__"]
