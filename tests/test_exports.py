"""Every exported name resolves, so star imports cannot fail."""

import importlib
import pkgutil

import pytest

import relpoisson

MODULES = ["relpoisson"] + [
    f"relpoisson.{info.name}" for info in pkgutil.iter_modules(relpoisson.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    exported = getattr(importlib.import_module(name), "__all__", ())
    assert set(exported) <= set(namespace)
