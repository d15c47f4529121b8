"""Every exported name resolves, so `from stream_mwm import *` works and a
deleted name cannot linger in an export list."""

import importlib
import pkgutil

import pytest

import stream_mwm

MODULES = ["stream_mwm"] + [
    f"stream_mwm.{info.name}"
    for info in pkgutil.iter_modules(stream_mwm.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
