"""The package's public surface: every exported name resolves, so a stale
entry in ``truncbound._EXPORTS`` fails here rather than on first use."""

import importlib

import pytest

import truncbound


@pytest.mark.parametrize("name", truncbound.__all__)
def test_exported_name_resolves_lazily(name):
    value = truncbound.__getattr__(name)      # the lazy path, even once cached
    module = truncbound._MODULE_OF.get(name)
    if module is None:                         # a submodule
        assert value is importlib.import_module(f"truncbound.{name}")
    else:
        assert value is getattr(importlib.import_module(f"truncbound.{module}"), name)
    assert getattr(truncbound, name) is value
