"""The package's public names."""

import importlib

import pytest

import twoatom


def test_every_public_name_resolves_once():
    assert len(set(twoatom.__all__)) == len(twoatom.__all__)
    assert set(twoatom.__all__) <= set(dir(twoatom))
    for name in twoatom.__all__:
        # resolved lazily, each name is its submodule's own object, defined there
        module = importlib.import_module(f"twoatom.{twoatom._SOURCE[name]}")
        value = getattr(twoatom, name)
        assert value is getattr(module, name)
        if getattr(value, "__module__", "").startswith("twoatom."):
            assert value.__module__ == module.__name__
    with pytest.raises(AttributeError, match="no attribute 'evolve'"):
        twoatom.evolve
