"""The package's public names, and the memos it is allowed to keep."""

import ast
import importlib
from pathlib import Path

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


MEMO_NAMES = {"lru_cache", "cache", "cached_property"}

# every memo in src/twoatom, as (module, function) -> its decorator, and why
ALLOWED_MEMOS = {
    # resolve_observable and the Hamiltonian dump re-read the model just built
    ("analysis", "build_model"): "lru_cache(maxsize=1)",
    # Gauss-Legendre nodes and projections, read on every quadrature pass
    ("perturbation", "_gauss"): "lru_cache(maxsize=4)",
    ("perturbation", "_projection"): "lru_cache(maxsize=4)",
    # the Chebyshev series reads the bounds several times per series
    ("operators", "spectral_bounds"): "cached_property",
    # the stacked factor, which only the benchmark's layer table reads
    ("operators", "sqrt_factor"): "cached_property",
}


def test_no_memo_beyond_the_allowlist():
    found, uses = {}, 0
    for path in sorted(Path(twoatom.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            name = getattr(node, "id", getattr(node, "attr", None))
            uses += isinstance(node, (ast.Name, ast.Attribute)) and name in MEMO_NAMES
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    text = ast.unparse(decorator)
                    if text.split("(")[0].split(".")[-1] in MEMO_NAMES:
                        found[(path.stem, node.name)] = text
    assert found == ALLOWED_MEMOS
    # no memo applied other than as a decorator, e.g. lru_cache()(f)
    assert uses == len(found)
