"""The package's public names, its imports, and the memos it is allowed to keep."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import twoatom

SOURCES = sorted(Path(twoatom.__file__).parent.glob("*.py"))


def test_the_package_re_exports_nothing():
    # each public object has one import path, the submodule that defines it:
    # the package's only public attributes are the submodules imported so far
    importlib.import_module("twoatom.cli")
    importlib.import_module("twoatom.analysis")
    public = {name: value for name, value in vars(twoatom).items()
              if not name.startswith("_")}
    assert {"analysis", "cli"} <= set(public)
    for name, value in public.items():
        assert isinstance(value, types.ModuleType), name
        assert value.__name__ == f"twoatom.{name}"
    with pytest.raises(AttributeError):
        twoatom.probability_series


def test_every_module_level_import_is_used():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        bound = {(alias.asname or alias.name).split(".")[0]
                 for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names} - {"annotations"}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(bound - read)]
    assert unused == []


def test_every_private_definition_is_referenced():
    # a private helper serves the package alone: once its last caller goes,
    # it must go too
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    read = {getattr(node, "id", getattr(node, "attr", None))
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    defined = [f"{stem}.{node.name}" for stem, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert defined
    assert [name for name in defined if name.split(".")[1] not in read] == []


def test_no_module_reads_the_process_environment():
    # flags and the config file are the CLI's only inputs: no module reads
    # the environment, whether through os.environ or a name imported from os
    names = {"environ", "environb", "getenv", "getenvb"}
    found = [f"{path.stem}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Attribute) and node.attr in names)
             or (isinstance(node, ast.Name) and node.id in names)
             or (isinstance(node, ast.alias) and node.name in names)]
    assert found == []


MEMO_NAMES = {"lru_cache", "cache", "cached_property"}

# every memo in src/twoatom, as (module, function) -> its decorator, and why;
# HermitianOperator.spectral_bounds is none: the series reads it once and
# hands (lo, rho) on as values
ALLOWED_MEMOS = {
    # resolve_observable and the Hamiltonian dump re-read the model just built
    ("analysis", "build_model"): "lru_cache(maxsize=1)",
    # Gauss-Legendre nodes and projections, read on every quadrature pass
    ("perturbation", "_gauss"): "lru_cache(maxsize=4)",
    ("perturbation", "_projection"): "lru_cache(maxsize=4)",
    # the stacked factor, which only the benchmark's layer table reads
    ("operators", "sqrt_factor"): "cached_property",
}


def test_no_memo_beyond_the_allowlist():
    found, uses = {}, 0
    for path in SOURCES:
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
