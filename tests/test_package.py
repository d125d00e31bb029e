import ast
import importlib
import inspect
from pathlib import Path

import pytest

import vgsolve
from vgsolve import engine, geometry, graph, mining


def test_public_names_are_the_modules_all_lists():
    exported = {
        name for name, value in vars(vgsolve).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    listed = set()
    for module in (engine, geometry, graph, mining):
        assert all(hasattr(module, name) for name in module.__all__)
        listed.update(module.__all__)
    assert exported == listed


def test_retired_calculus_module_and_helpers_are_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("vgsolve.calculus")
    for name in ("commutation_matrix", "elimination_matrix", "vech_sym_operator"):
        assert not hasattr(vgsolve, name)
        assert not hasattr(geometry, name)


def test_rank_threshold_and_prime_are_not_parameters():
    # one validated configuration: DEFAULT_TOLERANCE and DEFAULT_PRIME
    for fn in (vgsolve.finite_solvability, vgsolve.maximal_components, vgsolve.mine_minimal,
               vgsolve.density_sweep, vgsolve.is_full_column_rank, vgsolve.null_space_basis):
        assert "tolerance" not in inspect.signature(fn).parameters, fn.__name__
    assert "prime" not in inspect.signature(vgsolve.finite_field_rank).parameters
    assert (vgsolve.DEFAULT_TOLERANCE, vgsolve.DEFAULT_PRIME) == (1e-8, 1_000_000_007)


def test_mining_imports_only_public_engine_names():
    # mining reaches the decision through engine's public functions alone
    tree = ast.parse(Path(mining.__file__).read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and (node.level, node.module) in ((1, "engine"), (0, "vgsolve.engine"))
             for alias in node.names]
    assert names and not [name for name in names if name.startswith("_")]
