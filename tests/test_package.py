import importlib
import inspect

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
