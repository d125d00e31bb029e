import inspect

import vgsolve
from vgsolve import calculus, engine, geometry, graph, mining


def test_public_names_are_the_modules_all_lists():
    exported = {
        name for name, value in vars(vgsolve).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    listed = set()
    for module in (calculus, engine, geometry, graph, mining):
        assert all(hasattr(module, name) for name in module.__all__)
        listed.update(module.__all__)
    assert exported == listed
