import ast
import importlib
import inspect

import pytest

MODULES = ["bell", "bridge", "expansion", "pscc", "specfun", "symcore", "zeta"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    # every listed name resolves and is defined in the module itself, not
    # re-exported, and every public function or class the module defines is
    # listed
    module = importlib.import_module(f"specexp.{name}")
    for listed in module.__all__:
        assert hasattr(module, listed), listed
    top_level = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            top_level.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            top_level.update(t.id for t in targets if isinstance(t, ast.Name))
    assert set(module.__all__) - top_level == set()
    defined = {
        attr for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined - set(module.__all__) == set()
