import importlib
import inspect

import pytest

MODULES = ["bell", "bridge", "expansion", "pscc", "specfun", "symcore", "zeta"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    # every listed name resolves, and every public function or class the
    # module defines is listed
    module = importlib.import_module(f"specexp.{name}")
    for listed in module.__all__:
        assert hasattr(module, listed), listed
    defined = {
        attr for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined - set(module.__all__) == set()
