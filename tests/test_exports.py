"""Public names: every export listed in a module's ``__all__`` exists on it,
and every exported class and function is defined in the module that exports
it, so each public name has one home."""
import importlib
import inspect

import pytest

MODULES = ("cdassim", "cdassim.sde", "cdassim.cstr", "cdassim.config", "cdassim.harness",
           *(f"cdassim.filters.{name}" for name in ("beliefs", "enkf", "kalman", "linalg",
                                                    "pf", "runner", "unscented")))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_class_and_function_is_defined_where_exported(name):
    module = importlib.import_module(name)
    exported = (getattr(module, attr) for attr in module.__all__)
    # constants are skipped: they carry no __module__ of their own
    foreign = {obj.__name__: obj.__module__ for obj in exported
               if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ != name}
    assert not foreign, f"{name}.__all__ re-exports {foreign}"
