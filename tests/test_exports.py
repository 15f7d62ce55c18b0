"""Public names: every export listed in a module's ``__all__`` exists on it."""
import importlib

import pytest

MODULES = ("cdassim", "cdassim.sde", "cdassim.cstr", "cdassim.config", "cdassim.harness",
           *(f"cdassim.filters.{name}" for name in ("beliefs", "enkf", "kalman", "linalg",
                                                    "pf", "runner", "unscented")))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
