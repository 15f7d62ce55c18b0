"""Shared fixtures and session hooks for the cdassim test suite."""
import os
from pathlib import Path

import pytest

import cdassim

# Directory that holds the imported cdassim package, resolved once at import
# time (before any test changes the working directory), so that a child
# interpreter imports the same package whether it is installed or found
# through a relative PYTHONPATH such as ``src``.
PACKAGE_PARENT = str(Path(cdassim.__file__).resolve().parent.parent)
TESTS = Path(__file__).resolve().parent
UNIT_MODULES = sorted(p.name for p in TESTS.glob("test_*.py") if p.name != "test_acceptance.py")


def _child_env(**extra: str) -> dict:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_PARENT, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def child_env():
    """Build a subprocess environment: ``os.environ`` plus the given variables,
    with the tested package's parent directory first on ``PYTHONPATH``."""
    return _child_env


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(items):
    # unit tests first, then the acceptance tests, criterion 8 last
    items.sort(key=lambda it: (it.path.name == "test_acceptance.py", "criterion_08" in it.name))


class UnitSession:
    """What this session did with the unit modules (every test module but the
    acceptance one), for criterion 8: those it ran whole, those it leaves to
    criterion 8's child pytest, and the node ids of their failed collections
    and test phases."""

    def __init__(self):
        self.ran, self.leftover, self.failures, self.deselected = [], [], [], set()

    def pytest_deselected(self, items):
        self.deselected.update(item.path.name for item in items)

    def pytest_collection_finish(self, session):
        # a module named with a test id on the command line was not collected whole
        named = {Path(arg.split("::")[0]).name for arg in session.config.args if "::" in arg}
        whole = {item.path.name for item in session.items} - self.deselected - named
        self.ran = [name for name in UNIT_MODULES if name in whole]
        self.leftover = [TESTS / name for name in UNIT_MODULES if name not in whole]

    def pytest_runtest_logreport(self, report):
        if report.failed and Path(report.fspath).name in UNIT_MODULES:
            self.failures.append(report.nodeid)

    pytest_collectreport = pytest_runtest_logreport


def pytest_configure(config):
    config.pluginmanager.register(UnitSession(), "unit_session")
