"""CLI-test housekeeping.

The tools call :func:`repro.util.logging.configure_cli_logging`, which
installs a stderr handler.  The thread and error gate (``tests/conftest.py``)
puts the ``repro`` loggers back after each test; a module-scoped fixture
that runs a tool is undone here, when the module ends, so the servers it
started do not log into the rest of the run.
"""

import logging

import pytest


@pytest.fixture(scope="module", autouse=True)
def _restore_repro_logging():
    root = logging.getLogger("repro")
    saved_handlers = list(root.handlers)
    saved_level = root.level
    yield
    root.handlers[:] = saved_handlers
    root.setLevel(saved_level)
