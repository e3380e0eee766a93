"""Logger factory.

One namespace (``repro``) for the whole package, silent by default (library
convention), with a helper to switch on human-readable diagnostics in
examples and the CLI tools.
"""

from __future__ import annotations

import logging
import sys

_ROOT = "repro"


class _Stderr(logging.StreamHandler):
    """Writes to ``sys.stderr`` as it is at each record: a stream swapped
    out since the handler was made may have been closed."""

    stream = property(lambda self: sys.stderr, lambda self, stream: None)


def get_logger(name: str) -> logging.Logger:
    """Return the package logger for a dotted subsystem name."""
    if name.startswith(_ROOT):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT}.{name}")


def configure_cli_logging(verbose: bool = False) -> None:
    """Route package logs to stderr for command-line tools."""
    handler = _Stderr()
    handler.setFormatter(
        logging.Formatter("%(asctime)s %(levelname)-7s %(name)s: %(message)s")
    )
    root = logging.getLogger(_ROOT)
    root.handlers[:] = [handler]
    root.setLevel(logging.DEBUG if verbose else logging.INFO)


logging.getLogger(_ROOT).addHandler(logging.NullHandler())
