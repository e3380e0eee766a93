"""docs/CONFIG.md must document every directive the parser accepts.

The parser treats unknown directives as hard errors, so the set it
accepts is exactly ``known_directives()``; this test fails when a
directive lacks a reference-table row (or when the table documents a
directive the parser no longer knows — stale docs are wrong docs).
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.core.config import known_directives, parse_config

DOC = Path(__file__).resolve().parents[2] / "docs" / "CONFIG.md"

# A table row whose first cell is a code-quoted directive name.
_ROW_RE = re.compile(r"^\|\s*`([a-z_]+)`", re.MULTILINE)


def documented_directives() -> set[str]:
    return set(_ROW_RE.findall(DOC.read_text("utf-8")))


def test_reference_exists():
    assert DOC.is_file(), "docs/CONFIG.md is the operator-facing reference"


def test_every_directive_has_a_doc_row():
    missing = known_directives() - documented_directives()
    assert not missing, (
        f"directives missing from docs/CONFIG.md: {sorted(missing)} — "
        "add a reference-table row for each"
    )


def test_no_stale_doc_rows():
    stale = documented_directives() - known_directives()
    assert not stale, (
        f"docs/CONFIG.md documents unknown directives: {sorted(stale)} — "
        "the parser rejects these, drop or fix the rows"
    )


def test_documented_defaults_parse():
    """The docstring example block stays parseable (smoke, not a diff)."""
    sample = "\n".join(
        line for line in (
            'accepted_credentials "/O=Grid/OU=People/CN=*"',
            "storage_segment_max_bytes 33554432",
            "storage_compact_ratio 0.5",
            "storage_cache_entries 1024",
            "storage_compact_interval 0",
        )
    )
    config = parse_config(sample)
    assert config.storage.segment_max_bytes == 32 * 1024 * 1024


def test_one_engine_means_no_backend_directive():
    """``storage_backend`` is gone: a stale config line fails loudly
    instead of silently selecting nothing."""
    import pytest

    from repro.util.errors import ConfigError

    assert "storage_backend" not in known_directives()
    with pytest.raises(ConfigError, match="storage_backend"):
        parse_config("storage_backend segments")


def doc_rows() -> dict[str, list[str]]:
    """Directive name → its reference-table cells (type, default, flag, meaning)."""
    rows = {}
    for line in DOC.read_text("utf-8").splitlines():
        match = _ROW_RE.match(line)
        if match:
            rows[match.group(1)] = [cell.strip() for cell in line.split("|")[2:-1]]
    return rows


def test_flag_cells_name_the_generated_flag():
    from repro.core.config import DIRECTIVES, cli_flag

    rows = doc_rows()
    wrong = {
        d.name: rows[d.name][2]
        for d in DIRECTIVES
        if rows[d.name][2] != (f"`{cli_flag(d)}`" if d.flag else "—")
    }
    assert not wrong, f"CLI flag cells disagree with myproxy-server: {wrong}"


def test_numeric_default_cells_match_the_table():
    from repro.core.config import DIRECTIVES, INTEGER, NUMBER, directive_default

    def spelled(value: float) -> str:
        return str(int(value)) if float(value).is_integer() else str(value)

    rows = doc_rows()
    wrong = {}
    for d in DIRECTIVES:
        default = directive_default(d)
        if d.kind not in (NUMBER, INTEGER) or default is None:
            continue  # "off" / derived defaults carry no number to compare
        spans = re.findall(r"`([^`]*)`", rows[d.name][1])
        expected = spelled(default / d.unit)
        if not spans or spans[0] != expected:
            wrong[d.name] = (rows[d.name][1], expected)
    assert not wrong, f"Default cells disagree with the config defaults: {wrong}"
