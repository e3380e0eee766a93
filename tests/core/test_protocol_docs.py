"""PROTOCOL.md §6 must tabulate exactly the request fields the codec knows.

``repro.core.protocol.FIELDS`` declares each request field once, and every
codec loops over it; this test fails when §6's field table names a field
the table does not hold, misses one, or disagrees on a field's JSON key,
its commands or whether a GET_MULTI item carries it — as
``test_config_docs.py`` does for ``docs/CONFIG.md``.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.core.protocol import FIELDS, MAX_JSON_DIGITS, MAX_NAME

DOC = Path(__file__).resolve().parents[2] / "PROTOCOL.md"

# A §6 field-table row: | `GSI` | `json` or — | kind | commands | item |
_ROW_RE = re.compile(
    r"^\|\s*`([A-Z_]+)`\s*\|\s*(?:`([a-z_]+)`|—)\s*\|.*\|\s*([^|]+?)\s*\|\s*(yes|—)\s*\|$",
    re.MULTILINE,
)


def section_6() -> str:
    text = DOC.read_text("utf-8")
    return text[text.index("## 6. "):text.index("## 7. ")]


def documented_rows() -> dict[str, tuple[str | None, str, bool]]:
    return {
        gsi: (json_key or None, commands, item == "yes")
        for gsi, json_key, commands, item in _ROW_RE.findall(section_6())
    }


def test_every_field_has_a_row_and_no_row_is_stale():
    assert set(documented_rows()) == {f.gsi for f in FIELDS}


def test_json_keys_match():
    rows = documented_rows()
    assert {gsi: row[0] for gsi, row in rows.items()} == {f.gsi: f.json for f in FIELDS}


def test_item_keys_match():
    documented = {row[0] for row in documented_rows().values() if row[2]}
    assert documented == {f.json for f in FIELDS if f.item}


def test_command_cells_match():
    rows = documented_rows()
    wrong = {
        f.gsi: rows[f.gsi][1]
        for f in FIELDS
        if rows[f.gsi][1] != (
            "every" if f.commands is None
            else ", ".join(c.name for c in sorted(f.commands))
        )
    }
    assert not wrong, f"§6 command cells disagree with FIELDS: {wrong}"


def test_the_rules_beside_the_table_are_stated():
    text = " ".join(section_6().split())
    assert f"hold at most {MAX_NAME} characters" in text
    assert f"integer literals of at most {MAX_JSON_DIGITS} digits" in text
    assert "a deeper nest is refused" in text
    assert "a seconds field a JSON number" in text
