"""PROTOCOL.md §6 must tabulate exactly the fields the codec knows.

``repro.core.protocol.FIELDS`` declares each request field once, and every
codec loops over it; this test fails when §6's field table names a field
the table does not hold, misses one, or disagrees on a field's JSON key,
its commands or whether a GET_MULTI item carries it — as
``test_config_docs.py`` does for ``docs/CONFIG.md``.  Likewise for
replies: §6's reply table must list each ``REPLY_FIELDS`` reply with its
keys in each binding, and its key table each key's one kind.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.core.protocol import (
    FIELDS, GSI, HTTP, MAX_JSON_DIGITS, MAX_NAME, REPLY_FIELDS, Reply,
)

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


# -- replies: §6's reply table and key-kind table against REPLY_FIELDS ---------

# A reply-table row: | `NAME` | answers | GSI keys or — | HTTP keys or — |
_REPLY_ROW_RE = re.compile(r"^\|\s*`([A-Z_]+)`\s*\|([^|]+)\|([^|]+)\|([^|]+)\|$", re.MULTILINE)
# A key-kind row: | `key`, `key` | kind... |
_KIND_ROW_RE = re.compile(r"^\|\s*((?:`[A-Za-z_]+`(?:,\s*)?)+)\s*\|\s*([^|]+?)\s*\|$", re.MULTILINE)


def _keys(cell: str) -> list[tuple[str, bool]]:
    """``(key, optional)`` for each key a cell names; ``—`` names none."""
    return [(key, mark == "?") for key, mark in re.findall(r"`([A-Za-z_]+)`(\??)", cell)]


def documented_replies() -> dict[str, tuple[str, list, list]]:
    return {
        name: (answers.strip(), _keys(gsi), _keys(http))
        for name, answers, gsi, http in _REPLY_ROW_RE.findall(section_6())
        if name in Reply.__members__
    }


def documented_kinds() -> dict[str, str]:
    return {
        key: kind
        for keys, kind in _KIND_ROW_RE.findall(section_6())
        for key in re.findall(r"`([A-Za-z_]+)`", keys)
    }


def test_every_reply_has_a_row_with_its_keys_in_order():
    rows = documented_replies()
    assert set(rows) == {reply.name for reply in Reply}
    for reply in Reply:
        answers, gsi, http = rows[reply.name]
        assert reply.answers in answers, reply
        assert gsi == [(f.gsi, f.optional) for f in reply.carried[GSI]], reply
        assert http == [(f.json, f.optional) for f in reply.carried[HTTP]], reply


def test_every_reply_key_has_its_one_kind():
    kinds: dict[str, str] = {}
    for fields in REPLY_FIELDS.values():
        for f in fields:
            for key in filter(None, (f.gsi, f.json)):
                assert kinds.setdefault(key, f.kind) == f.kind, f"{key} has two kinds"
    documented = documented_kinds()
    assert set(documented) == set(kinds)
    wrong = {key: cell for key, cell in documented.items() if not cell.startswith(kinds[key])}
    assert not wrong, f"§6 kind cells disagree with REPLY_FIELDS: {wrong}"
