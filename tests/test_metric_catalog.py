"""The metrics catalog in ``docs/observability.md`` matches the code.

Every instrument ``src/`` declares (``counter_handle``, ``gauge_handle``,
``histogram_handle``) has a catalog row of the same kind, and every row
names a declared instrument.  A templated family (``core.mesh.<op>`` in
the catalog, an f-string ``f"core.mesh.{name}"`` in the code) is matched
by its prefix.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DECLARATION = re.compile(r'\b(counter|gauge|histogram)_handle\(\s*f?"([^"]+)"')
#: a catalog row: its name cell (one name, or ``a.b.c`` / ``.d`` for
#: siblings ``a.b.c`` and ``a.b.d``) and its kind
ROW = re.compile(r"\| (`[^|]+) \| (counter|gauge|histogram) \|")


def _declared() -> set[tuple[str, str]]:
    found = set()
    for path in (ROOT / "src").rglob("*.py"):
        for kind, name in DECLARATION.findall(path.read_text()):
            found.add((name, kind))
    return found


def _catalog() -> set[tuple[str, str]]:
    text = (ROOT / "docs" / "observability.md").read_text()
    section = text.split("### Catalog", 1)[1].split("\n## ", 1)[0]
    rows = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            match = ROW.match(line)
            assert match, f"catalog row without a kind: {line!r}"
            cell, kind = match.groups()
            first, *siblings = re.findall(r"`([^`]+)`", cell)
            base = first.rsplit(".", 1)[0]
            rows.update((name, kind) for name in [first, *(base + s for s in siblings)])
    return rows


def _covers(a: tuple[str, str], b: tuple[str, str]) -> bool:
    """Same kind, and the same name or one a family the other falls in."""
    (name_a, kind_a), (name_b, kind_b) = a, b
    if kind_a != kind_b:
        return False
    prefix_a, prefix_b = re.split(r"[{<]", name_a)[0], re.split(r"[{<]", name_b)[0]
    if prefix_a != name_a and name_b.startswith(prefix_a):
        return True
    return name_a == name_b or (prefix_b != name_b and name_a.startswith(prefix_b))


def test_every_declared_instrument_has_a_catalog_row():
    rows = _catalog()
    missing = sorted(d for d in _declared() if not any(_covers(r, d) for r in rows))
    assert not missing, f"declared but not in docs/observability.md's catalog: {missing}"


def test_every_catalog_row_is_declared():
    declared = _declared()
    assert len(declared) > 40, "the declaration scan found too few instruments"
    stale = sorted(r for r in _catalog() if not any(_covers(r, d) for d in declared))
    assert not stale, f"catalog rows no code declares: {stale}"
