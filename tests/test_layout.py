"""The package holds what runs: every top-level definition in ``src/pcpgames``
is reached from code in ``src``, ``scripts`` or ``perfbench``.

A definition only the tests reach belongs in ``tests/oracles.py`` (or
``conftest.py``).  Code outside the package runs, and so do the package's
statements that define nothing (imports, ``if __name__`` blocks); a
definition runs when an ``ast.Name`` or ``ast.Attribute`` node in running
code other than its own body names it, or when ``__init__.py`` re-exports
it.  The match is by bare name, so the check can miss an unreached
definition that shares its name with a reached one; a definition reached
only through ``getattr`` with a string would need a place in ``KEPT``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pcpgames"
SEARCHED = ("src", "scripts", "perfbench")

# Kept in src with no caller there, each with the ROADMAP item or acceptance criterion it serves.
KEPT = {
    "pcp.serialize_instance": "item 7: the header hash of self-checking certificates",
}


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _named(node: ast.AST) -> set[str]:
    """The names ``node`` reads: loaded names and attribute names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unreached(roots=frozenset()) -> list[str]:
    """``module.name`` of each package definition that running code never names.

    The definitions in ``roots`` count as running code too.
    """
    definitions = {}  # module.name -> (name, defining statement)
    running = set()  # names read by code outside the package or by statements defining nothing
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in tree.body:
                names = _named(node)
                if path == PACKAGE / "__init__.py" and isinstance(node, ast.ImportFrom):
                    names |= {alias.name for alias in node.names}
                in_package = path.parent == PACKAGE and path.name != "__init__.py"
                defined = _defined_names(node) if in_package else []
                for name in defined:
                    definitions[f"{path.stem}.{name}"] = (name, node)
                if not defined:
                    running |= names
    reached = {q for q in roots if q in definitions}
    frontier = set(reached) | {q for q, (name, _) in definitions.items() if name in running}
    while frontier:
        reached |= frontier
        read_by = [(definitions[q][1], _named(definitions[q][1])) for q in frontier]
        frontier = {
            q for q, (name, node) in definitions.items()
            if q not in reached and any(name in names for other, names in read_by if other is not node)
        }
    return sorted(set(definitions) - reached)


def test_every_package_definition_is_reached_outside_the_tests():
    unused = unreached(frozenset(KEPT))
    assert not unused, "reached only from tests (move them to tests/oracles.py): " + ", ".join(unused)


def test_kept_definitions_still_wait_for_a_caller():
    # A kept name that gains a caller, or goes away, leaves KEPT.
    unused = set(unreached())
    assert set(KEPT) <= unused, sorted(set(KEPT) - unused)
