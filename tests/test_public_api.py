"""Every public function, class and method of the package has a caller in
the package itself, so no API lives on only because a test calls it.

A name counts as called when the same identifier appears as a name or an
attribute anywhere in ``src/tweetdyn`` outside its own definition. The match
is by identifier alone, so it can miss an unused name that shares its
identifier with a used one; it never flags a name that is in use. Re-exports
in ``__init__.py`` do not count as calls.
"""

import ast
from collections import Counter
from pathlib import Path

import tweetdyn

SRC = Path(tweetdyn.__file__).parent

# Public names with no caller inside the package, each with the caller that
# keeps it.
ALLOWED = {
    "compare.adjusted_rand_index": (
        "library users scoring a clustering against synth's planted labels "
        "(README, Library); perfbench keeps its own copy"
    ),
    "timeseries.DayWindow.contains": (
        "the window test of the reference build_documents in tests/reference_loops.py"
    ),
}


def _public_definitions(tree):
    """(dotted name, node) of each public top-level function and class and
    of each public method of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _identifiers(node):
    """Names and attribute names used under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _uncalled():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    uses = Counter(i for tree in trees.values() for i in _identifiers(tree))
    out = []
    for module, tree in trees.items():
        for name, node in _public_definitions(tree):
            ident = name.rsplit(".", 1)[-1]
            own = sum(i == ident for i in _identifiers(node))
            if uses[ident] == own:
                out.append(f"{module}.{name}")
    return out


def test_every_public_name_has_a_caller_in_the_package():
    uncalled = _uncalled()
    assert [n for n in uncalled if n not in ALLOWED] == []
    # an entry whose name is gone or now called is stale
    assert sorted(ALLOWED) == sorted(uncalled)
