"""Every public function, class and method of the package has a caller in
the package itself, and every defaulted parameter of a public function or
method, and every defaulted field of a public dataclass, is passed by one, so
no API or knob lives on only because a test calls or sets it. A defaulted
parameter is also left out by at least one call in the package, so no default
lives on only for tests while every package call overrides it: a knob's
default lives in ``cli.RunConfig``, and the kernels take their values as
arguments. Every field of a public dataclass is read by an attribute access
somewhere in the package, unless the dataclass is written whole into an
artifact, so no result state lives on that no stage reads.

A name counts as called when the same identifier appears as a name or an
attribute anywhere in ``src/tweetdyn`` outside its own definition. The match
is by identifier alone, so it can miss an unused name that shares its
identifier with a used one; it never flags a name that is in use. Re-exports
in ``__init__.py`` do not count as calls. Parameters are matched the same
way, by the callee's identifier. A dataclass field is a keyword of the
class's constructor, at its place among the fields ``__init__`` takes; a
field declared with ``init=False`` is not one. A call through ``*`` or ``**``
unpacking counts both as passing a parameter and as leaving it out. The
rule that some call leave a default out holds for dataclass fields as for
parameters. A parameter or field with no call site in the package is left
to the rule that it be passed.
"""

import ast
from collections import Counter
from pathlib import Path

import tweetdyn

SRC = Path(tweetdyn.__file__).parent

# Public names with no caller inside the package, each with the caller that
# keeps it. None is left: the tests score clusterings with their own
# adjusted Rand index (tests/scoring.py).
ALLOWED: dict[str, str] = {}

# Defaulted parameters and dataclass fields that no call in the package
# passes, each with the caller that sets them or why they are not a knob.
ALLOWED_DEFAULTS = {
    "cli.main.argv": "the tweetdyn console script, which calls main() to parse sys.argv",
}


# Public dataclasses that ``cli._json_text`` writes whole into an artifact or
# manifest, so a field no code reads by name still reaches a file.
WRITTEN_WHOLE = {
    "cli.RunConfig": "every manifest records the config it ran under",
    "ingest.ParseReport": "parse_report.json, one report per input table",
    "spectral.FourierTerm": "the fourier_terms of clusters_spectral.json",
    "timeseries.LinearFit": "model1 and model2 of changepoint.json",
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


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _uncalled():
    trees = _trees()
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


def _defaulted_parameters(node, is_method):
    """(positional index or None, name) of each parameter with a default;
    a method's index does not count ``self`` or ``cls``."""
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    if is_method and not static:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        yield index, positional[index].arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _passes(call, index, name):
    """Whether ``call`` sets the parameter: by keyword, by enough positional
    arguments, or through ``*``/``**`` unpacking."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def _callee(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if "dataclass" in (getattr(target, "id", None), getattr(target, "attr", None)):
            return True
    return False


def _defaulted_fields(node):
    """(positional index, name) of each field of a dataclass that its
    ``__init__`` takes with a default."""
    index = 0
    for item in node.body:
        if not isinstance(item, ast.AnnAssign) or not isinstance(item.target, ast.Name):
            continue
        value = item.value
        if isinstance(value, ast.Call) and _callee(value) == "field":
            options = {k.arg: k.value for k in value.keywords}
            init = options.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = "default" in options or "default_factory" in options
        else:
            defaulted = value is not None
        if defaulted:
            yield index, item.target.id
        index += 1


def _defaults_and_sites():
    """(dotted name, positional index, name, calls of its owner in the
    package) of each defaulted parameter and dataclass field."""
    trees = _trees()
    calls = [n for t in trees.values() for n in ast.walk(t) if isinstance(n, ast.Call)]
    for module, tree in trees.items():
        for name, node in _public_definitions(tree):
            if isinstance(node, ast.FunctionDef):
                defaulted = _defaulted_parameters(node, "." in name)
            elif _is_dataclass(node):
                defaulted = _defaulted_fields(node)
            else:
                continue
            ident = name.rsplit(".", 1)[-1]
            own = {id(n) for n in ast.walk(node)}
            sites = [c for c in calls if _callee(c) == ident and id(c) not in own]
            for index, param in defaulted:
                yield f"{module}.{name}.{param}", index, param, sites


def _unpassed():
    return [
        name
        for name, index, param, sites in _defaults_and_sites()
        if not any(_passes(c, index, param) for c in sites)
    ]


def test_every_defaulted_parameter_is_passed_in_the_package():
    unpassed = _unpassed()
    assert [n for n in unpassed if n not in ALLOWED_DEFAULTS] == []
    # an entry whose parameter is gone or now passed is stale
    assert sorted(ALLOWED_DEFAULTS) == sorted(unpassed)


def _omits(call, index, name):
    """Whether ``call`` leaves the parameter at its default; a call through
    ``*``/``**`` unpacking may."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None for k in call.keywords):
        return True
    if any(k.arg == name for k in call.keywords):
        return False
    return index is None or len(call.args) <= index


def test_every_default_is_left_out_by_a_call_in_the_package():
    always_passed = [
        name
        for name, index, param, sites in _defaults_and_sites()
        if sites and not any(_omits(c, index, param) for c in sites)
    ]
    assert always_passed == []


def _unread_fields():
    """Fields of public dataclasses that no attribute access in the package
    reads, matched by name alone as calls are."""
    trees = _trees()
    reads = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    out = []
    for module, tree in trees.items():
        for name, node in _public_definitions(tree):
            if not isinstance(node, ast.ClassDef) or not _is_dataclass(node):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    if item.target.id not in reads:
                        out.append((f"{module}.{name}", item.target.id))
    return out


def test_every_dataclass_field_is_read_in_the_package():
    unread = _unread_fields()
    assert [f"{c}.{f}" for c, f in unread if c not in WRITTEN_WHOLE] == []
    # an entry with no unread field left is stale
    assert sorted(WRITTEN_WHOLE) == sorted({c for c, _ in unread})
