"""The library defines nothing that only tests call.

Every top-level function and class of ``src/skpval``, and every method of
those classes, must be referenced by name from some library module other
than ``__init__`` (its own module counts).  A function or class is
referenced by a name (``f(...)``) or an attribute (``module.f``), a method
by an attribute alone (``x.f``), so a local variable that shares a
method's name does not count.  Matching is by name, so a method is covered
by any ``.name`` in the library.  Dunder methods are called by the language
and are not checked.

Stored attributes likewise: every ``__slots__`` name of a library class, and
every ``self.x = ...`` in its ``__init__``, must be read as ``.x`` somewhere
in the library.

A ``_``-prefixed module-level name is private to its module: no other
library module imports it (``from .ordgroup import _x``) or reads it
(``ordgroup._x``).

Every name the benchmark's tracer wraps (``TRACED`` in ``bench/tracer.py``)
must still resolve to a callable of the library, the README's library
quick tour runs as written, and the keys of its problem-file examples are
the keys of the problem schemas.
"""

import ast
import importlib.util
import re
from pathlib import Path

import skpval
from skpval import jsonio

SRC = Path(skpval.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"

# Names kept without a library caller, each for a stated reason.
ALLOWED = {
    "euclidean_expand": "the benchmark tracer wraps it by name",
    "monic_divide": "the benchmark tracer wraps it by name",
    "value_via_euclidean": "the benchmark's euclid_values workload and the public API",
    "GF": "the public API for prime fields",
    "subgroup_index": "the paper's index, checked against the oracles",
    "canonical_representation": "the paper's canonical representation, checked against the oracles",
    "AdicExpansion.evaluate": "the round-trip checks multiply an expansion back out",
    "SkpTable.monomial_poly": "the benchmark tracer wraps it by name, and the public API",
}

# Stored attributes kept without a library reader, each for a stated reason.
ALLOWED_STORED = {
    "VerificationFailedError.offending": "the counterexample, an error payload for callers",
}


def _definitions(tree):
    """(qualified name, bare name, is a method) of each top-level def and
    class, and of each method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name, True


def _stored(tree):
    """(qualified name, bare name) of each ``__slots__`` name and each
    ``self.x = ...`` in ``__init__`` of the top-level classes."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
            ):
                for name in ast.literal_eval(item.value):
                    yield f"{cls.name}.{name}", name
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                for node in ast.walk(item):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                    ):
                        yield f"{cls.name}.{node.attr}", node.attr


def _library_trees():
    return [
        ast.parse(p.read_text(), filename=str(p))
        for p in sorted(SRC.glob("*.py"))
        if p.name != "__init__.py"
    ]


def _unread():
    trees = _library_trees()
    read = {
        n.attr
        for tree in trees
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    return sorted(
        {qualified for tree in trees for qualified, name in _stored(tree) if name not in read}
    )


def _unreferenced():
    trees = _library_trees()
    nodes = [node for tree in trees for node in ast.walk(tree)]
    attributes = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    names = attributes | {n.id for n in nodes if isinstance(n, ast.Name)}
    return sorted(
        qualified
        for tree in trees
        for qualified, name, method in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in (attributes if method else names)
    )


def test_every_definition_has_a_library_caller():
    missing = [q for q in _unreferenced() if q not in ALLOWED]
    assert missing == [], f"defined but called only from outside the library: {missing}"


def test_allowlist_is_current():
    # an allowlisted name that gained a library caller, or was deleted,
    # leaves the list
    assert sorted(ALLOWED) == [q for q in _unreferenced() if q in ALLOWED]


def test_every_stored_attribute_is_read():
    unread = [q for q in _unread() if q not in ALLOWED_STORED]
    assert unread == [], f"stored but never read in the library: {unread}"


def test_stored_allowlist_is_current():
    assert sorted(ALLOWED_STORED) == [q for q in _unread() if q in ALLOWED_STORED]


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _library_module(node):
    """The library module an ``ImportFrom`` reads from, None for another
    package or for the package itself (``from . import x``)."""
    name = node.module or ""
    if node.level == 0:
        if not name.startswith("skpval."):
            return None
        name = name[len("skpval."):]
    return name or None


def _private_reaches():
    """(importing module, "source._name") of each private name that a
    library module imports from, or reads off, another library module."""
    modules = {p.stem for p in SRC.glob("*.py")}
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}  # local name -> the library module it is bound to
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = _library_module(node)
            for alias in node.names:
                if source is not None and _is_private(alias.name):
                    out.append((path.stem, f"{source}.{alias.name}"))
                if source is None and (node.level or node.module == "skpval"):
                    if alias.name in modules:
                        imported[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in imported
                and _is_private(node.attr)
            ):
                out.append((path.stem, f"{imported[node.value.id]}.{node.attr}"))
    return sorted(set(out))


def test_no_module_reaches_into_another_modules_private_names():
    assert _private_reaches() == []


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps these by name, so deleting one breaks it
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, path, _, _ in tracer.TRACED:
        obj = importlib.import_module(f"skpval.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{module}.{path}")
    assert tracer.TRACED
    assert missing == []


def test_readme_quick_tour_runs():
    # the "Library quick tour" block, with the results its comments name
    section = (ROOT / "README.md").read_text().split("## Library quick tour\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    tour = {}
    exec(block, tour)
    f, v = tour["f"], tour["v"]
    assert tour["value_of"](f, v) == skpval.GroupValue((9,))
    expansion = tour["adic_expand"](f, v)
    assert [m.key for m in expansion] == [(((1, 3), 1),), (((0, 1), 3), ((1, 1), 1))]


def _schema_keys(form):
    """Every key that ``form`` declares, at any depth."""
    if isinstance(form, jsonio.Object):
        keys = set(form.entries)
        for _, inner in form.entries.values():
            keys |= _schema_keys(inner)
        return keys
    if isinstance(form, jsonio.Array):
        return _schema_keys(form.item)
    return _schema_keys(form.value) if isinstance(form, jsonio.Map) else set()


def test_readme_problem_keys_are_the_schema_keys():
    # the "Problem files" examples show every key of the three tables (and
    # of a prime field's object), and no other
    section = (ROOT / "README.md").read_text().split("### Problem files\n", 1)[1]
    block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    shown = set(re.findall(r'"([a-z_][a-z0-9_]*)"\s*:', block))
    tables = (jsonio.SKP, jsonio.REALIZE, jsonio.CLASSIFY, jsonio.PRIME)
    assert shown == set().union(*map(_schema_keys, tables))
