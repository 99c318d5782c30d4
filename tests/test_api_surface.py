"""No public name of the package exists for the tests alone.

Every public top-level function and class of ``src/natforge/*.py``, and every
public method of those classes, must be reached from product code (the
package outside the name's own definition), from the benchmark in
``perfbench/``, or from the acceptance suite. Click commands count as
reached: the command line dispatches them by registration, not by name.

A reference is an identifier in code (a name, an attribute, an imported
name) or a string literal that is a whole dotted name, such as
``"OracleProvider.reward"``, since the benchmark's tracer names what it
patches in strings. Prose in messages and docstrings does not count.
Matching is by name only, so a method shares its name with every attribute
of that spelling: the check can miss dead code, but it never flags a name
that is in use.

Likewise every ``TrainConfig`` field must be set by the same code: it must
appear as a keyword of a ``TrainConfig(...)`` call or of a ``dict(...)``
call, which covers recipes splatted into the config. A value nothing but
its default and the unit tests sets is a constant, not a field. This check
too can miss a dead field, but it never flags a field that is set.

For the same reason every defaulted parameter of a public function or method
must be passed by that code, by keyword or by position, in some call to a
name of its spelling. A call that splats ``*args`` or ``**kwargs`` counts as
passing every parameter it could reach.
"""

import ast
import re
from collections import Counter
from dataclasses import fields
from pathlib import Path

from natforge.trainer import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "natforge"
USERS = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _references(tree: ast.AST) -> Counter:
    """Identifiers a tree refers to, counted once per occurrence."""
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED_NAME.fullmatch(node.value):
                refs.update(node.value.split("."))
    return refs


def _is_click_command(fn: ast.FunctionDef) -> bool:
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in fn.decorator_list
    )


def _public_definitions():
    """(module, qualified name, definition node) of every public name in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not _is_click_command(node):
                if not node.name.startswith("_"):
                    yield path.stem, node.name, node
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield path.stem, node.name, node
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.stem, f"{node.name}.{item.name}", item


def unreached_names() -> list[str]:
    package_refs = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        package_refs += _references(ast.parse(path.read_text()))
    user_refs = Counter()
    for path in USERS:
        user_refs += _references(ast.parse(path.read_text()))
    unreached = []
    for module, qualname, node in _public_definitions():
        name = qualname.rsplit(".", 1)[-1]
        # References inside the definition itself (recursion, a class naming
        # itself) do not reach it.
        outside = package_refs[name] - _references(node)[name]
        if outside <= 0 and not user_refs[name]:
            unreached.append(f"{module}.{qualname}")
    return unreached


def _config_keywords(tree: ast.AST) -> set[str]:
    """Keywords of every ``TrainConfig(...)`` or ``dict(...)`` call in a tree."""
    keywords = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("TrainConfig", "dict"):
                keywords.update(k.arg for k in node.keywords if k.arg is not None)
    return keywords


def unset_config_fields() -> list[str]:
    keywords = set()
    for path in sorted(PACKAGE.glob("*.py")) + USERS:
        keywords |= _config_keywords(ast.parse(path.read_text()))
    return [f.name for f in fields(TrainConfig) if f.name not in keywords]


def _passed_arguments(trees) -> dict[str, tuple[float, set[str]]]:
    """Per called name, the most positional arguments of any call and every keyword passed.

    A ``*args`` splat counts as unboundedly many positional arguments, and a
    ``**kwargs`` splat as the keyword ``**``.
    """
    passed: dict[str, tuple[float, set[str]]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            splat = any(isinstance(a, ast.Starred) for a in node.args)
            count, keywords = passed.get(name, (0, set()))
            keywords |= {"**" if k.arg is None else k.arg for k in node.keywords}
            passed[name] = (max(count, float("inf") if splat else len(node.args)), keywords)
    return passed


def unpassed_defaults() -> list[str]:
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py")) + USERS]
    passed = _passed_arguments(trees)
    unpassed = []
    for module, qualname, node in _public_definitions():
        if not isinstance(node, ast.FunctionDef):
            continue
        count, keywords = passed.get(node.name, (0, set()))
        args = node.args
        positional = args.posonlyargs + args.args
        if "." in qualname and positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        first = len(positional) - len(args.defaults)
        defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first] + [
            (float("inf"), a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d
        ]
        for i, arg in defaulted:
            if i >= count and arg not in keywords and "**" not in keywords:
                unpassed.append(f"{module}.{qualname}({arg})")
    return unpassed


def test_every_public_name_is_reached_outside_the_unit_tests():
    assert unreached_names() == []


def test_every_train_config_field_is_set_outside_the_unit_tests():
    assert unset_config_fields() == []


def test_every_defaulted_parameter_is_passed_outside_the_unit_tests():
    assert unpassed_defaults() == []


def test_the_scan_sees_definitions_and_references():
    names = {f"{m}.{q}" for m, q, _ in _public_definitions()}
    assert {"archgraph.CellGraph", "archgraph.CellGraph.edges", "opspace.audit_rows"} <= names
    # Click commands are entry points, not names to reach.
    assert "cli.audit" not in names
    refs = _references(ast.parse('"""A doc."""\nx = f("a.b", f"c {y.z}", "d e")\n'))
    assert refs["doc"] == refs["c"] == refs["d"] == 0
    assert refs["a"] == refs["b"] == refs["y"] == refs["z"] == 1
    calls = "TrainConfig(a=1, **r)\nt.TrainConfig(b=2)\nr = dict(c=3)\nf(d=4)\n{'e': 5}\n"
    assert _config_keywords(ast.parse(calls)) == {"a", "b", "c"}
    passed = _passed_arguments([ast.parse("f(1, b=2)\nf(1, 2, 3)\no.g(*a)\nh(**k)\n")])
    assert passed == {"f": (3, {"b"}), "g": (float("inf"), set()), "h": (0, {"**"})}
