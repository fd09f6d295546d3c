"""Every definition in `src/transys` is reached from outside the tests.

A top-level function or class, or a method of a top-level class, passes
when one of these names it:
- code in `src/transys` outside the definition's own body, as a name, an
  attribute or an import;
- an `__all__` list;
- a `perfbench/*.py` file, as an identifier or a string constant (the
  tracer names its targets in strings).

Dunder methods are exempt.  A definition that only tests reach belongs in
the test module that uses it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "transys"
BENCH = ROOT / "perfbench"


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _names(node):
    """Every name a node mentions, each with the nodes enclosing it."""
    out = []

    def walk(n, inside):
        if isinstance(n, ast.Name):
            out.append((n.id, inside))
        elif isinstance(n, ast.Attribute):
            out.append((n.attr, inside))
        elif isinstance(n, ast.alias):
            out.append((n.name.split(".")[-1], inside))
        inside = inside | {id(n)}
        for child in ast.iter_child_nodes(n):
            walk(child, inside)

    walk(node, frozenset())
    return out


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            yield from ast.literal_eval(node.value)


def _bench_names():
    names = set()
    for path in BENCH.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names.update(name for name, _ in _names(tree))
        names.update(node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant)
                     and isinstance(node.value, str))
    return names


def unreached():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    mentions = [m for tree in trees.values() for m in _names(tree)]
    reached = _bench_names()
    for tree in trees.values():
        reached.update(_exported(tree))
    out = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in reached or any(m == name and id(node) not in inside
                                      for m, inside in mentions):
                continue
            out.append(f"{module[:-3]}.{qualname}")
    return out


def test_every_definition_is_reached_outside_the_tests():
    assert unreached() == []
