"""Every definition in `src/transys` is reached from outside the tests.

A top-level function or class, or a method of a top-level class, passes
when one of these names it:
- code in `src/transys` outside the definition's own body, as an
  attribute, an import or a name that resolves to the module's global
  scope; a parameter or local variable of the same name does not count;
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _scope(node):
    """(names bound, names declared global) of one function, lambda, class
    or comprehension: its parameters, the targets of its assignments,
    loops, imports and handlers, and its nested definitions, not looking
    into nested scopes."""
    bound, declared = set(), set()
    if isinstance(node, _COMPREHENSIONS):
        todo = [gen.target for gen in node.generators]
    elif isinstance(node, ast.Lambda):
        todo = []
    else:
        todo = list(node.body)
    if not isinstance(node, (ast.ClassDef,) + _COMPREHENSIONS):
        a = node.args
        bound.update(arg.arg for arg in (*a.posonlyargs, *a.args,
                                         *a.kwonlyargs, a.vararg, a.kwarg)
                     if arg is not None)
    while todo:
        n = todo.pop()
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            bound.add(n.id)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.ClassDef)):
            bound.add(n.name)
        elif isinstance(n, ast.alias):
            bound.add((n.asname or n.name).split(".")[0])
        elif isinstance(n, ast.ExceptHandler) and n.name:
            bound.add(n.name)
        elif isinstance(n, ast.Global):
            declared.update(n.names)
        elif isinstance(n, ast.Nonlocal):
            bound.update(n.names)
        if not isinstance(n, _SCOPES):
            todo.extend(ast.iter_child_nodes(n))
    return bound - declared, declared


def _is_global(name, scopes):
    """Whether ``name`` read in the innermost of ``scopes`` (outermost
    first, each (bound, declared, is_class)) resolves to the module: a
    class scope is seen only from its own body."""
    for depth, (bound, declared, is_class) in enumerate(reversed(scopes)):
        if is_class and depth > 0:
            continue
        if name in declared:
            return True
        if name in bound:
            return False
    return True


def _parts(node):
    """The child nodes of a scope node read in the enclosing scope
    (decorators, defaults, bases, a comprehension's first iterable), and
    those read in its own scope."""
    if isinstance(node, _COMPREHENSIONS):
        first = node.generators[0]
        return [first.iter], [c for c in ast.iter_child_nodes(node)
                              if c is not first] + [first.target, *first.ifs]
    own = [node.body] if isinstance(node, ast.Lambda) else node.body
    return [c for c in ast.iter_child_nodes(node)
            if not any(c is o for o in own)], own


def _names(node):
    """Every name a node mentions as an attribute, an import or a global
    name, each with the nodes enclosing it."""
    out = []

    def walk(n, scopes, inside):
        if isinstance(n, ast.Name):
            if _is_global(n.id, scopes):
                out.append((n.id, inside))
        elif isinstance(n, ast.Attribute):
            out.append((n.attr, inside))
        elif isinstance(n, ast.alias):
            out.append((n.name.split(".")[-1], inside))
        inside = inside | {id(n)}
        if isinstance(n, _SCOPES):
            outer, own = _parts(n)
            inner = scopes + [(*_scope(n), isinstance(n, ast.ClassDef))]
            for child in outer:
                walk(child, scopes, inside)
            for child in own:
                walk(child, inner, inside)
        else:
            for child in ast.iter_child_nodes(n):
                walk(child, scopes, inside)

    walk(node, [], frozenset())
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


def test_parameters_and_locals_do_not_reach_a_definition():
    tree = ast.parse(
        "def f(rel):\n    return rel\n"
        "def g():\n    rel = 1\n    return [rel for rel in range(rel)]\n"
        "def h():\n    return rel, x.rel, [rel for rel in rel]\n"
        "class C:\n    rel = 1\n    def m(self):\n        return rel\n")
    # h's global read, attribute and comprehension iterable (read in h's
    # scope), and m's read, which does not see the class body
    assert [name for name, _ in _names(tree)].count("rel") == 4
