"""Fixtures shared by the test modules."""

import pytest

from transys.rewrite import App, RewriteError, Var


def _parse_term(text, pool):
    by_name = {s.name: s for s in pool.symbols}
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse():
        nonlocal pos
        tok = tokens[pos]
        if tok == "(":
            pos += 1
            head = tokens[pos]
            if head not in by_name:
                raise RewriteError(f"unknown symbol {head!r}")
            sym = by_name[head]
            pos += 1
            children = []
            while tokens[pos] != ")":
                children.append(parse())
            pos += 1
            if len(children) != sym.arity:
                raise RewriteError(
                    f"{sym.name} takes {sym.arity} arguments, got {len(children)}")
            return App(sym, tuple(children))
        if tok.startswith("x"):
            pos += 1
            return Var(int(tok[1:]))
        raise RewriteError(f"unexpected token {tok!r}")

    out = parse()
    if pos != len(tokens):
        raise RewriteError("trailing input after term")
    return out


@pytest.fixture
def parse_term():
    """The inverse of `transys.rewrite.format_term` over a symbol pool."""
    return _parse_term
