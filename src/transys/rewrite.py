"""Operadic term rewriting over two symbol families.

Terms are formal composites of orbit-representative symbols drawn from two
factors X and Y.  Symbols are interned, one object per (factor, sid, arity),
and terms are tuples, so comparing and hashing either runs in C.  A symbol
pool turns its action and composite tables into per-symbol rows, each entry
with its inverse permutation, which the rules and the group action read.

The coproduct system folds identities and same-factor composites; the
tensor system interchanges and collapses constants.  Every rule strictly
lowers a complexity that sums, over the nodes, a value of the node and its
depth, so each contraction is checked to lower it from the contracted
subterm alone and every reduction ends within a known step budget.

One post-order walk (children before their parent, left before right) lists
the redexes of a term; its first hit is the leftmost-innermost redex.  One
normalizer gives every leftmost-innermost normal form: it normalizes the
children of a node, then contracts at the node and normalizes the reduct in
place, the steps of contracting the walk's first hit over and over.
Untraced, it memoizes normal forms by term value, so the one-step reducts
of a term are normalized along their redex paths only, and a subterm equal
to one already normalized is not reduced again, whichever node holds it.
As the systems terminate, local confluence is checked by comparing the
normal forms of two reducts (Newman's lemma); confluence, equivariance and
congruence with composition are checked on fuzzed terms rather than
assumed.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .groups import (
    FiniteGSet,
    Group,
    GroupError,
    Perm,
    Subgroup,
    compose,
    coset_action,
    identity_perm,
    invert,
    iso_key,
    lattice_of,
)
from .transfer import join


class RewriteError(ValueError):
    pass


class OpSymbol:
    """Orbit-representative operation symbol from factor X or Y.

    There is one object per (factor, sid, arity): the constructor returns
    the interned one, so symbols compare and hash by identity, in C, and
    copies and unpickled symbols are that same object.
    """

    __slots__ = ("factor", "sid", "arity", "name")
    _interned: dict = {}

    def __new__(cls, factor: str, sid: int, arity: int) -> "OpSymbol":
        sym = OpSymbol._interned.get((factor, sid, arity))
        if sym is None:
            if factor not in ("X", "Y"):
                raise RewriteError("factor must be X or Y")
            sym = object.__new__(OpSymbol)
            for attr, value in zip(OpSymbol.__slots__,
                                   (factor, sid, arity, f"{factor}:{sid}")):
                object.__setattr__(sym, attr, value)
            OpSymbol._interned[(factor, sid, arity)] = sym
        return sym

    def __setattr__(self, *_) -> None:
        raise AttributeError("symbols are interned and immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return OpSymbol, (self.factor, self.sid, self.arity)

    def __repr__(self) -> str:
        return self.name


class Var(NamedTuple):
    index: int  # 1-based


class App(NamedTuple):
    symbol: OpSymbol
    children: tuple


# Not typing.Union, whose cache would keep these classes, and with them a
# whole copy of the package, alive after the package is imported afresh.
Term = Var | App


class SymbolPool:
    """Symbols with their group action and optional operad data.

    It is built from two dicts: ``g_action[(sym, g)] = (sym2, sigma)``
    records g . sym = sym2 . sigma, the unique factorization through orbit
    representatives, and ``compose_table[(h, k, f)] = (ell, sigma)`` that
    h with f in slot k (1-based) is ell . sigma, for factors with genuine
    operad structure (free generators have none).  The pool checks every
    entry and keeps only what the rules read: one row per symbol,
    ``rows[sym][g] = (sym2, sigma, sigma^-1)``, and one composite table
    per head symbol, ``composites[h][(k - 1, f)] = (ell, sigma^-1)``.
    """

    def __init__(self, group: Group, symbols: Iterable[OpSymbol],
                 g_action: dict,
                 x_identity: Optional[OpSymbol] = None,
                 y_identity: Optional[OpSymbol] = None,
                 compose_table: Optional[dict] = None,
                 z: Optional[OpSymbol] = None):
        self.group = group
        self.symbols = tuple(symbols)
        self.x_identity = x_identity
        self.y_identity = y_identity
        self.z = z
        self.validate(g_action, compose_table or {})

    def validate(self, g_action: dict, compose_table: dict) -> None:
        """Build the rows and the composite table from the two dicts, then
        check the group law and z on the rows."""
        G = self.group
        inverses: dict = {}  # each distinct sigma is checked and inverted once

        def inverse(sigma, n: int, what: Callable[[], str]) -> Perm:
            if type(sigma) is tuple and len(sigma) == n:
                inv = inverses.get(sigma)
                if inv is None and sorted(sigma) == list(range(n)):
                    inv = inverses[sigma] = invert(sigma)
                if inv is not None:
                    return inv
            raise RewriteError(
                f"{what()}: {sigma!r} is not a permutation of {n} slots")

        pooled = set(self.symbols)
        self.rows = {}
        for sym in self.symbols:
            row = []
            for g in G.elements():
                if (sym, g) not in g_action:
                    raise RewriteError(f"missing action of {g} on {sym}")
                image, sigma = g_action[(sym, g)]
                if image not in pooled:
                    raise RewriteError(f"{g} moves {sym} out of the pool")
                if image.arity != sym.arity:
                    raise RewriteError(f"{g} moves {sym} to another arity")
                inv = inverse(sigma, sym.arity,
                              lambda: f"action of {g} on {sym}")
                row.append((image, sigma, inv))
            self.rows[sym] = tuple(row)
        self.composites = {}
        for (h, k, f), (ell, sigma) in compose_table.items():
            what = lambda: f"composite ({h}, {k}, {f})"  # noqa: E731
            if h not in pooled or f not in pooled or ell not in pooled:
                raise RewriteError(f"{what()} names a symbol not in the pool")
            if not 1 <= k <= h.arity:
                raise RewriteError(f"{what()}: slot {k} is outside 1..{h.arity}")
            if f.factor != h.factor or ell.factor != h.factor:
                raise RewriteError(f"{what()} mixes factors")
            if ell.arity != h.arity + f.arity - 1:
                raise RewriteError(f"{what()} gives {ell} of arity {ell.arity}, "
                                   f"not {h.arity + f.arity - 1}")
            self.composites.setdefault(h, {})[(k - 1, f)] = (
                ell, inverse(sigma, ell.arity, what))
        for sym, row in self.rows.items():
            if row[0][0] is not sym or row[0][1] != identity_perm(sym.arity):
                raise RewriteError(f"identity must fix {sym}")
            for g1 in G.elements():
                f1, p1, _ = row[g1]
                for g2 in G.elements():
                    f2, p2, _ = self.rows[f1][g2]
                    f3, p3, _ = row[G.mul[g2][g1]]
                    if f3 is not f2 or p3 != compose(p2, p1):
                        raise RewriteError(
                            f"action tables break the group law at "
                            f"({g2},{g1}) on {sym}")
        self._check_z()

    def _check_z(self) -> None:
        if self.z is not None:
            if self.z.factor != "Y" or self.z.arity != 0:
                raise RewriteError("z must be a nullary Y-symbol")
            if self.z not in self.rows or any(
                    image is not self.z for image, _, _ in self.rows[self.z]):
                raise RewriteError("z must be G-fixed")

    def union(self, other: "SymbolPool", z: Optional[OpSymbol]
              ) -> "SymbolPool":
        """Both pools' symbols, rows and composites in one pool with
        constant z.  Each side was validated in full when it was built and
        the two share no factor, so only the group and z are checked here."""
        if self.group != other.group:
            raise RewriteError("factors live over different groups")
        if {s.factor for s in self.symbols} & {s.factor for s in other.symbols}:
            raise RewriteError("the two pools share a factor")
        pool = object.__new__(SymbolPool)  # skips the per-block validation
        pool.group = self.group
        pool.symbols = self.symbols + other.symbols
        pool.rows = {**self.rows, **other.rows}
        pool.x_identity = self.x_identity or other.x_identity
        pool.y_identity = self.y_identity or other.y_identity
        pool.composites = {**self.composites, **other.composites}
        pool.z = z
        pool._check_z()
        return pool


# ---------------------------------------------------------------------------
# term basics


def symbol_count(t: Term) -> int:
    return 0 if type(t) is Var else 1 + sum(map(symbol_count, t.children))


def term_arity(t: Term) -> int:
    return 1 if type(t) is Var else sum(map(term_arity, t.children))


def substitute(t: Term, var: Callable[[int], Term]) -> Term:
    """t with each variable x_i replaced by var(i)."""
    if type(t) is Var:
        return var(t.index)
    return App(t.symbol, tuple([substitute(c, var) for c in t.children]))


def act_sigma(t: Term, sigma: Perm) -> Term:
    """Right action: variable x_i becomes x_{sigma^-1 i}."""
    inv = invert(sigma)
    return substitute(t, lambda i: Var(inv[i - 1] + 1))


def act_g(pool: SymbolPool, g: int, t: Term) -> Term:
    """Left group action through the pool's action rows."""
    if type(t) is Var:
        return t
    sym, kids = t
    image, _, inv = pool.rows[sym][g]
    return App(image, tuple([act_g(pool, g, kids[i]) for i in inv]))


def gamma(t: Term, args: Sequence[Term]) -> Term:
    """Operadic composition: substitute args into the variables of t,
    shifting the variables of each argument past its predecessors."""
    k = term_arity(t)
    if len(args) != k:
        raise RewriteError(f"gamma arity mismatch: term takes {k}, got {len(args)}")
    shifted, offset = {}, 0
    for i, s in enumerate(args, start=1):
        shifted[i] = substitute(s, lambda j, k=offset: Var(j + k))
        offset += term_arity(s)
    return substitute(t, shifted.__getitem__)


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return f"x{t.index}"
    if not t.children:
        return f"({t.symbol.name})"
    inner = " ".join(format_term(c) for c in t.children)
    return f"({t.symbol.name} {inner})"


# ---------------------------------------------------------------------------
# the two reduction systems


@dataclass(frozen=True)
class RewriteMode:
    kind: str  # "coproduct" | "tensor"

    def __post_init__(self) -> None:
        if self.kind not in ("coproduct", "tensor"):
            raise RewriteError(f"unknown rewrite mode {self.kind!r}")


COPRODUCT = RewriteMode("coproduct")
TENSOR = RewriteMode("tensor")

Path = tuple[int, ...]


@dataclass
class Step:
    rule: str
    path: Path
    before: Term
    after: Term


def replace_at(t: Term, path: Path, new: Term) -> Term:
    if not path:
        return new
    children = list(t.children)
    children[path[0]] = replace_at(children[path[0]], path[1:], new)
    return App(t.symbol, tuple(children))


def _local_rules(pool: SymbolPool, mode: RewriteMode):
    if mode.kind == "coproduct":
        return _local_coproduct
    if pool.z is None:
        raise RewriteError("tensor mode needs a designated nullary z in Y")
    return _local_tensor


def _local_coproduct(pool: SymbolPool, t: Term) -> Iterator[tuple[Term, str]]:
    if type(t) is Var:
        return
    h, kids = t
    if h is pool.x_identity:
        yield kids[0], "a"
    if h is pool.y_identity:
        yield kids[0], "b"
    table = pool.composites.get(h)
    for k, child in enumerate(kids if table else ()):
        hit = None if type(child) is Var else table.get((k, child.symbol))
        if hit is not None:
            ell, inv = hit
            args = kids[:k] + child.children + kids[k + 1:]
            yield (App(ell, tuple([args[i] for i in inv])),
                   "c" if h.factor == "X" else "d")


def _local_tensor(pool: SymbolPool, t: Term) -> Iterator[tuple[Term, str]]:
    """At most one reduct: a node all of whose children are z collapses
    (c), any other nullary symbol becomes z (d), and an X-symbol whose
    children other than z all share one Y-head of positive arity
    interchanges with it (a, or b with z children)."""
    if type(t) is Var:
        return
    h, kids = t
    z = pool.z
    if not kids:
        if h is not z:
            yield App(z, ()), "d"
        return
    heads = {None if type(c) is Var else c.symbol for c in kids}
    rest = heads - {z}
    if not rest:
        yield App(z, ()), "c"
    elif len(rest) == 1 and h.factor == "X":
        f = rest.pop()
        if f is not None and f.factor == "Y" and f.arity > 0:
            cols = tuple(App(h, tuple([c if c.symbol is z else c.children[j]
                                       for c in kids]))
                         for j in range(f.arity))
            yield App(f, cols), "b" if z in heads else "a"


def _redexes(pool: SymbolPool, t: Term, mode: RewriteMode
             ) -> list[tuple[Term, Term, str, Path]]:
    """Every local redex of t as (subterm, reduct, rule, path), children
    before their parent and left before right, so the first is the
    leftmost-innermost redex."""
    local = _local_rules(pool, mode)
    out = []

    def walk(s: App, path: Path) -> None:
        for i, c in enumerate(s.children):
            if type(c) is not Var:
                walk(c, path + (i,))
        for reduct, rule in local(pool, s):
            out.append((s, reduct, rule, path))

    if type(t) is not Var:
        walk(t, ())
    return out


def one_step_reducts(pool: SymbolPool, t: Term, mode: RewriteMode
                     ) -> list[tuple[Term, str, Path]]:
    """Every legal single substitution at every position, exactly once."""
    return [(replace_at(t, path, reduct), rule, path)
            for _, reduct, rule, path in _redexes(pool, t, mode)]


def _measurer(pool: SymbolPool, mode: RewriteMode):
    """The complexity of terms at any depth, memoized by term value.

    Both measures are sums over the nodes of a value that depends only on
    the node and its depth d: 1 per symbol in coproduct mode; in tensor
    mode 1 per symbol other than z, plus d times the arity of each
    Y-symbol.  So a term standing at depth d weighs a + d*b, where a is
    its complexity and b the total arity of its Y-symbols (0 in coproduct
    mode), and contracting a subterm at depth d changes the complexity of
    the whole term by exactly the change of a + d*b.  Terms hash and
    compare by value in C, so equal terms built apart share one entry; a
    node reads its memoized children from the memo in place.
    """
    tensor = mode.kind == "tensor"
    z = pool.z
    memo: dict[Term, tuple[int, int]] = {}

    def measure(s: Term) -> tuple[int, int]:
        if type(s) is Var:
            return 0, 0
        hit = memo.get(s)
        if hit is not None:
            return hit
        sym, kids = s
        a = b = 0
        for c in kids:
            if type(c) is not Var:
                ca, cb = memo.get(c) or measure(c)
                a += ca + cb
                b += cb
        a += sym is not z if tensor else 1
        b += sym.arity if tensor and sym.factor == "Y" else 0
        memo[s] = a, b
        return a, b

    return measure


def complexity(pool: SymbolPool, t: Term, mode: RewriteMode) -> int:
    return _measurer(pool, mode)(t)[0]


def _drop(measure, before: Term, after: Term, depth: int) -> int:
    """How much contracting before to after at the given depth lowers the
    complexity of the whole term."""
    (a0, b0), (a1, b1) = measure(before), measure(after)
    return a0 - a1 + depth * (b0 - b1)


def _normalizer(pool: SymbolPool, mode: RewriteMode,
                trace: Optional[list] = None):
    """The leftmost-innermost normal form, as a function of the term.

    It normalizes the children of a node left to right, then contracts
    the first local redex at the node and normalizes the reduct in its
    place.  By then no redex is left below the node or to its left, so
    these are the steps of contracting the first hit of the post-order
    walk again and again, without restarting the walk from the root.

    The memo maps each term, by value, to its normal form.  Without a
    trace it keeps every term it normalizes, so a one-step reduct, whose
    subtrees off its redex path equal its term's, is normalized along
    that path only, and so is a copy of a normalized term built afresh
    by the group action or by composition.  With a trace it keeps only
    normal terms, so a reducible subterm at two positions records its
    steps at each, and every step is appended as a Step on the whole
    term.  Each contraction must lower the complexity of the whole term,
    and t gets complexity(t) steps.
    """
    local = _local_rules(pool, mode)
    measure = _measurer(pool, mode)
    memo: dict[Term, Term] = {}
    path: list[int] = []
    whole: Optional[Term] = None  # the whole term, for the trace
    left = 0  # steps left in the budget

    def norm(s: Term, depth: int) -> Term:
        nonlocal whole, left
        if type(s) is Var:
            return s
        hit = memo.get(s)
        if hit is not None:
            return hit
        start = node = s
        while True:
            sym, kids = node
            if kids:
                new, changed = list(kids), False
                for i, c in enumerate(kids):
                    if type(c) is not Var:
                        path.append(i)
                        new[i] = norm(c, depth + 1)
                        path.pop()
                        changed = changed or new[i] is not c
                if changed:
                    node = App(sym, tuple(new))
            hit = next(iter(local(pool, node)), None)
            if hit is None:
                memo[node] = node
                break
            reduct, rule = hit
            if _drop(measure, node, reduct, depth) <= 0:
                raise RewriteError(f"rule {rule} failed to decrease "
                                   f"complexity at {tuple(path)}")
            if left <= 0:
                raise RewriteError("step budget exceeded; descent is broken")
            left -= 1
            if trace is not None:
                at = tuple(path)
                after = replace_at(whole, at, reduct)
                trace.append(Step(rule, at, whole, after))
                whole = after
            node = reduct
            if type(node) is Var:
                break
            hit = memo.get(node)
            if hit is not None:
                node = hit
                break
        if trace is None:
            memo[start] = node
        return node

    def normal_form(t: Term) -> Term:
        nonlocal whole, left
        hit = memo.get(t)
        if hit is not None:
            return hit
        whole, left = t, measure(t)[0]
        return norm(t, 0)

    return normal_form


def reduce_term(pool: SymbolPool, t: Term, mode: RewriteMode,
                strategy: str = "leftmost_innermost",
                seed: Optional[int] = None) -> tuple[Term, list[Step]]:
    """Reduce to a normal form and list the steps taken: leftmost-innermost,
    or with strategy "random" a uniform draw from every redex at each
    step.  The step budget is the initial complexity, which suffices
    because every step strictly decreases it."""
    trace: list[Step] = []
    if strategy != "random":
        return _normalizer(pool, mode, trace)(t), trace
    measure = _measurer(pool, mode)
    rng = random.Random(seed)
    current = t
    for _ in range(measure(t)[0] + 1):
        hits = _redexes(pool, current, mode)
        if not hits:
            return current, trace
        node, reduct, rule, path = hits[rng.randrange(len(hits))]
        if _drop(measure, node, reduct, len(path)) <= 0:
            raise RewriteError(
                f"rule {rule} failed to decrease complexity at {path}")
        after = replace_at(current, path, reduct)
        trace.append(Step(rule, path, current, after))
        current = after
    raise RewriteError("step budget exceeded; descent is broken")


# ---------------------------------------------------------------------------
# fuzzing and the confluence/equivariance criteria


def fuzz_term(pool: SymbolPool, rng: random.Random, max_symbols: int,
              symbols: Optional[Sequence[OpSymbol]] = None) -> Term:
    """Random operadic term with at most max_symbols operation symbols.

    Grows an arity-respecting tree against a shared symbol budget, then
    assigns the variables to the leaf slots through a random permutation.
    The optional symbol list restricts which generators the fuzzer draws
    from (the pool may hold extra symbols only reachable by reduction).
    """
    draw = tuple(symbols) if symbols is not None else pool.symbols
    remaining = rng.randint(1, max_symbols)
    leaves = 0

    def grow() -> Term:
        nonlocal remaining, leaves
        if remaining <= 0 or rng.random() < 0.12:
            leaves += 1
            return Var(-leaves)  # placeholder, renumbered below
        sym = rng.choice(draw)
        remaining -= 1
        return App(sym, tuple(grow() for _ in range(sym.arity)))

    t = grow()
    perm = list(range(1, leaves + 1))
    rng.shuffle(perm)
    return substitute(t, lambda i: Var(perm[-i - 1]))


def random_perm(rng: random.Random, n: int) -> Perm:
    out = list(range(n))
    rng.shuffle(out)
    return tuple(out)


@dataclass
class CriterionReport:
    name: str
    checked: int = 0
    counterexample: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def to_json(self) -> dict:
        out = {"criterion": self.name, "checked": self.checked,
               "passed": self.passed}
        if self.counterexample:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class CriteriaReport:
    reports: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_json(self) -> dict:
        return {"passed": self.passed,
                "criteria": [r.to_json() for r in self.reports]}


def check_criteria(pool: SymbolPool, mode: RewriteMode, count: int = 200,
                   seed: int = 0, max_symbols: int = 8,
                   symbols: Optional[Sequence[OpSymbol]] = None
                   ) -> CriteriaReport:
    """Fuzzed verification of the four rewriting criteria.

    (i) every pair of one-step reducts has one normal form, which for a
    terminating system also proves confluence (Newman's lemma);
    (ii) reduction commutes with the group and symmetric actions;
    (iii)/(iv) reduction is a congruence for composition on the outer and
    inner argument.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if max_symbols < 1:
        raise ValueError(f"max_symbols must be at least 1, got {max_symbols}")
    rng = random.Random(seed)
    joins = CriterionReport("local joinability")
    equiv = CriterionReport("equivariance of reduction")
    outer = CriterionReport("congruence in the outer slot")
    inner = CriterionReport("congruence in the inner slots")

    def record(report: CriterionReport, ok: bool, example: Callable) -> None:
        report.checked += 1
        if not ok and report.counterexample is None:
            report.counterexample = example()

    for _ in range(count):
        t = fuzz_term(pool, rng, max_symbols, symbols)
        # one memo per fuzzed term: its reducts, moved copy and composites
        # share its normal forms by value, and memory does not grow with
        # count
        normal = _normalizer(pool, mode)
        reducts = one_step_reducts(pool, t, mode)
        forms = [normal(r) for r, _, _ in reducts]
        for a in range(len(reducts)):
            for b in range(a + 1, len(reducts)):
                left, right = reducts[a][0], reducts[b][0]
                record(joins, forms[a] == forms[b], lambda: {
                    "term": format_term(t), "left": format_term(left),
                    "right": format_term(right)})
        n = term_arity(t)
        g = rng.randrange(pool.group.order)
        sigma = random_perm(rng, n)
        moved = act_g(pool, g, act_sigma(t, sigma))
        lhs = normal(moved)
        nf = normal(t)
        rhs = act_g(pool, g, act_sigma(nf, sigma))
        record(equiv, lhs == rhs, lambda: {
            "term": format_term(t), "g": g, "sigma": list(sigma),
            "reduced then moved": format_term(rhs),
            "moved then reduced": format_term(lhs)})
        args = [fuzz_term(pool, rng, 3, symbols) for _ in range(n)]
        whole = gamma(t, args)
        nf_whole = normal(whole)
        via_outer = normal(gamma(nf, args))
        record(outer, nf_whole == via_outer, lambda: {
            "term": format_term(t), "whole": format_term(nf_whole),
            "outer-first": format_term(via_outer)})
        via_inner = normal(gamma(t, [normal(s) for s in args]))
        record(inner, nf_whole == via_inner, lambda: {
            "term": format_term(t), "whole": format_term(nf_whole),
            "inner-first": format_term(via_inner)})
    return CriteriaReport([joins, equiv, outer, inner])


# ---------------------------------------------------------------------------
# pools for the standard factors


def as_pool(G: Group, max_arity: int, factor: str = "X") -> SymbolPool:
    """A slice of the associativity operad: one symbol per arity, trivial
    group action, full composite table within the slice."""
    symbols = [OpSymbol(factor, n, n) for n in range(max_arity + 1)]
    # one (symbol, identity) entry per arity, shared by every table entry
    ident = [(s, identity_perm(s.arity)) for s in symbols]
    g_action = {(s, g): ident[s.arity] for s in symbols for g in G.elements()}
    comp = {}
    for h in symbols:
        for f in symbols:
            target = h.arity + f.arity - 1
            if h.arity == 0 or target > max_arity:
                continue
            for k in range(1, h.arity + 1):
                comp[(h, k, f)] = ident[target]
    identity = symbols[1] if max_arity >= 1 else None
    return SymbolPool(G, symbols, g_action,
                      x_identity=identity if factor == "X" else None,
                      y_identity=identity if factor == "Y" else None,
                      compose_table=comp)


def marked_symbols(G: Group, factor: str) -> tuple[list[OpSymbol], dict]:
    """The marked nullary and binary generators, G-fixed."""
    u = OpSymbol(factor, 0, 0)
    p = OpSymbol(factor, 1, 2)
    action = {(s, g): (s, identity_perm(s.arity))
              for s in (u, p) for g in G.elements()}
    return [u, p], action


def orbit_symbols(T: FiniteGSet, factor: str, start: int
                  ) -> tuple[list[OpSymbol], dict, dict]:
    """Sigma-orbit representative symbols of the free orbit of an H-set T.

    There is one symbol per coset b_i H; the group action table follows
    g . f_i = f_j . sigma_T(h) where g b_i = b_j h.
    """
    G = T.group
    reps, table = coset_action(G, G.elements(), T.subgroup)
    symbols = [OpSymbol(factor, start + i, T.size) for i in range(len(reps))]
    sigma = dict(zip(T.subgroup.members, T.act))
    action = {(sym, g): (symbols[j], sigma[h])
              for g, moves in zip(G.elements(), table)
              for sym, (j, h) in zip(symbols, moves)}
    # the identity coset comes first, since 0 is the least element
    return symbols, action, {T: symbols[0]}


@dataclass(frozen=True)
class FactorPart:
    """One free model as one factor: its validated symbol pool, the
    basepoint symbol of each orbit, and its generator witness table."""

    pool: SymbolPool
    base: dict
    table: "WitnessTable"


@functools.cache
def factor_part(seq, factor: str) -> FactorPart:
    """The factor part of a free model, built once per orbit content."""
    symbols, action = marked_symbols(seq.group, factor)
    base = {}
    for T in seq.orbits:
        syms, acts, b = orbit_symbols(T, factor, len(symbols))
        symbols.extend(syms)
        action.update(acts)
        base.update(b)
    pool = SymbolPool(seq.group, symbols, action)
    return FactorPart(pool, base, WitnessTable(pool, seq, base))


def _pair_parts(S, T) -> tuple[SymbolPool, FactorPart, FactorPart]:
    x, y = factor_part(S, "X"), factor_part(T, "Y")
    z = next(s for s in y.pool.symbols if s.arity == 0)
    return x.pool.union(y.pool, z), x, y


def pool_from_free_models(S, T) -> tuple[SymbolPool, dict, dict]:
    """Pool for F(S') u F(T'): marked generators plus the two factors'
    orbit symbols; z is the Y-side marked constant.

    Returns the pool and, per factor, the map from each orbit to its
    basepoint symbol (the representative of the identity coset).
    """
    pool, x, y = _pair_parts(S, T)
    return pool, x.base, y.base


# ---------------------------------------------------------------------------
# fixed-point structure of terms and admissibility witnesses


def fixed_perm(pool: SymbolPool, t: Term, g: int,
               n: Optional[int] = None) -> Optional[Perm]:
    """The permutation pi with g * t = t . pi, if one exists; n is the
    arity of t, computed when not given.

    It walks t against g * t without building g * t: the node of g * t
    facing a node a of t is g * src for a node src of t, whose children
    are g * src.children[inv[i]].  The symbol pairs (a, src) still to
    compare sit on one flat worklist; variable pairs are settled as they
    are met.
    """
    if n is None:
        n = term_arity(t)
    if type(t) is Var:  # g * x_i = x_i: pi is the identity on one slot
        return (0,) if n == 1 and t.index == 1 else None
    pi = [None] * n
    rows = pool.rows
    work = [(t, t)]
    pop, push = work.pop, work.append
    while work:
        a, src = pop()
        image, _, inv = rows[src.symbol][g]
        if type(a) is Var or a.symbol is not image:
            return None
        kids = src.children
        for c, k in zip(a.children, inv):
            s = kids[k]
            if type(s) is not Var:
                push((c, s))
                continue
            # g * t carries x_j at the position where t . pi has x_{pi^-1 j}
            i, j = c.index - 1 if type(c) is Var else -1, s.index - 1
            if not (0 <= i < n and 0 <= j < n) or pi[j] not in (None, i):
                return None
            pi[j] = i
    if None in pi:
        return None
    return tuple(pi)


def fixed_structure(pool: SymbolPool, t: Term, H: Subgroup
                    ) -> Optional[FiniteGSet]:
    """The H-set on the variable slots of t exhibited by its fixedness
    under the graph of that action, or None if t is not fixed."""
    n = term_arity(t)
    rows = []
    for h in H.members:
        rows.append(fixed_perm(pool, t, h, n))
        if rows[-1] is None:
            return None
    try:
        return FiniteGSet(H, n, tuple(rows))
    except GroupError:
        return None


def _exhibits(pool: SymbolPool, t: Term, structure: FiniteGSet) -> bool:
    """Whether t is fixed under the graph of an already validated action,
    with exactly that action on its slots.

    Only the generators of H are tried, or the identity when H is trivial.
    A permutation from `fixed_perm` makes t linear, so it is the only pi
    with h * t = t . pi, and (gh) * t = g * (t . pi_h) = t . (pi_g pi_h).
    The h whose permutation equals their row are thus closed under
    products, a subgroup, and holding the generators they are all of H.
    """
    n = term_arity(t)
    return all(fixed_perm(pool, t, h, n) == structure.act_of(h)
               for h in structure.subgroup.generators or (0,))


@dataclass
class Witness:
    """A term fixed by the graph subgroup of one admissible transfer."""

    term: Term
    subgroup: Subgroup
    structure: FiniteGSet


def _compose_witnesses(pool: SymbolPool, inner: Witness, outer: Witness
                       ) -> Term:
    """Composite witness for transitivity: plug translated copies of the
    inner witness into the slots of the outer one.

    The outer structure is a transitive H-set with point stabilizers
    conjugate to the middle subgroup; each slot gets the inner witness
    translated by an element carrying the basepoint to that slot.  The
    basepoint is the least point whose stabilizer is the inner subgroup;
    the point h.0 has stabilizer h K h^-1, K being the stabilizer of 0.
    """
    struct = outer.structure
    H = outer.subgroup
    lat = lattice_of(H.group)
    (k_id,) = struct.stabilizer_ids
    j_id = lat.id_of(inner.subgroup)
    base = min(struct.act_of(h)[0] for h in H.members
               if lat.conj_table[h][k_id] == j_id)
    args = []
    for q in range(struct.size):
        h = next(h for h in H.members if struct.act_of(h)[base] == q)
        args.append(act_g(pool, h, inner.term))
    return gamma(outer.term, args)


class WitnessTable:
    """The generator witnesses of one free model, one per transfer pair.

    A free model has one generator orbit Gamma(H/K) for each pair K < H of
    its transfer system.  The orbit's basepoint symbol applied to x1..xn is
    fixed by the graph subgroup, with the transitive H-set H/K on its
    slots, so the generator itself witnesses the pair.  Every term is
    re-verified to be fixed before it is kept.  A sequence that is not a
    free model leaves some pair of its transfer system without a
    generator and is rejected.
    """

    def __init__(self, pool: SymbolPool, symseq, base: dict):
        lat = lattice_of(symseq.group)
        self.transfer = symseq.transfer_system
        self.witnesses: dict[tuple[int, int], Witness] = {}
        for T in symseq.orbits:
            H = T.subgroup
            k_id, h_id = T.stabilizer_ids[0], lat.id_of(H)
            term = App(base[T], tuple(Var(i + 1) for i in range(T.size)))
            struct = fixed_structure(pool, term, H)
            if struct is None:
                raise RewriteError(f"generator is not fixed under {H}: "
                                   f"{format_term(term)}")
            # sanity: the structure must be the transitive set on H/K
            if iso_key(struct) != (lat.hclass_rep(h_id, k_id),):
                raise RewriteError(
                    f"witness structure mismatch for pair ({k_id},{h_id})")
            self.witnesses[(k_id, h_id)] = Witness(term, H, struct)
        missing = set(self.transfer.pairs()) - set(self.witnesses)
        if missing:
            raise RewriteError(
                f"no generator witnesses the transfer pairs {sorted(missing)}; "
                "join witnesses need a free model")

    def witness(self, k_id: int, h_id: int) -> Witness:
        return self.witnesses[(k_id, h_id)]


@dataclass
class AdmissibilityWitness:
    pair: tuple[int, int]
    term: Term
    subgroup: Subgroup
    structure: FiniteGSet
    normal_form: Term
    mode: str
    verified: bool


class WitnessFactory:
    """Shared pool and factor witness tables for one pair of generator
    sequences; hands out verified join witnesses pair by pair.

    The pool is the union of the two factor parts and the tables are
    theirs, so a pair builds and validates nothing of its own.  It keeps
    one normalizer per mode.

    A one-link witness is one generator of one factor table, so its term,
    normal form and verdict depend on (table, pair, mode) alone.
    ``verdicts`` maps those keys to (normal form, verified); a caller that
    hands one dict to the factories of many pairs verifies each such
    witness once.  Without one, the factory keeps its own.  A chain of
    other than one link is composed and validated once per pair, for
    both modes; only its verdict is per mode.
    """

    def __init__(self, S, T, verdicts: Optional[dict] = None):
        self.pool, x, y = _pair_parts(S, T)
        self.lat = lattice_of(S.group)
        self.table_x, self.table_y = x.table, y.table
        self.join = join(self.table_x.transfer, self.table_y.transfer)
        self.verdicts = {} if verdicts is None else verdicts
        self._normalizers: dict[str, Callable[[Term], Term]] = {}
        self._chain_witnesses: dict[tuple[int, int], Witness] = {}

    def _chain(self, k_id: int, h_id: int) -> list:
        """A shortest chain of generator pairs from k_id up to h_id, as
        (lower, upper, table) steps, found breadth first.  A pair that a
        factor table holds is its own one-link chain, the X table's first,
        as the search would find it."""
        if k_id == h_id:
            return []
        for table in (self.table_x, self.table_y):
            if (k_id, h_id) in table.witnesses:
                return [(k_id, h_id, table)]
        chains = {k_id: []}
        frontier = [k_id]
        while frontier and h_id not in chains:
            nxt = []
            for cur in frontier:
                for table in (self.table_x, self.table_y):
                    for (a, b) in table.witnesses:
                        if a == cur and b not in chains:
                            chains[b] = chains[cur] + [(cur, b, table)]
                            nxt.append(b)
            frontier = nxt
        if h_id not in chains:
            raise RewriteError(
                f"no factorization chain found for ({k_id},{h_id}); "
                "join computation is inconsistent")
        return chains[h_id]

    def _verdict(self, witness: Witness, mode: RewriteMode
                 ) -> tuple[Term, bool]:
        normal = self._normalizers.get(mode.kind)
        if normal is None:
            normal = self._normalizers[mode.kind] = _normalizer(self.pool, mode)
        nf = normal(witness.term)
        return nf, _exhibits(self.pool, nf, witness.structure)

    def _witness(self, k_id: int, h_id: int, chain: list) -> Witness:
        """The witness of a join pair along its chain, with its validated
        H-set; neither depends on the mode, so a chain of other than one
        link is composed and validated once per pair."""
        if len(chain) == 1:
            return chain[0][2].witness(k_id, h_id)
        witness = self._chain_witnesses.get((k_id, h_id))
        if witness is not None:
            return witness
        if not chain:
            H = self.lat.subgroups[h_id]
            witness = Witness(Var(1), H, fixed_structure(self.pool, Var(1), H))
        else:
            first = chain[0]
            witness = first[2].witness(first[0], first[1])
            for prev, node, table in chain[1:]:
                outer = table.witness(prev, node)
                term = _compose_witnesses(self.pool, witness, outer)
                H = self.lat.subgroups[node]
                struct = fixed_structure(self.pool, term, H)
                if struct is None:
                    raise RewriteError("chain composite lost its fixedness")
                witness = Witness(term, H, struct)
        self._chain_witnesses[(k_id, h_id)] = witness
        return witness

    def witness(self, k_id: int, h_id: int, mode: RewriteMode
                ) -> AdmissibilityWitness:
        if not self.join.has(k_id, h_id):
            raise RewriteError(f"pair ({k_id},{h_id}) is not in the join")
        chain = self._chain(k_id, h_id)
        witness = self._witness(k_id, h_id, chain)
        if len(chain) != 1:
            nf, verified = self._verdict(witness, mode)
        else:
            key = (chain[0][2], k_id, h_id, mode.kind)
            hit = self.verdicts.get(key)
            if hit is None:
                hit = self.verdicts[key] = self._verdict(witness, mode)
            nf, verified = hit
        return AdmissibilityWitness((k_id, h_id), witness.term,
                                    witness.subgroup, witness.structure,
                                    nf, mode.kind, verified)

