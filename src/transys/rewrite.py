"""Operadic term rewriting over two symbol families.

Terms are formal composites of orbit-representative symbols drawn from two
factors X and Y.  Two directed reduction systems are implemented: the
coproduct system (identity elimination and same-factor composite folding)
and the tensor system (interchange, constant collapse).  Every rule strictly
lowers an explicit complexity measure, so every reduction terminates within
a known step budget.  The measure is a sum over nodes of a value that
depends only on the node and its depth, so each contraction is checked to
lower it from the contracted subterm alone.

One post-order walk (children before their parent, left before right) lists
the redexes of a term; its first hit is the leftmost-innermost redex.  One
normalizer gives every leftmost-innermost normal form: it normalizes the
children of a node, then contracts at the node and normalizes the reduct in
place, which takes the same steps as contracting the walk's first hit over
and over.  Traced, it records each step on the whole term; untraced, it
keeps a memo from node identity to normal form for one term and its
reducts, which share every subtree off their redex path with the term and
so are normalized along that path only.  Because the systems terminate, local
confluence is checked by comparing the normal forms of the two reducts
(Newman's lemma).  Confluence, equivariance, and congruence with
composition are checked on fuzzed terms rather than assumed.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .groups import (
    FiniteGSet,
    GraphSubgroup,
    Group,
    GroupError,
    Perm,
    Subgroup,
    compose,
    cosets,
    identity_perm,
    invert,
    iso_key,
    lattice_of,
)


class RewriteError(ValueError):
    pass


@dataclass(frozen=True)
class OpSymbol:
    """Orbit-representative operation symbol from factor X or Y."""

    factor: str
    sid: int
    arity: int

    def __post_init__(self) -> None:
        if self.factor not in ("X", "Y"):
            raise RewriteError("factor must be X or Y")

    @property
    def name(self) -> str:
        return f"{self.factor}:{self.sid}"

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class App:
    symbol: OpSymbol
    children: tuple


# Not typing.Union, whose cache would keep these classes, and with them a
# whole copy of the package, alive after the package is imported afresh.
Term = Var | App


class SymbolPool:
    """Symbols with their group action tables and optional operad data.

    ``g_action[(sym, g)] = (sym2, perm)`` records g . sym = sym2 . perm,
    the unique factorization through orbit representatives.  Composite
    tables record within-factor partial composition for factors carrying
    genuine operad structure; free generators have none.
    """

    def __init__(self, group: Group, symbols: Iterable[OpSymbol],
                 g_action: dict,
                 x_identity: Optional[OpSymbol] = None,
                 y_identity: Optional[OpSymbol] = None,
                 compose_table: Optional[dict] = None,
                 z: Optional[OpSymbol] = None):
        self.group = group
        self.symbols = tuple(symbols)
        self.g_action = dict(g_action)
        self.x_identity = x_identity
        self.y_identity = y_identity
        self.compose_table = dict(compose_table or {})
        self.z = z
        self.validate()

    def act(self, g: int, sym: OpSymbol) -> tuple[OpSymbol, Perm]:
        return self.g_action[(sym, g)]

    def composite(self, h: OpSymbol, k: int, f: OpSymbol):
        """The factored composite of h with f in slot k (1-based), if any."""
        return self.compose_table.get((h, k, f))

    def validate(self) -> None:
        G = self.group
        for sym in self.symbols:
            for g in G.elements():
                if (sym, g) not in self.g_action:
                    raise RewriteError(f"missing action of {g} on {sym}")
            s0, p0 = self.g_action[(sym, 0)]
            if s0 != sym or p0 != identity_perm(sym.arity):
                raise RewriteError(f"identity must fix {sym}")
            for g1 in G.elements():
                f1, p1 = self.g_action[(sym, g1)]
                for g2 in G.elements():
                    f2, p2 = self.g_action[(f1, g2)]
                    f3, p3 = self.g_action[(sym, G.mul[g2][g1])]
                    if f3 != f2 or p3 != compose(p2, p1):
                        raise RewriteError(
                            f"action tables break the group law at "
                            f"({g2},{g1}) on {sym}")
        self._check_z()

    def _check_z(self) -> None:
        if self.z is not None:
            if self.z.factor != "Y" or self.z.arity != 0:
                raise RewriteError("z must be a nullary Y-symbol")
            for g in self.group.elements():
                if self.g_action.get((self.z, g), (None,))[0] != self.z:
                    raise RewriteError("z must be G-fixed")

    def union(self, other: "SymbolPool", z: Optional[OpSymbol]
              ) -> "SymbolPool":
        """Both pools' symbols and tables in one pool with constant z.

        Each side was validated in full when it was built and the two
        share no factor, so only the group and z are checked here.
        """
        if self.group != other.group:
            raise RewriteError("factors live over different groups")
        if {s.factor for s in self.symbols} & {s.factor for s in other.symbols}:
            raise RewriteError("the two pools share a factor")
        pool = object.__new__(SymbolPool)  # skips the per-block validation
        pool.group = self.group
        pool.symbols = self.symbols + other.symbols
        pool.g_action = {**self.g_action, **other.g_action}
        pool.x_identity = self.x_identity or other.x_identity
        pool.y_identity = self.y_identity or other.y_identity
        pool.compose_table = {**self.compose_table, **other.compose_table}
        pool.z = z
        pool._check_z()
        return pool


# ---------------------------------------------------------------------------
# term basics


def symbol_count(t: Term) -> int:
    if isinstance(t, Var):
        return 0
    return 1 + sum(symbol_count(c) for c in t.children)


def term_arity(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return sum(term_arity(c) for c in t.children)


def shift_vars(t: Term, k: int) -> Term:
    if isinstance(t, Var):
        return Var(t.index + k)
    return App(t.symbol, tuple(shift_vars(c, k) for c in t.children))


def substitute(t: Term, mapping: dict[int, Term]) -> Term:
    if isinstance(t, Var):
        return mapping[t.index]
    return App(t.symbol, tuple(substitute(c, mapping) for c in t.children))


def act_sigma(t: Term, sigma: Perm) -> Term:
    """Right action: variable x_i becomes x_{sigma^-1 i}."""
    inv = invert(sigma)

    def walk(s: Term) -> Term:
        if isinstance(s, Var):
            return Var(inv[s.index - 1] + 1)
        return App(s.symbol, tuple(walk(c) for c in s.children))

    return walk(t)


def act_g(pool: SymbolPool, g: int, t: Term) -> Term:
    """Left group action through the symbol factorization tables."""
    if isinstance(t, Var):
        return t
    sym2, sigma = pool.act(g, t.symbol)
    inv = invert(sigma)
    return App(sym2, tuple(act_g(pool, g, t.children[inv[i]])
                           for i in range(len(t.children))))


def gamma(t: Term, args: Sequence[Term]) -> Term:
    """Operadic composition: substitute args into the variables of t,
    shifting the variables of each argument past its predecessors."""
    k = term_arity(t)
    if len(args) != k:
        raise RewriteError(f"gamma arity mismatch: term takes {k}, got {len(args)}")
    shifted = {}
    offset = 0
    for i, s in enumerate(args, start=1):
        shifted[i] = shift_vars(s, offset)
        offset += term_arity(s)
    return substitute(t, shifted)


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
    head, rest = path[0], path[1:]
    children = list(t.children)
    children[head] = replace_at(children[head], rest, new)
    return App(t.symbol, tuple(children))


def _is_z_call(pool: SymbolPool, t: Term) -> bool:
    return isinstance(t, App) and pool.z is not None and t.symbol == pool.z


def _local_rules(pool: SymbolPool, mode: RewriteMode):
    if mode.kind == "coproduct":
        return _local_coproduct
    if pool.z is None:
        raise RewriteError("tensor mode needs a designated nullary z in Y")
    return _local_tensor


def _local_coproduct(pool: SymbolPool, t: Term) -> Iterator[tuple[Term, str]]:
    if not isinstance(t, App):
        return
    h = t.symbol
    if pool.x_identity is not None and h == pool.x_identity:
        yield t.children[0], "a"
    if pool.y_identity is not None and h == pool.y_identity:
        yield t.children[0], "b"
    for k, child in enumerate(t.children):
        if not isinstance(child, App):
            continue
        f = child.symbol
        if f.factor != h.factor:
            continue
        hit = pool.composite(h, k + 1, f)
        if hit is None:
            continue
        ell, sigma = hit
        args = t.children[:k] + child.children + t.children[k + 1:]
        inv = invert(sigma)
        reduct = App(ell, tuple(args[inv[i]] for i in range(len(args))))
        yield reduct, "c" if h.factor == "X" else "d"


def _local_tensor(pool: SymbolPool, t: Term) -> Iterator[tuple[Term, str]]:
    if not isinstance(t, App):
        return
    h = t.symbol
    z = pool.z
    m = h.arity
    if m > 0 and all(_is_z_call(pool, c) for c in t.children):
        yield App(z, ()), "c"
    if m == 0 and h != z:
        yield App(z, ()), "d"
    if h.factor == "X" and m > 0:
        z_pos = [i for i, c in enumerate(t.children) if _is_z_call(pool, c)]
        rest = [i for i in range(m) if i not in z_pos]
        if rest:
            heads = {t.children[i].symbol if isinstance(t.children[i], App) else None
                     for i in rest}
            if len(heads) == 1:
                f = heads.pop()
                if f is not None and f.factor == "Y" and f.arity > 0:
                    n = f.arity
                    cols = []
                    for j in range(n):
                        row = tuple(App(z, ()) if i in z_pos
                                    else t.children[i].children[j]
                                    for i in range(m))
                        cols.append(App(h, row))
                    yield App(f, tuple(cols)), "a" if not z_pos else "b"


def _redexes(pool: SymbolPool, t: Term, mode: RewriteMode
             ) -> list[tuple[Term, Term, str, Path]]:
    """Every local redex of t as (subterm, reduct, rule, path), children
    before their parent and left before right, so the first is the
    leftmost-innermost redex."""
    local = _local_rules(pool, mode)
    out = []

    def walk(s: Term, path: Path) -> None:
        if isinstance(s, App):
            for i, c in enumerate(s.children):
                walk(c, path + (i,))
            for reduct, rule in local(pool, s):
                out.append((s, reduct, rule, path))

    walk(t, ())
    return out


def one_step_reducts(pool: SymbolPool, t: Term, mode: RewriteMode
                     ) -> list[tuple[Term, str, Path]]:
    """Every legal single substitution at every position, exactly once."""
    return [(replace_at(t, path, reduct), rule, path)
            for _, reduct, rule, path in _redexes(pool, t, mode)]


def _measurer(pool: SymbolPool, mode: RewriteMode):
    """The complexity of terms at any depth, memoized by node identity.

    Both measures are sums over the nodes of a value that depends only on
    the node and its depth d: 1 per symbol in coproduct mode; in tensor
    mode 1 per symbol other than z, plus d times the arity of each
    Y-symbol.  So a term standing at depth d weighs a + d*b, where a is
    its complexity and b the total arity of its Y-symbols (0 in coproduct
    mode), and contracting a subterm at depth d changes the complexity of
    the whole term by exactly the change of a + d*b.  The memo holds each
    key node, so no id is reused while it lives.
    """
    tensor = mode.kind == "tensor"
    z = pool.z
    memo: dict[int, tuple[Term, int, int]] = {}

    def measure(s: Term) -> tuple[int, int]:
        if isinstance(s, Var):
            return 0, 0
        hit = memo.get(id(s))
        if hit is not None:
            return hit[1], hit[2]
        a = b = 0
        for c in s.children:
            ca, cb = measure(c)
            a += ca + cb
            b += cb
        if not tensor:
            a += 1
        else:
            a += s.symbol != z
            if s.symbol.factor == "Y":
                b += s.symbol.arity
        memo[id(s)] = (s, a, b)
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

    The memo maps id(node) to (node, normal form); it holds each key node,
    so no id is reused while the memo lives.  Without a trace it keeps
    every node it normalizes.  A one-step reduct shares every subtree off
    its redex path with its term, so it is normalized along that path
    only.  With a trace it keeps only nodes known to be normal, so a
    subterm object that stands at two positions records its steps at
    each, and every step is appended as a Step on the whole term.

    Each contraction must lower the complexity of the whole term, which
    is computed from the contracted subterm at its depth, and a term t
    gets at most complexity(t) steps.
    """
    local = _local_rules(pool, mode)
    measure = _measurer(pool, mode)
    memo: dict[int, tuple[Term, Term]] = {}
    path: list[int] = []
    whole: Optional[Term] = None  # the whole term, for the trace
    left = 0  # steps left in the budget

    def norm(s: Term, depth: int) -> Term:
        nonlocal whole, left
        if isinstance(s, Var):
            return s
        hit = memo.get(id(s))
        if hit is not None:
            return hit[1]
        start = node = s
        while True:
            kids = node.children
            if kids:
                new, changed = [], False
                for i, c in enumerate(kids):
                    path.append(i)
                    k = norm(c, depth + 1)
                    path.pop()
                    new.append(k)
                    changed = changed or k is not c
                if changed:
                    node = App(node.symbol, tuple(new))
            hit = next(iter(local(pool, node)), None)
            if hit is None:
                memo[id(node)] = (node, node)
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
            if isinstance(reduct, Var):
                node = reduct
                break
            hit = memo.get(id(reduct))
            if hit is not None:
                node = hit[1]
                break
            node = reduct
        if trace is None:
            memo[id(start)] = (start, node)
        return node

    def normal_form(t: Term) -> Term:
        nonlocal whole, left
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

    def renumber(s: Term) -> Term:
        if isinstance(s, Var):
            return Var(perm[-s.index - 1])
        return App(s.symbol, tuple(renumber(c) for c in s.children))

    return renumber(t)


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
    for _ in range(count):
        t = fuzz_term(pool, rng, max_symbols, symbols)
        # the fuzzed terms share no node, so a memo per term loses no
        # work, and memory does not grow with count
        normal = _normalizer(pool, mode)
        reducts = one_step_reducts(pool, t, mode)
        for a in range(len(reducts)):
            for b in range(a + 1, len(reducts)):
                joins.checked += 1
                if normal(reducts[a][0]) != normal(reducts[b][0]):
                    joins.counterexample = joins.counterexample or {
                        "term": format_term(t),
                        "left": format_term(reducts[a][0]),
                        "right": format_term(reducts[b][0])}
        n = term_arity(t)
        g = rng.randrange(pool.group.order)
        sigma = random_perm(rng, n)
        moved = act_g(pool, g, act_sigma(t, sigma))
        lhs = normal(moved)
        nf = normal(t)
        rhs = act_g(pool, g, act_sigma(nf, sigma))
        equiv.checked += 1
        if lhs != rhs:
            equiv.counterexample = equiv.counterexample or {
                "term": format_term(t), "g": g, "sigma": list(sigma),
                "reduced then moved": format_term(rhs),
                "moved then reduced": format_term(lhs)}
        args = [fuzz_term(pool, rng, 3, symbols) for _ in range(n)]
        whole = gamma(t, args)
        nf_whole = normal(whole)
        outer.checked += 1
        via_outer = normal(gamma(nf, args))
        if nf_whole != via_outer:
            outer.counterexample = outer.counterexample or {
                "term": format_term(t), "whole": format_term(nf_whole),
                "outer-first": format_term(via_outer)}
        inner.checked += 1
        reduced_args = [normal(s) for s in args]
        via_inner = normal(gamma(t, reduced_args))
        if nf_whole != via_inner:
            inner.counterexample = inner.counterexample or {
                "term": format_term(t), "whole": format_term(nf_whole),
                "inner-first": format_term(via_inner)}
    return CriteriaReport([joins, equiv, outer, inner])


# ---------------------------------------------------------------------------
# pools for the standard factors


def as_pool(G: Group, max_arity: int, factor: str = "X") -> SymbolPool:
    """A slice of the associativity operad: one symbol per arity, trivial
    group action, full composite table within the slice."""
    symbols = [OpSymbol(factor, n, n) for n in range(max_arity + 1)]
    by_arity = {s.arity: s for s in symbols}
    g_action = {(s, g): (s, identity_perm(s.arity))
                for s in symbols for g in G.elements()}
    comp = {}
    for h in symbols:
        for f in symbols:
            target = h.arity + f.arity - 1
            if h.arity == 0 or target > max_arity:
                continue
            for k in range(1, h.arity + 1):
                comp[(h, k, f)] = (by_arity[target], identity_perm(target))
    identity = by_arity.get(1)
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


def orbit_symbols(orb: GraphSubgroup, factor: str, start: int
                  ) -> tuple[list[OpSymbol], dict, dict]:
    """Sigma-orbit representative symbols of one free orbit.

    There is one symbol per coset aH; the group action table follows
    g . f_aH = f_gaH . sigma_T(b^-1 g a) with b the coset representative.
    """
    G = orb.group
    reps, number = cosets(G, G.elements(), orb.subgroup)
    symbols = [OpSymbol(factor, start + i, orb.arity) for i in range(len(reps))]
    action = {}
    for sym, r in zip(symbols, reps):
        for g in G.elements():
            ga = G.mul[g][r]
            j = number[ga]
            h = G.mul[G.inv[reps[j]]][ga]
            action[(sym, g)] = (symbols[j], orb.hset.act_of(h))
    # the identity coset comes first, since 0 is the least element
    return symbols, action, {orb: symbols[0]}


@dataclass(frozen=True)
class FactorPart:
    """One free model as one factor: its validated symbol pool, the
    basepoint symbol of each orbit, and its generator witness table."""

    pool: SymbolPool
    base: dict
    table: "WitnessTable"


@functools.cache
def _factor_part(factor: str, group: Group, levels: tuple) -> FactorPart:
    from .operads import SymmetricSequence

    symbols, action = marked_symbols(group, factor)
    base = {}
    for _, orbits in levels:
        for orb in orbits:
            syms, acts, b = orbit_symbols(orb, factor, len(symbols))
            symbols.extend(syms)
            action.update(acts)
            base.update(b)
    pool = SymbolPool(group, symbols, action)
    seq = SymmetricSequence(group, dict(levels))
    return FactorPart(pool, base, WitnessTable(pool, seq, base))


def factor_part(seq, factor: str) -> FactorPart:
    """The factor part of a free model, built once per orbit content."""
    return _factor_part(factor, seq.group, tuple(sorted(seq.levels.items())))


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


def fixed_perm(pool: SymbolPool, t: Term, g: int) -> Optional[Perm]:
    """The permutation pi with g * t = t . pi, if one exists."""
    moved = act_g(pool, g, t)
    n = term_arity(t)
    pi = [None] * n

    def walk(a: Term, b: Term) -> bool:
        if isinstance(a, Var) != isinstance(b, Var):
            return False
        if isinstance(a, Var):
            # b carries x_j at the position where t . pi has x_{pi^-1 i}
            j = b.index - 1
            i = a.index - 1
            if not (0 <= i < n and 0 <= j < n):
                return False
            if pi[j] is not None and pi[j] != i:
                return False
            pi[j] = i
            return True
        if a.symbol != b.symbol:
            return False
        return all(walk(ca, cb) for ca, cb in zip(a.children, b.children))

    if not walk(t, moved):
        return None
    if any(v is None for v in pi):
        return None
    return tuple(pi)


def fixed_structure(pool: SymbolPool, t: Term, H: Subgroup
                    ) -> Optional[FiniteGSet]:
    """The H-set on the variable slots of t exhibited by its fixedness
    under the graph of that action, or None if t is not fixed."""
    n = term_arity(t)
    rows = []
    for h in H.members:
        pi = fixed_perm(pool, t, h)
        if pi is None:
            return None
        rows.append(pi)
    try:
        return FiniteGSet(H, n, tuple(rows))
    except GroupError:
        return None


def _exhibits(pool: SymbolPool, t: Term, structure: FiniteGSet) -> bool:
    """Whether t is fixed under the graph of an already validated action,
    with exactly that action on its slots.  Rows equal to an action's rows
    are an action, so no FiniteGSet is built."""
    return all(fixed_perm(pool, t, h) == row
               for h, row in zip(structure.subgroup.members, structure.act))


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
        from .operads import symseq_transfer

        lat = lattice_of(symseq.group)
        self.transfer = symseq_transfer(symseq)
        self.witnesses: dict[tuple[int, int], Witness] = {}
        for n in sorted(symseq.levels):
            for orb in symseq.levels[n]:
                H = orb.subgroup
                k_id, h_id = orb.hset.stabilizer_ids[0], lat.id_of(H)
                term = App(base[orb], tuple(Var(i + 1) for i in range(n)))
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
    theirs, so a pair builds and validates nothing of its own.
    """

    def __init__(self, S, T):
        from .transfer import join

        self.pool, x, y = _pair_parts(S, T)
        self.lat = lattice_of(S.group)
        self.table_x, self.table_y = x.table, y.table
        self.join = join(self.table_x.transfer, self.table_y.transfer)

    def _chain(self, k_id: int, h_id: int):
        parents: dict[int, Optional[tuple]] = {k_id: None}
        frontier = [k_id]
        while frontier and h_id not in parents:
            nxt = []
            for cur in frontier:
                for table in (self.table_x, self.table_y):
                    for (a, b) in table.witnesses:
                        if a == cur and b not in parents:
                            parents[b] = (cur, table)
                            nxt.append(b)
            frontier = nxt
        if h_id not in parents:
            raise RewriteError(
                f"no factorization chain found for ({k_id},{h_id}); "
                "join computation is inconsistent")
        chain = []
        node = h_id
        while parents[node] is not None:
            prev, table = parents[node]
            chain.append((prev, node, table))
            node = prev
        chain.reverse()
        return chain

    def witness(self, k_id: int, h_id: int, mode: RewriteMode
                ) -> AdmissibilityWitness:
        if not self.join.has(k_id, h_id):
            raise RewriteError(f"pair ({k_id},{h_id}) is not in the join")
        chain = self._chain(k_id, h_id)
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
        nf = _normalizer(self.pool, mode)(witness.term)
        return AdmissibilityWitness((k_id, h_id), witness.term,
                                    witness.subgroup, witness.structure,
                                    nf, mode.kind,
                                    _exhibits(self.pool, nf, witness.structure))

