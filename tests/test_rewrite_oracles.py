"""The redex walk, normal-form joinability, the generator witness tables
and the pair pools against the seed rewriting code, kept here as oracles:
the pre-order redex list ranked by `_pick_leftmost_innermost`, the
normalizer built on it, joinability by intersecting full descendant sets
(`_descendants`), the witness table that re-ran the transfer-system
closure on terms (`SeedWitnessTable._saturate`), and the pair pool built
and validated whole for every pair (`seed_pool_from_free_models`).

The normalizer that restarted its post-order walk from the root after
every step and weighed the whole term after every step
(`restart_reduce_term`, random strategy included), `check_criteria` with
normal forms cached by structure on top of it, and join witnesses
verified by building a `FiniteGSet` for the normal form are kept as
oracles too (`restart_check_criteria`, `restart_witness`), and so is the
normalizer whose memo was keyed on node identity (`identity_normalizer`),
against the one keyed on term value.  So are the
local rules, `act_g` and `fixed_perm` that read the `g_action` and
`compose_table` dicts a pool is built from (`dict_local_coproduct`,
`dict_local_tensor`, `dict_act_g`, `dict_fixed_perm`), against the action
rows and composite tables the pool builds from them.  The pool keeps only
its rows and composites, so the `dict_tables` fixture records the dicts.
The `fixed_perm` that recursed through a closure, one `all` generator per
node (`recursive_fixed_perm`), is kept against the flat worklist."""

import copy
import functools
import random
import weakref
from collections import Counter

import pytest

from transys import rewrite
from transys.catalog import group_by_name
from transys.operads import free_model, symseq_transfer
from transys.rewrite import (
    COPRODUCT,
    TENSOR,
    AdmissibilityWitness,
    App,
    CriteriaReport,
    CriterionReport,
    OpSymbol,
    RewriteError,
    Step,
    SymbolPool,
    Var,
    Witness,
    WitnessFactory,
    WitnessTable,
    _compose_witnesses,
    _drop,
    _exhibits,
    _local_coproduct,
    _local_rules,
    _local_tensor,
    _measurer,
    _normalizer,
    act_g,
    act_sigma,
    as_pool,
    check_criteria,
    complexity,
    factor_part,
    fixed_perm,
    fixed_structure,
    format_term,
    fuzz_term,
    gamma,
    marked_symbols,
    one_step_reducts,
    orbit_symbols,
    pool_from_free_models,
    random_perm,
    reduce_term,
    replace_at,
    substitute,
    symbol_count,
    term_arity,
)
from transys.groups import (
    FiniteGSet,
    Subgroup,
    identity_perm,
    invert,
    iso_key,
    lattice_of,
)
from transys.transfer import enumerate_transfer_systems, join

TERMS_PER_MODE = 1000


# ---------------------------------------------------------------------------
# seed code


def seed_stabilizer(T, x):
    return Subgroup(T.group, tuple(g for g in T.subgroup.members
                                   if T.act_of(g)[x] == x))


def seed_restrict(T, L):
    return FiniteGSet(L, T.size, tuple(T.act_of(g) for g in L.members))


def seed_one_step_reducts(pool, t, mode):
    local = _local_coproduct if mode.kind == "coproduct" else _local_tensor
    out = []

    def walk(s, path):
        for reduct, rule in local(pool, s):
            out.append((replace_at(t, path, reduct), rule, path))
        if isinstance(s, App):
            for i, c in enumerate(s.children):
                walk(c, path + (i,))

    walk(t, ())
    return out


def _pick_leftmost_innermost(reducts):
    paths = [r[2] for r in reducts]
    best = None
    for i, p in enumerate(paths):
        inner = not any(q != p and q[:len(p)] == p for q in paths)
        if inner and (best is None or p < paths[best]):
            best = i
    return best


def seed_reduce_term(pool, t, mode):
    budget = complexity(pool, t, mode)
    trace = []
    current = t
    for _ in range(budget + 1):
        reducts = seed_one_step_reducts(pool, current, mode)
        if not reducts:
            return current, trace
        after, rule, path = reducts[_pick_leftmost_innermost(reducts)]
        if complexity(pool, after, mode) >= complexity(pool, current, mode):
            raise RewriteError(
                f"rule {rule} failed to decrease complexity at {path}")
        trace.append(Step(rule, path, current, after))
        current = after
    raise RewriteError("step budget exceeded; descent is broken")


def seed_plug_orbit(w, positions, filler):
    keep = set(positions)
    args = [Var(1) if q in keep else App(filler, ())
            for q in range(w.structure.size)]
    return gamma(w.term, args)


def seed_compose_witnesses(pool, inner, outer):
    struct = outer.structure
    H = outer.subgroup
    j_members = inner.subgroup.member_set
    base = next(p for p in range(struct.size)
                if seed_stabilizer(struct, p).member_set == j_members)
    args = []
    for q in range(struct.size):
        h = next(h for h in H.members if struct.act_of(h)[base] == q)
        args.append(act_g(pool, h, inner.term))
    return gamma(outer.term, args)


class SeedWitnessTable:
    """Identity witnesses, plugged generators, then a fixpoint of
    conjugation, restriction by plugging and composition."""

    def __init__(self, pool, symseq, factor, base):
        self.pool = pool
        self.group = symseq.group
        self.lat = lattice_of(self.group)
        self.filler = next(s for s in pool.symbols
                           if s.factor == factor and s.arity == 0)
        self.transfer = symseq_transfer(symseq)
        self.witnesses = {}
        # the verdict store a factory reads on every table it holds
        self.verdicts, self.masks = {}, {"coproduct": 0, "tensor": 0}
        for i in range(self.lat.count):
            self._insert(i, i, Var(1))
        for orb in symseq.orbits:
            t0 = App(base[orb], tuple(Var(i + 1) for i in range(orb.size)))
            w0 = self._checked(self.lat.id_of(orb.subgroup), t0)
            for orbit, k_id in zip(orb.orbits(), orb.stabilizer_ids):
                plugged = seed_plug_orbit(w0, orbit, self.filler)
                self._insert(k_id, self.lat.id_of(orb.subgroup), plugged)
        self.generated = len(self.witnesses)
        self._saturate()
        missing = set(self.transfer.pairs()) - set(self.witnesses)
        if missing:
            raise RewriteError(
                f"witness saturation missed transfer pairs {sorted(missing)}")

    def _checked(self, h_id, term):
        H = self.lat.subgroups[h_id]
        struct = fixed_structure(self.pool, term, H)
        if struct is None:
            raise RewriteError(f"term is not fixed under {H}")
        return Witness(term, H, struct)

    def _insert(self, k_id, h_id, term):
        if (k_id, h_id) in self.witnesses:
            return False
        w = self._checked(h_id, term)
        if iso_key(w.structure) != (self.lat.hclass_rep(h_id, k_id),):
            raise RewriteError(f"witness structure mismatch for ({k_id},{h_id})")
        self.witnesses[(k_id, h_id)] = w
        return True

    def _saturate(self):
        lat = self.lat
        changed = True
        while changed:
            changed = False
            for (i, j), w in list(self.witnesses.items()):
                for g in self.group.elements():
                    ci, cj = lat.conj_table[g][i], lat.conj_table[g][j]
                    if (ci, cj) not in self.witnesses:
                        changed |= self._insert(ci, cj,
                                                act_g(self.pool, g, w.term))
                for l in lat.ids_below(j):
                    target = (lat.meet_table[l][i], l)
                    if target in self.witnesses:
                        continue
                    L = lat.subgroups[l]
                    base = next(p for p in range(w.structure.size)
                                if lat.id_of(seed_stabilizer(w.structure, p))
                                == i)
                    restricted = seed_restrict(w.structure, L)
                    l_orbit = next(o for o in restricted.orbits() if base in o)
                    plugged = seed_plug_orbit(
                        Witness(w.term, L, restricted),
                        l_orbit, self.filler)
                    changed |= self._insert(target[0], target[1], plugged)
            for (i, j1), w1 in list(self.witnesses.items()):
                for (j2, k), w2 in list(self.witnesses.items()):
                    if j1 != j2 or (i, k) in self.witnesses or i == j1 or j2 == k:
                        continue
                    term = seed_compose_witnesses(self.pool, w1, w2)
                    changed |= self._insert(i, k, term)

    def witness(self, k_id, h_id):
        return self.witnesses[(k_id, h_id)]


def seed_pool_from_free_models(S, T):
    """Both factors' symbols and tables built afresh for the pair, then
    the whole pool validated."""
    if S.group != T.group:
        raise RewriteError("factors live over different groups")
    G = S.group
    symbols = []
    action = {}
    base_x = {}
    base_y = {}
    for factor, seq, base in (("X", S, base_x), ("Y", T, base_y)):
        marked, marked_action = marked_symbols(G, factor)
        symbols.extend(marked)
        action.update(marked_action)
        next_id = 2
        for orb in seq.orbits:
            syms, acts, b = orbit_symbols(orb, factor, next_id)
            next_id += len(syms)
            symbols.extend(syms)
            action.update(acts)
            base.update(b)
    z = next(s for s in symbols if s.factor == "Y" and s.arity == 0)
    pool = SymbolPool(G, symbols, action, z=z)
    return pool, base_x, base_y


def _descendants(pool, t, mode, cache):
    if t in cache:
        return cache[t]
    seen = {t}
    for reduct, _, _ in seed_one_step_reducts(pool, t, mode):
        seen |= _descendants(pool, reduct, mode, cache)
    out = frozenset(seen)
    cache[t] = out
    return out


def restart_redexes(pool, t, mode):
    """The post-order walk, each hit as (whole reduct, rule, path)."""
    local = _local_coproduct if mode.kind == "coproduct" else _local_tensor

    def walk(s, path):
        if isinstance(s, App):
            for i, c in enumerate(s.children):
                yield from walk(c, path + (i,))
        for reduct, rule in local(pool, s):
            yield replace_at(t, path, reduct), rule, path

    return walk(t, ())


def restart_complexity(pool, t, mode):
    if mode.kind == "coproduct":
        return symbol_count(t)
    z = pool.z

    def walk(s, depth):
        if isinstance(s, Var):
            return 0
        total = 0
        if s.symbol != z:
            total += 1
        if s.symbol.factor == "Y":
            total += depth * s.symbol.arity
        return total + sum(walk(c, depth + 1) for c in s.children)

    return walk(t, 0)


def restart_reduce_term(pool, t, mode, strategy="leftmost_innermost",
                        seed=None):
    """Walks again from the root after every step: its first hit, or a
    uniform draw from the whole walk; weighs the whole term each step."""
    budget = weight = restart_complexity(pool, t, mode)
    rng = random.Random(seed) if strategy == "random" else None
    trace = []
    current = t
    for _ in range(budget + 1):
        if rng is None:
            hit = next(restart_redexes(pool, current, mode), None)
        else:
            reducts = list(restart_redexes(pool, current, mode))
            hit = reducts[rng.randrange(len(reducts))] if reducts else None
        if hit is None:
            return current, trace
        after, rule, path = hit
        after_weight = restart_complexity(pool, after, mode)
        if after_weight >= weight:
            raise RewriteError(
                f"rule {rule} failed to decrease complexity at {path}")
        trace.append(Step(rule, path, current, after))
        current, weight = after, after_weight
    raise RewriteError("step budget exceeded; descent is broken")


def restart_check_criteria(pool, mode, count=200, seed=0, max_symbols=8,
                           symbols=None):
    """`check_criteria` on `restart_reduce_term`, with the normal forms
    of the reducts, the term and the arguments cached by structure."""
    rng = random.Random(seed)
    joins = CriterionReport("local joinability")
    equiv = CriterionReport("equivariance of reduction")
    outer = CriterionReport("congruence in the outer slot")
    inner = CriterionReport("congruence in the inner slots")
    normal_forms = {}

    def normal(s):
        if s not in normal_forms:
            normal_forms[s] = restart_reduce_term(pool, s, mode)[0]
        return normal_forms[s]

    for _ in range(count):
        t = fuzz_term(pool, rng, max_symbols, symbols)
        reducts = list(restart_redexes(pool, t, mode))
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
        lhs, _ = restart_reduce_term(pool, moved, mode)
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
        nf_whole, _ = restart_reduce_term(pool, whole, mode)
        outer.checked += 1
        via_outer, _ = restart_reduce_term(pool, gamma(nf, args), mode)
        if nf_whole != via_outer:
            outer.counterexample = outer.counterexample or {
                "term": format_term(t), "whole": format_term(nf_whole),
                "outer-first": format_term(via_outer)}
        inner.checked += 1
        reduced_args = [normal(s) for s in args]
        via_inner, _ = restart_reduce_term(pool, gamma(t, reduced_args), mode)
        if nf_whole != via_inner:
            inner.counterexample = inner.counterexample or {
                "term": format_term(t), "whole": format_term(nf_whole),
                "inner-first": format_term(via_inner)}
    return CriteriaReport([joins, equiv, outer, inner])


def restart_witness(factory, k_id, h_id, mode):
    """`WitnessFactory.witness`, reducing with `restart_reduce_term` and
    verifying the normal form by a validated `FiniteGSet`."""
    if not factory.join.has(k_id, h_id):
        raise RewriteError(f"pair ({k_id},{h_id}) is not in the join")
    chain = factory._chain(k_id, h_id)
    first = chain[0]
    witness = first[2].witness(first[0], first[1])
    for prev, node, table in chain[1:]:
        outer = table.witness(prev, node)
        term = _compose_witnesses(factory.pool, witness, outer)
        H = factory.lat.subgroups[node]
        witness = Witness(term, H, fixed_structure(factory.pool, term, H))
    nf, _ = restart_reduce_term(factory.pool, witness.term, mode)
    nf_struct = fixed_structure(factory.pool, nf, witness.subgroup)
    verified = (nf_struct is not None
                and tuple(nf_struct.act) == tuple(witness.structure.act))
    return AdmissibilityWitness((k_id, h_id), witness.term, witness.subgroup,
                                witness.structure, nf, mode.kind, verified)


def identity_normalizer(pool, mode, trace=None):
    """`_normalizer` with its memo keyed on id(node), holding each key node
    so that no id is reused while it lives: only the very objects it has
    normalized are not reduced again."""
    local = _local_rules(pool, mode)
    measure = _measurer(pool, mode)
    memo = {}
    path = []
    whole = None
    left = 0

    def norm(s, depth):
        nonlocal whole, left
        if type(s) is Var:
            return s
        hit = memo.get(id(s))
        if hit is not None:
            return hit[1]
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
            node = reduct
            if type(node) is Var:
                break
            hit = memo.get(id(node))
            if hit is not None:
                node = hit[1]
                break
        if trace is None:
            memo[id(start)] = (start, node)
        return node

    def normal_form(t):
        nonlocal whole, left
        whole, left = t, measure(t)[0]
        return norm(t, 0)

    return normal_form


# ---------------------------------------------------------------------------
# seeded term streams


def _tensor_config():
    C2 = group_by_name("C2")
    S = free_model(enumerate_transfer_systems(C2)[-1])
    pool, _, _ = pool_from_free_models(S, S)
    return pool, TENSOR, None, 12


def _coproduct_config():
    pool = as_pool(group_by_name("C2"), 40)
    return pool, COPRODUCT, [s for s in pool.symbols if s.arity <= 3], 8


CONFIGS = {"tensor": _tensor_config, "coproduct": _coproduct_config}


@functools.cache
def _terms(label):
    pool, mode, symbols, max_symbols = CONFIGS[label]()
    rng = random.Random(0)
    terms = [fuzz_term(pool, rng, max_symbols, symbols)
             for _ in range(TERMS_PER_MODE)]
    return pool, mode, terms


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_walk_matches_seed_redexes_and_normalizer(label):
    pool, mode, terms = _terms(label)
    steps = 0
    for t in terms:
        assert (Counter(one_step_reducts(pool, t, mode))
                == Counter(seed_one_step_reducts(pool, t, mode)))
        nf, trace = reduce_term(pool, t, mode)
        seed_nf, seed_trace = seed_reduce_term(pool, t, mode)
        assert nf == seed_nf
        assert trace == seed_trace  # rule, path, before, after at each step
        steps += len(trace)
    assert steps > 200  # the stream does exercise reduction


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_normal_form_joinability_matches_descendants(label):
    pool, mode, terms = _terms(label)
    cache: dict = {}
    pairs = 0
    for t in terms:
        reducts = one_step_reducts(pool, t, mode)
        for a in range(len(reducts)):
            for b in range(a + 1, len(reducts)):
                left, right = reducts[a][0], reducts[b][0]
                by_normal_form = (reduce_term(pool, left, mode)[0]
                                  == reduce_term(pool, right, mode)[0])
                by_descendants = bool(_descendants(pool, left, mode, cache)
                                      & _descendants(pool, right, mode, cache))
                assert by_normal_form == by_descendants, (t, left, right)
                pairs += 1
    assert pairs > 200


def _nonconfluent_pool():
    """h(h(x, y), z) -> a(x, y, z) and h(x, h(y, z)) -> b(x, y, z) with a
    and b distinct ternary symbols: the overlap has two normal forms."""
    h, a, b = OpSymbol("X", 0, 2), OpSymbol("X", 1, 3), OpSymbol("X", 2, 3)
    pool = SymbolPool(group_by_name("C1"), [h, a, b],
                      {(s, 0): (s, identity_perm(s.arity)) for s in (h, a, b)},
                      compose_table={(h, 1, h): (a, identity_perm(3)),
                                     (h, 2, h): (b, identity_perm(3))})
    return pool, h


def test_local_joinability_can_fail(parse_term):
    pool, h = _nonconfluent_pool()
    rep = check_criteria(pool, COPRODUCT, count=50, seed=1, max_symbols=6,
                         symbols=[h])
    joins = rep.reports[0]
    assert joins.name == "local joinability"
    assert not rep.passed and not joins.passed
    left = parse_term(joins.counterexample["left"], pool)
    right = parse_term(joins.counterexample["right"], pool)
    assert (reduce_term(pool, left, COPRODUCT)[0]
            != reduce_term(pool, right, COPRODUCT)[0])
    cache: dict = {}
    assert not (_descendants(pool, left, COPRODUCT, cache)
                & _descendants(pool, right, COPRODUCT, cache))


# ---------------------------------------------------------------------------
# the normalizer without restarts against the restarting one

@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_random_strategy_matches_restarting_loop(label):
    pool, mode, terms = _terms(label)
    steps = 0
    for t in terms:
        assert complexity(pool, t, mode) == restart_complexity(pool, t, mode)
        for seed in range(3):
            nf, trace = reduce_term(pool, t, mode, strategy="random",
                                    seed=seed)
            assert (nf, trace) == restart_reduce_term(pool, t, mode,
                                                      "random", seed)
            steps += len(trace)
    assert steps > 200


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_memoized_normal_forms_match_traced(label):
    """One memo for the whole stream: every term and every one-step
    reduct, whose subtrees off the redex path are the term's own."""
    pool, mode, terms = _terms(label)
    normal = _normalizer(pool, mode)
    for t in terms:
        for s in [r for r, _, _ in one_step_reducts(pool, t, mode)] + [t]:
            assert normal(s) == restart_reduce_term(pool, s, mode)[0]


def _nodes(t):
    if isinstance(t, App):
        yield t
        for c in t.children:
            yield from _nodes(c)


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_reducts_are_normalized_along_their_redex_path_only(label,
                                                            monkeypatch):
    """Once a term is normalized, no node of it is looked at again when
    the normalizer takes one of its one-step reducts."""
    pool, mode, terms = _terms(label)
    seen = []
    name = "_local_coproduct" if label == "coproduct" else "_local_tensor"
    rules = getattr(rewrite, name)
    monkeypatch.setattr(rewrite, name,
                        lambda pool, s: seen.append(s) or rules(pool, s))
    looked_at = 0
    for t in terms:
        normal = _normalizer(pool, mode)
        normal(t)
        own = {id(s) for s in _nodes(t)}
        for r, _, _ in one_step_reducts(pool, t, mode):
            seen.clear()
            normal(r)
            assert not any(id(s) in own for s in seen)
            looked_at += len(seen)
    assert looked_at > 200


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_check_criteria_matches_restarting_normalizer(label):
    pool, mode, symbols, max_symbols = CONFIGS[label]()
    for seed in range(3):
        args = dict(count=100, seed=seed, max_symbols=max_symbols,
                    symbols=symbols)
        assert (check_criteria(pool, mode, **args).to_json()
                == restart_check_criteria(pool, mode, **args).to_json())


def test_check_criteria_counterexamples_match_restarting_normalizer():
    pool, h = _nonconfluent_pool()
    failed = 0
    for seed in range(6):
        args = dict(count=30, seed=seed, max_symbols=6, symbols=[h])
        report = check_criteria(pool, COPRODUCT, **args).to_json()
        assert report == restart_check_criteria(pool, COPRODUCT,
                                                **args).to_json()
        failed += not report["passed"]
    assert failed


def _twin_subterms(label, fresh):
    """A term p(s, s) whose two children are one reducible App object, or
    with fresh=True two equal but distinct ones."""
    pool, mode, _, _ = CONFIGS[label]()
    p = next(s for s in pool.symbols if s.factor == "X" and s.arity == 2)
    u = next(s for s in pool.symbols if s.factor == "X" and s.arity == 0)
    shared = App(p, (App(u, ()), App(u, ())))
    twin = substitute(shared, Var) if fresh else shared
    assert twin == shared and (twin is not shared) == fresh
    return pool, mode, App(p, (shared, twin))


def _assert_steps_at_both_positions(pool, mode, t):
    nf, trace = reduce_term(pool, t, mode)
    assert (nf, trace) == seed_reduce_term(pool, t, mode)
    assert {step.path[0] for step in trace if step.path} == {0, 1}
    assert _normalizer(pool, mode)(t) == nf


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_shared_subterm_records_its_steps_at_each_position(label):
    """One reducible App object at two positions: the traced normalizer
    memoizes only normal nodes, so it takes the steps at both."""
    _assert_steps_at_both_positions(*_twin_subterms(label, fresh=False))


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_equal_subterms_record_their_steps_at_each_position(label):
    """Two equal but distinct reducible objects: the memo is keyed by
    value, yet the trace still takes the steps at both positions."""
    _assert_steps_at_both_positions(*_twin_subterms(label, fresh=True))


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_equal_copy_of_a_normalized_term_is_not_reduced_again(label,
                                                              monkeypatch):
    """A copy of a normalized term made of fresh nodes hits the memo: no
    local rule is called on any of its nodes."""
    pool, mode, terms = _terms(label)
    seen = []
    name = "_local_coproduct" if label == "coproduct" else "_local_tensor"
    rules = getattr(rewrite, name)
    monkeypatch.setattr(rewrite, name,
                        lambda pool, s: seen.append(s) or rules(pool, s))
    copies = 0
    for t in terms:
        normal = _normalizer(pool, mode)
        done = [t] + [r for r, _, _ in one_step_reducts(pool, t, mode)]
        forms = [normal(s) for s in done]
        seen.clear()
        for s, nf in zip(done, forms):
            copy_of_s = substitute(s, Var)
            copies += copy_of_s is not s
            assert normal(copy_of_s) == nf
        assert seen == []
    assert copies > 500


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_value_memo_matches_identity_memo(label):
    """Normal forms of each term's reducts, the term, a moved copy and a
    composite holding a fresh copy, one memo per term as `check_criteria`
    keeps it, and the traces of `reduce_term`, against the memo keyed on
    node identity."""
    pool, mode, terms = _terms(label)
    rng = random.Random(1)
    steps = 0
    for t in terms:
        n = term_arity(t)
        g = rng.randrange(pool.group.order)
        moved = act_g(pool, g, act_sigma(t, random_perm(rng, n)))
        composite = gamma(t, [substitute(t, Var) if i == 0 else Var(1)
                              for i in range(n)])
        normal, oracle = _normalizer(pool, mode), identity_normalizer(pool, mode)
        for s in ([r for r, _, _ in one_step_reducts(pool, t, mode)]
                  + [t, moved, composite]):
            assert normal(s) == oracle(s)
        for s in (t, composite):
            trace, oracle_trace = [], []
            assert (_normalizer(pool, mode, trace)(s)
                    == identity_normalizer(pool, mode, oracle_trace)(s))
            assert trace == oracle_trace
            steps += len(trace)
    assert steps > 200


# ---------------------------------------------------------------------------
# generator witness tables against the saturating seed table

#: every system of the small groups, and a seeded slice of D4's 294
WITNESS_SLICES = {"C4": None, "K4": None, "S3": None, "D4": 12}


@functools.cache
def _models(name):
    systems = enumerate_transfer_systems(group_by_name(name))
    size = WITNESS_SLICES[name]
    if size is not None:
        systems = random.Random(6).sample(systems, size)
    return [free_model(s) for s in systems]


@pytest.mark.parametrize("name", sorted(WITNESS_SLICES))
def test_generator_table_matches_saturating_table(name):
    lat = lattice_of(group_by_name(name))
    pairs = 0
    for S in _models(name):
        pool, base_x, _ = pool_from_free_models(S, S)
        table = WitnessTable(pool, S, base_x)
        seed = SeedWitnessTable(pool, S, "X", base_x)
        # the seed's per-subgroup identities aside, the two tables agree
        # term for term and structure for structure
        identities = {(i, i) for i in range(lat.count)}
        assert identities <= set(seed.witnesses)
        assert table.witnesses == {p: w for p, w in seed.witnesses.items()
                                   if p not in identities}
        assert seed.generated == len(seed.witnesses)  # saturation adds none
        pairs += len(table.witnesses)
    assert pairs > 0


def _translate(pool, g, w):
    """g . w, a witness for the conjugate pair."""
    term = act_g(pool, g, w.term)
    H = w.subgroup.conjugate(g)
    return Witness(term, H, fixed_structure(pool, term, H))


@pytest.mark.parametrize("name", sorted(WITNESS_SLICES))
def test_compose_witnesses_matches_seed(name):
    """Inner witnesses translated by the outer subgroup H: the inner
    subgroup is then any H-conjugate of the outer's point stabilizer, so
    the base point is not always 0."""
    composed = moved = 0
    for S in _models(name):
        pool, base_x, _ = pool_from_free_models(S, S)
        table = WitnessTable(pool, S, base_x)
        for (i, j), inner in table.witnesses.items():
            for (j2, k), outer in table.witnesses.items():
                if j2 != j:
                    continue
                for h in outer.subgroup.members:
                    a = _translate(pool, h, inner)
                    assert (_compose_witnesses(pool, a, outer)
                            == seed_compose_witnesses(pool, a, outer))
                    composed += 1
                    moved += seed_stabilizer(outer.structure, 0) != a.subgroup
    assert composed > 0
    assert moved > 0 or name in ("C4", "K4")  # abelian: conjugates coincide


def test_factory_witnesses_match_seed_tables_on_d4_slice():
    models = _models("D4")
    checked = 0
    for S, T in zip(models, models[1:] + models[:1]):
        factory = WitnessFactory(S, T)
        pairs = factory.join.pairs()
        witnesses = [factory.witness(k, h, TENSOR) for k, h in pairs]
        _, base_x, base_y = pool_from_free_models(S, T)
        factory.table_x = SeedWitnessTable(factory.pool, S, "X", base_x)
        factory.table_y = SeedWitnessTable(factory.pool, T, "Y", base_y)
        for (k_id, h_id), w in zip(pairs, witnesses):
            assert w.verified
            assert w == factory.witness(k_id, h_id, TENSOR)
            checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# pair pools as the union of factor parts, against the per-pair build

#: every pair of the small groups, and all pairs of the D4 slice's first 6
POOL_SLICES = {"C4": None, "K4": None, "S3": None, "D4": 6}


def bfs_chain(factory, k_id, h_id):
    """`WitnessFactory._chain` with no one-link shortcut: the breadth-first
    search runs for every pair."""
    chains = {k_id: []}
    frontier = [k_id]
    while frontier and h_id not in chains:
        nxt = []
        for cur in frontier:
            for table in (factory.table_x, factory.table_y):
                for (a, b) in table.witnesses:
                    if a == cur and b not in chains:
                        chains[b] = chains[cur] + [(cur, b, table)]
                        nxt.append(b)
        frontier = nxt
    return chains[h_id]


@pytest.mark.parametrize("name", sorted(POOL_SLICES))
def test_chain_matches_breadth_first_search(name):
    """Every join pair of every pair of systems (the D4 slice's first 6):
    one-link and longer pairs take the chain the search finds."""
    models = _models(name)[:POOL_SLICES[name]]
    lengths = Counter()
    for S in models:
        for T in models:
            factory = WitnessFactory(S, T)
            for k_id, h_id in factory.join.pairs():
                chain = factory._chain(k_id, h_id)
                assert chain == bfs_chain(factory, k_id, h_id)
                lengths[min(len(chain), 2)] += 1
    # the D4 slice's join pairs are all one-link
    assert lengths[1] and (lengths[2] or name == "D4")


@pytest.mark.parametrize("name", sorted(POOL_SLICES))
def test_pair_pool_matches_per_pair_build(name):
    models = _models(name)[:POOL_SLICES[name]]
    witnesses = 0
    for S in models:
        for T in models:
            pool, base_x, base_y = pool_from_free_models(S, T)
            seed, seed_x, seed_y = seed_pool_from_free_models(S, T)
            assert pool.symbols == seed.symbols
            assert pool.rows == seed.rows
            assert pool.z == seed.z
            assert (base_x, base_y) == (seed_x, seed_y)
            factory = WitnessFactory(S, T)
            oracle = copy.copy(factory)
            oracle.pool = seed
            # normalizers bound to the seed pool; the fresh tables below
            # keep verdicts of their own
            oracle._normalizers = {}
            oracle.table_x = WitnessTable(seed, S, seed_x)
            oracle.table_y = WitnessTable(seed, T, seed_y)
            oracle.join = join(oracle.table_x.transfer, oracle.table_y.transfer)
            assert factory.pool.symbols == seed.symbols
            assert factory.pool.rows == seed.rows
            assert factory.table_x.witnesses == oracle.table_x.witnesses
            assert factory.table_y.witnesses == oracle.table_y.witnesses
            assert factory.join == oracle.join
            for k_id, h_id in factory.join.pairs():
                for mode in (COPRODUCT, TENSOR):
                    # term, subgroup, structure, normal form and verdict
                    assert (factory.witness(k_id, h_id, mode)
                            == oracle.witness(k_id, h_id, mode))
                    witnesses += 1
    assert witnesses > 0


@pytest.mark.parametrize("name", sorted(POOL_SLICES))
def test_witness_verification_matches_validated_structure(name):
    """Normal form, structure and verdict of every join witness, against
    the restarting normalizer and a validated FiniteGSet of the normal
    form."""
    models = _models(name)[:POOL_SLICES[name]]
    verified = 0
    for S in models:
        for T in models:
            factory = WitnessFactory(S, T)
            for k_id, h_id in factory.join.pairs():
                for mode in (COPRODUCT, TENSOR):
                    w = factory.witness(k_id, h_id, mode)
                    assert w == restart_witness(factory, k_id, h_id, mode)
                    verified += w.verified
    assert verified > 0


@pytest.mark.parametrize("name", sorted(WITNESS_SLICES))
def test_exhibits_matches_validated_structure(name):
    """Generator terms and their translates against the generator
    structures of the same subgroup, either way round."""
    verdicts = Counter()
    for S in _models(name):
        pool, base_x, _ = pool_from_free_models(S, S)
        witnesses = WitnessTable(pool, S, base_x).witnesses.values()
        for w in witnesses:
            for g in w.subgroup.group.elements():
                term = act_g(pool, g, w.term)
                for v in witnesses:
                    if v.subgroup != w.subgroup:
                        continue
                    fs = fixed_structure(pool, term, v.subgroup)
                    expected = fs is not None and fs.act == v.structure.act
                    assert _exhibits(pool, term, v.structure) == expected
                    verdicts[expected] += 1
    assert verdicts[True] and verdicts[False]


# ---------------------------------------------------------------------------
# fixed_perm as a flat worklist, against the recursive walk


def recursive_fixed_perm(pool, t, g, n=None):
    """fixed_perm as a recursive closure over (node of t, node of g * t),
    one `all` generator per node."""
    n = term_arity(t) if n is None else n
    pi = [None] * n
    rows = pool.rows

    def walk(a, src):
        if type(src) is Var:
            i, j = a.index - 1 if type(a) is Var else -1, src.index - 1
            if not (0 <= i < n and 0 <= j < n) or pi[j] not in (None, i):
                return False
            pi[j] = i
            return True
        image, _, inv = rows[src.symbol][g]
        if type(a) is Var or a.symbol is not image:
            return False
        kids = src.children
        return all(walk(c, kids[i]) for c, i in zip(a.children, inv))

    if not walk(t, t) or None in pi:
        return None
    return tuple(pi)


def _assert_fixed_perm_matches(pool, t, counts):
    """Both walks agree for every g, with the arity given or not; with
    any other arity no permutation exists, as some slot is missed or
    some variable falls outside it."""
    n = term_arity(t)
    for g in pool.group.elements():
        perm = fixed_perm(pool, t, g)
        assert perm == recursive_fixed_perm(pool, t, g)
        assert fixed_perm(pool, t, g, n) == perm
        counts["fixed" if perm is not None else "not fixed"] += 1
        for m in {n - 1, n + 1} - {-1}:
            assert fixed_perm(pool, t, g, m) is None
            assert recursive_fixed_perm(pool, t, g, m) is None
            counts["other arity"] += 1


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_flat_fixed_perm_matches_recursive_on_streams(label):
    pool, _, terms = _terms(label)
    counts = Counter()
    for t in terms + [Var(1), Var(2)]:
        _assert_fixed_perm_matches(pool, t, counts)
    assert counts["fixed"] and counts["not fixed"] and counts["other arity"]


@pytest.mark.parametrize("name", ("C4", "S3"))
def test_flat_fixed_perm_matches_recursive_on_pair_witnesses(name):
    """Every join witness and normal form of every pair of systems, in
    both modes, under every element of the group: one outside the
    witness's subgroup need not fix it, so some return None."""
    models = _models(name)
    counts = Counter()
    for S in models:
        for T in models:
            factory = WitnessFactory(S, T)
            pool = factory.pool
            for k_id, h_id in factory.join.pairs():
                for mode in (COPRODUCT, TENSOR):
                    w = factory.witness(k_id, h_id, mode)
                    assert w.verified
                    for t in (w.term, w.normal_form):
                        _assert_fixed_perm_matches(pool, t, counts)
    assert counts["fixed"] and counts["not fixed"] and counts["other arity"]


@pytest.fixture
def fresh_parts():
    rewrite.factor_part.cache_clear()
    yield rewrite.factor_part
    rewrite.factor_part.cache_clear()


def test_broken_action_row_in_one_factor_is_rejected(fresh_parts, monkeypatch):
    """A free model whose orbit table breaks the group law on one row
    fails validation whichever side of the pair it stands on."""
    S3 = group_by_name("S3")
    systems = enumerate_transfer_systems(S3)
    S, discrete = free_model(systems[-1]), free_model(systems[0])

    def broken(orb, factor, start):
        syms, acts, b = orbit_symbols(orb, factor, start)
        acts[(syms[0], 1)] = (syms[0], identity_perm(orb.size))
        return syms, acts, b

    monkeypatch.setattr(rewrite, "orbit_symbols", broken)
    for pair in ((S, discrete), (discrete, S)):
        with pytest.raises(RewriteError, match="group law"):
            WitnessFactory(*pair)
        with pytest.raises(RewriteError, match="group law"):
            pool_from_free_models(*pair)


def test_factor_parts_are_built_once_per_system(fresh_parts, monkeypatch):
    """A full C4 pair loop builds and validates 2 x 5 factor parts, not
    2 x 25."""
    validated = []
    validate = SymbolPool.validate
    monkeypatch.setattr(SymbolPool, "validate",
                        lambda pool, *tables: validated.append(pool)
                        or validate(pool, *tables))
    models = [free_model(s)
              for s in enumerate_transfer_systems(group_by_name("C4"))]
    for S in models:
        for T in models:
            WitnessFactory(S, T)
    info = fresh_parts.cache_info()
    assert (info.misses, info.hits) == (2 * 5, 2 * 25 - 2 * 5)
    assert len(validated) == 2 * 5


def test_union_checks_group_factors_and_z():
    C2, C4 = group_by_name("C2"), group_by_name("C4")
    S = free_model(enumerate_transfer_systems(C2)[-1])
    x, y = factor_part(S, "X").pool, factor_part(S, "Y").pool
    u, p = y.symbols[:2]
    assert x.union(y, u).z == u
    with pytest.raises(RewriteError, match="z must be a nullary Y-symbol"):
        x.union(y, p)
    with pytest.raises(RewriteError, match="z must be a nullary Y-symbol"):
        x.union(y, x.symbols[0])
    with pytest.raises(RewriteError, match="share a factor"):
        x.union(x, u)
    other = factor_part(free_model(enumerate_transfer_systems(C4)[-1]), "Y")
    with pytest.raises(RewriteError, match="different groups"):
        x.union(other.pool, other.pool.symbols[0])
    # two nullary Y-symbols swapped by the group: a valid factor, but
    # neither constant is G-fixed
    a, b = OpSymbol("Y", 0, 0), OpSymbol("Y", 1, 0)
    swapped = SymbolPool(C2, [a, b], {(a, 0): (a, ()), (a, 1): (b, ()),
                                      (b, 0): (b, ()), (b, 1): (a, ())})
    with pytest.raises(RewriteError, match="z must be G-fixed"):
        x.union(swapped, a)


# ---------------------------------------------------------------------------
# the dict path: the rules, act_g and fixed_perm of the seed, reading the
# tables the pool was built from, against the interned rows and composites

#: pool -> (g_action, compose_table) it was built from, merged on union;
#: filled while the `dict_tables` fixture is in use
TABLES = weakref.WeakKeyDictionary()


@pytest.fixture
def dict_tables(monkeypatch, fresh_parts):
    validate, union = SymbolPool.validate, SymbolPool.union

    def recording_validate(pool, g_action, compose_table):
        validate(pool, g_action, compose_table)
        TABLES[pool] = (dict(g_action), dict(compose_table))

    def recording_union(pool, other, z):
        out = union(pool, other, z)
        TABLES[out] = tuple({**a, **b}
                            for a, b in zip(TABLES[pool], TABLES[other]))
        return out

    monkeypatch.setattr(SymbolPool, "validate", recording_validate)
    monkeypatch.setattr(SymbolPool, "union", recording_union)
    yield TABLES
    TABLES.clear()


def dict_act_g(pool, g, t):
    if isinstance(t, Var):
        return t
    sym2, sigma = TABLES[pool][0][(t.symbol, g)]
    inv = invert(sigma)
    return App(sym2, tuple(dict_act_g(pool, g, t.children[inv[i]])
                           for i in range(len(t.children))))


def _dict_is_z_call(pool, t):
    return isinstance(t, App) and pool.z is not None and t.symbol == pool.z


def dict_local_coproduct(pool, t):
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
        hit = TABLES[pool][1].get((h, k + 1, f))
        if hit is None:
            continue
        ell, sigma = hit
        args = t.children[:k] + child.children + t.children[k + 1:]
        inv = invert(sigma)
        reduct = App(ell, tuple(args[inv[i]] for i in range(len(args))))
        yield reduct, "c" if h.factor == "X" else "d"


def dict_local_tensor(pool, t):
    if not isinstance(t, App):
        return
    h = t.symbol
    z = pool.z
    m = h.arity
    if m > 0 and all(_dict_is_z_call(pool, c) for c in t.children):
        yield App(z, ()), "c"
    if m == 0 and h != z:
        yield App(z, ()), "d"
    if h.factor == "X" and m > 0:
        z_pos = [i for i, c in enumerate(t.children) if _dict_is_z_call(pool, c)]
        rest = [i for i in range(m) if i not in z_pos]
        if rest:
            heads = {t.children[i].symbol if isinstance(t.children[i], App)
                     else None for i in rest}
            if len(heads) == 1:
                f = heads.pop()
                if f is not None and f.factor == "Y" and f.arity > 0:
                    cols = []
                    for j in range(f.arity):
                        row = tuple(App(z, ()) if i in z_pos
                                    else t.children[i].children[j]
                                    for i in range(m))
                        cols.append(App(h, row))
                    yield App(f, tuple(cols)), "a" if not z_pos else "b"


def dict_fixed_perm(pool, t, g):
    moved = dict_act_g(pool, g, t)
    n = term_arity(t)
    pi = [None] * n

    def walk(a, b):
        if isinstance(a, Var) != isinstance(b, Var):
            return False
        if isinstance(a, Var):
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


DICT_RULES = {"coproduct": ("_local_coproduct", dict_local_coproduct),
              "tensor": ("_local_tensor", dict_local_tensor)}


def _twisted_pool():
    """Composites whose permutations are 3-cycles, so that a composite
    entry holding sigma in place of its inverse routes the arguments
    differently, and one whose slot decides the result."""
    h, f, a, b = (OpSymbol("X", 0, 2), OpSymbol("X", 1, 2),
                  OpSymbol("X", 2, 3), OpSymbol("X", 3, 3))
    return SymbolPool(group_by_name("C1"), [h, f, a, b],
                      {(s, 0): (s, identity_perm(s.arity))
                       for s in (h, f, a, b)},
                      compose_table={(h, 1, f): (a, (1, 2, 0)),
                                     (h, 2, f): (b, (2, 0, 1)),
                                     (f, 2, h): (a, (2, 0, 1))})


def _dict_path_cases():
    """(label, pool, symbols, max_symbols, stream length, extra terms)
    for the dict path."""
    as_p = as_pool(group_by_name("C2"), 40)
    nonconfluent, h = _nonconfluent_pool()
    yield ("as C2 40", as_p, [s for s in as_p.symbols if s.arity <= 3], 8,
           200, [])
    yield "nonconfluent", nonconfluent, [h], 6, 100, []
    yield "twisted", _twisted_pool(), None, 6, 100, []
    for name in sorted(WITNESS_SLICES):
        models = _models(name)
        for S, T in zip(models, models[1:] + models[:1]):
            factory = WitnessFactory(S, T)
            # fixed terms: the chain composites and their normal forms
            fixed = [w for k_id, h_id in factory.join.pairs()
                     for w in (factory.witness(k_id, h_id, TENSOR).term,
                               factory.witness(k_id, h_id, COPRODUCT)
                               .normal_form)]
            yield f"{name} pair", factory.pool, None, 8, 15, fixed


def test_dict_path_matches_rows_and_composites(monkeypatch, dict_tables):
    """Reducts (rule and order) at every node, act_g, fixed_perm and the
    traced normal forms of seeded streams in both modes, on the pools
    the benchmark and the suites use and on pair pools of four groups."""
    counts = Counter()
    for seed, case in enumerate(_dict_path_cases()):
        label, pool, symbols, max_symbols, size, fixed = case
        rng = random.Random(seed)
        generators = [App(s, tuple(Var(i + 1) for i in range(s.arity)))
                      for s in pool.symbols]
        stream = [fuzz_term(pool, rng, max_symbols, symbols)
                  for _ in range(size)]
        modes = [COPRODUCT] + [TENSOR] * (pool.z is not None)
        for t in stream + generators + fixed:
            for g in pool.group.elements():
                assert act_g(pool, g, t) == dict_act_g(pool, g, t), label
                perm = fixed_perm(pool, t, g)
                assert perm == dict_fixed_perm(pool, t, g), label
                counts["fixed"] += g != 0 and perm is not None
            for mode in modes:
                name, dict_rule = DICT_RULES[mode.kind]
                for s in _nodes(t):
                    got = list(getattr(rewrite, name)(pool, s))
                    assert got == list(dict_rule(pool, s)), (label, s)
                    counts[mode.kind] += len(got)
        for t in stream:
            for mode in modes:
                name, dict_rule = DICT_RULES[mode.kind]
                got = reduce_term(pool, t, mode)
                with monkeypatch.context() as m:
                    m.setattr(rewrite, name, dict_rule)
                    assert got == reduce_term(pool, t, mode), (label, t)
    # each mode rewrites, and fixed terms are found beyond the identity
    assert counts["coproduct"] > 500 and counts["tensor"] > 150
    assert counts["fixed"] > 1000


def test_measure_reads_memoized_children_in_place():
    """One measurer over every node of a term, children first, so that
    each parent finds its children in the memo."""
    for label in sorted(CONFIGS):
        pool, mode, terms = _terms(label)
        measure = rewrite._measurer(pool, mode)
        for t in terms[:200]:
            for s in reversed(list(_nodes(t))):
                assert measure(s)[0] == restart_complexity(pool, s, mode)
