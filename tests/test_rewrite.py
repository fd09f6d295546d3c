"""Term rewriting tests: actions, composition, the two reduction systems,
confluence criteria, and admissibility witnesses."""

import copy
import pickle
import random

import pytest

from transys import rewrite
from transys.catalog import group_by_name
from transys.groups import (
    compose,
    hset_of_orbits,
    identity_perm,
    lattice_of,
)
from transys.operads import SymmetricSequence, free_model, symseq_transfer
from transys.rewrite import (
    App,
    COPRODUCT,
    OpSymbol,
    RewriteError,
    SymbolPool,
    TENSOR,
    Var,
    WitnessFactory,
    act_g,
    act_sigma,
    as_pool,
    check_criteria,
    complexity,
    format_term,
    fuzz_term,
    gamma,
    one_step_reducts,
    pool_from_free_models,
    random_perm,
    reduce_term,
    term_arity,
)
from transys.transfer import enumerate_transfer_systems, generate, join, rel_from_pairs


def is_operadic(t):
    """Each of x1..xn occurs exactly once, n the arity of t."""
    def indices(s):
        if isinstance(s, Var):
            return [s.index]
        return [i for c in s.children for i in indices(c)]

    return sorted(indices(t)) == list(range(1, term_arity(t) + 1))


def _c2_pools():
    C2 = group_by_name("C2")
    top = enumerate_transfer_systems(C2)[-1]
    S = free_model(top)
    pool, base_x, base_y = pool_from_free_models(S, S)
    return C2, pool


def _mixed_pool():
    """X(2) symbol h over Y(1) symbol f plus the marked constants."""
    C1 = group_by_name("C1")
    h = OpSymbol("X", 0, 2)
    f = OpSymbol("Y", 0, 1)
    z = OpSymbol("Y", 1, 0)
    e = OpSymbol("X", 1, 0)
    symbols = [h, f, z, e]
    action = {(s, 0): (s, identity_perm(s.arity)) for s in symbols}
    return SymbolPool(C1, symbols, action, z=z)


def test_act_sigma_and_unit_laws():
    _, pool = _c2_pools()
    f = next(s for s in pool.symbols if s.arity == 2)
    t = App(f, (Var(1), Var(2)))
    assert act_sigma(t, identity_perm(2)) == t
    assert act_sigma(t, (1, 0)) == App(f, (Var(2), Var(1)))
    s = App(f, (Var(1), Var(2)))
    assert gamma(Var(1), [s]) == s
    assert gamma(s, [Var(1), Var(1)]) == s


def test_action_laws_fuzzed():
    C2, pool = _c2_pools()
    rng = random.Random(5)
    for _ in range(200):
        t = fuzz_term(pool, rng, 6)
        assert is_operadic(t)
        n = term_arity(t)
        g, h = rng.randrange(2), rng.randrange(2)
        assert act_g(pool, g, act_g(pool, h, t)) \
            == act_g(pool, C2.mul[g][h], t)
        s1, s2 = random_perm(rng, n), random_perm(rng, n)
        assert act_sigma(act_sigma(t, s1), s2) == act_sigma(t, compose(s1, s2))


def test_gamma_associativity_fuzzed():
    _, pool = _c2_pools()
    rng = random.Random(9)
    for _ in range(120):
        t = fuzz_term(pool, rng, 4)
        args = [fuzz_term(pool, rng, 3) for _ in range(term_arity(t))]
        arities = [term_arity(a) for a in args]
        inner = [fuzz_term(pool, rng, 2) for _ in range(sum(arities))]
        lhs = gamma(gamma(t, args), inner)
        rhs_args, off = [], 0
        for a, k in zip(args, arities):
            rhs_args.append(gamma(a, inner[off:off + k]))
            off += k
        assert lhs == gamma(t, rhs_args)


def test_gamma_is_g_equivariant():
    C2, pool = _c2_pools()
    rng = random.Random(13)
    for _ in range(150):
        t = fuzz_term(pool, rng, 5)
        args = [fuzz_term(pool, rng, 2) for _ in range(term_arity(t))]
        for g in C2.elements():
            assert act_g(pool, g, gamma(t, args)) \
                == gamma(act_g(pool, g, t), [act_g(pool, g, a) for a in args])


def test_gamma_arity_mismatch():
    _, pool = _c2_pools()
    f = next(s for s in pool.symbols if s.arity == 2)
    with pytest.raises(RewriteError):
        gamma(App(f, (Var(1), Var(2))), [Var(1)])


def test_coproduct_rules_on_as():
    C2 = group_by_name("C2")
    pool = as_pool(C2, 10)
    by = {s.arity: s for s in pool.symbols}
    # rule (a): identity elimination
    t = App(by[1], (Var(1),))
    reducts = one_step_reducts(pool, t, COPRODUCT)
    assert (Var(1), "a", ()) in reducts
    # rule (c): composite folding
    t = App(by[2], (App(by[2], (Var(1), Var(2))), Var(3)))
    nf, trace = reduce_term(pool, t, COPRODUCT)
    assert nf == App(by[3], (Var(1), Var(2), Var(3)))
    assert [s.rule for s in trace] == ["c"]
    # complexity of the coproduct mode counts symbols
    assert complexity(pool, t, COPRODUCT) == 2
    assert complexity(pool, Var(1), COPRODUCT) == 0


def test_coproduct_nontrivial_composite_permutation():
    """A composite table entry with a twist routes the arguments by it."""
    C1 = group_by_name("C1")
    h = OpSymbol("X", 0, 2)
    f = OpSymbol("X", 1, 2)
    ell = OpSymbol("X", 2, 3)
    symbols = [h, f, ell]
    action = {(s, 0): (s, identity_perm(s.arity)) for s in symbols}
    sigma = (1, 0, 2)
    pool = SymbolPool(C1, symbols, action,
                      compose_table={(h, 1, f): (ell, sigma)})
    t = App(h, (App(f, (Var(1), Var(2))), Var(3)))
    nf, trace = reduce_term(pool, t, COPRODUCT)
    assert trace[0].rule == "c"
    assert nf == App(ell, (Var(2), Var(1), Var(3)))


def test_mixed_factor_composite_is_reduced():
    _, pool = _c2_pools()
    h = next(s for s in pool.symbols if s.factor == "X" and s.arity == 2)
    j = next(s for s in pool.symbols if s.factor == "Y" and s.arity == 2)
    t = App(h, (App(j, (Var(1), Var(2))), Var(3)))
    assert not one_step_reducts(pool, t, COPRODUCT)


def test_tensor_rules():
    pool = _mixed_pool()
    h, f, z, e = pool.symbols
    # interchange (a) with f in Y(1)
    t = App(h, (App(f, (Var(1),)), App(f, (Var(2),))))
    reducts = one_step_reducts(pool, t, TENSOR)
    assert (App(f, (App(h, (Var(1), Var(2))),)), "a", ()) in reducts
    # z-padded variant (b)
    t = App(h, (App(z, ()), App(f, (Var(1),))))
    reducts = one_step_reducts(pool, t, TENSOR)
    assert any(rule == "b" for _, rule, _ in reducts)
    # collapse (c) and constant renaming (d)
    t = App(h, (App(z, ()), App(z, ())))
    nf, trace = reduce_term(pool, t, TENSOR)
    assert nf == App(z, ()) and [s.rule for s in trace] == ["c"]
    nf, trace = reduce_term(pool, App(e, ()), TENSOR)
    assert nf == App(z, ()) and [s.rule for s in trace] == ["d"]


def test_tensor_overlap_between_interchange_and_collapse():
    """The delicate confluence overlaps: an all-constant block is both a
    collapse redex and part of an interchange redex."""
    pool = _mixed_pool()
    h, f, z, e = pool.symbols
    zz = App(z, ())
    fz = App(f, (zz,))
    # overlap with two blocks: interchange vs collapsing one block
    t = App(h, (fz, App(f, (Var(1),))))
    reducts = one_step_reducts(pool, t, TENSOR)
    rules = {rule for _, rule, _ in reducts}
    assert {"a", "c"} <= rules
    nfs = {reduce_term(pool, r, TENSOR)[0] for r, _, _ in reducts}
    assert len(nfs) == 1
    # overlap with a single genuine block: z-padded interchange vs collapse
    t = App(h, (zz, fz))
    reducts = one_step_reducts(pool, t, TENSOR)
    assert {"b", "c"} <= {rule for _, rule, _ in reducts}
    nfs = {reduce_term(pool, r, TENSOR)[0] for r, _, _ in reducts}
    assert nfs == {zz}


def test_tensor_complexity_printed_example():
    pool = _mixed_pool()
    h, f, z, e = pool.symbols
    # two non-z symbols plus depth(f)=1 times |f|=1
    t = App(h, (App(z, ()), App(f, (Var(1),))))
    assert complexity(pool, t, TENSOR) == 3


def test_strict_descent_fuzzed():
    C2, pool2 = _c2_pools()
    as_p = as_pool(C2, 30)
    gens = [s for s in as_p.symbols if s.arity <= 3]
    rng = random.Random(17)
    for _ in range(150):
        for pool, mode, symbols in ((pool2, TENSOR, None),
                                    (as_p, COPRODUCT, gens)):
            t = fuzz_term(pool, rng, 8, symbols)
            c = complexity(pool, t, mode)
            for reduct, _, _ in one_step_reducts(pool, t, mode):
                assert complexity(pool, reduct, mode) < c


def test_reduce_contract():
    _, pool = _c2_pools()
    f = next(s for s in pool.symbols if s.factor == "X" and s.arity == 2)
    t = App(f, (Var(1), Var(2)))
    nf, trace = reduce_term(pool, t, TENSOR)
    assert nf == t and trace == []
    # the nullary X-symbol collapses to z by rule d
    e = next(s for s in pool.symbols if s.factor == "X" and s.arity == 0)
    _, trace = reduce_term(pool, App(e, ()), TENSOR)
    assert trace[0].rule == "d"


def _stalling(rules):
    """A local rule set that also rewrites every binary node to an equal
    copy of itself, which does not lower the complexity."""
    def local(pool, t):
        out = list(rules(pool, t))
        if isinstance(t, App) and t.symbol.arity == 2:
            out = [(App(t.symbol, t.children), "stall")] + out
        return out

    return local


def _stalling_cases(monkeypatch):
    C2, free_pool = _c2_pools()
    as_p = as_pool(C2, 12)
    monkeypatch.setattr(rewrite, "_local_coproduct",
                        _stalling(rewrite._local_coproduct))
    monkeypatch.setattr(rewrite, "_local_tensor",
                        _stalling(rewrite._local_tensor))
    p = next(s for s in as_p.symbols if s.arity == 2)
    q = next(s for s in free_pool.symbols if s.factor == "X" and s.arity == 2)
    return ((as_p, COPRODUCT, App(p, (Var(1), Var(2)))),
            (free_pool, TENSOR, App(q, (Var(1), Var(2)))))


def test_descent_guard_rejects_a_rule_that_does_not_descend(monkeypatch):
    """Each contraction is checked to lower the complexity, in the traced
    normalizer, the random strategy, the memoized normal forms of
    `check_criteria` and the join witnesses."""
    stalled = "rule stall failed to decrease complexity"
    for pool, mode, t in _stalling_cases(monkeypatch):
        with pytest.raises(RewriteError, match=stalled):
            reduce_term(pool, t, mode)
        with pytest.raises(RewriteError, match=stalled):
            reduce_term(pool, App(t.symbol, (t, Var(3))), mode,
                        strategy="random", seed=0)
        with pytest.raises(RewriteError, match=stalled):
            check_criteria(pool, mode, count=3, seed=0, max_symbols=4)
    S = free_model(enumerate_transfer_systems(group_by_name("C2"))[-1])
    factory = WitnessFactory(S, S)
    for mode in (COPRODUCT, TENSOR):
        with pytest.raises(RewriteError, match=stalled):
            factory.witness(0, 1, mode)


def test_descent_guard_weighs_the_redex_at_its_depth(monkeypatch):
    """h(k(x), y) -> g(x, y), with g a binary Y-symbol, drops one symbol
    but adds 2d for the arity of g at depth d: a descent at the root, and
    none one level down."""
    C1 = group_by_name("C1")
    h, k = OpSymbol("X", 0, 2), OpSymbol("X", 1, 1)
    g, z = OpSymbol("Y", 0, 2), OpSymbol("Y", 1, 0)
    pool = SymbolPool(C1, [h, k, g, z],
                      {(s, 0): (s, identity_perm(s.arity))
                       for s in (h, k, g, z)}, z=z)
    rules = rewrite._local_tensor

    def widening(pool, t):
        out = list(rules(pool, t))
        if (isinstance(t, App) and t.symbol == h
                and isinstance(t.children[0], App)
                and t.children[0].symbol == k):
            out.append((App(g, t.children[0].children + t.children[1:]),
                        "widen"))
        return out

    monkeypatch.setattr(rewrite, "_local_tensor", widening)
    root = App(h, (App(k, (Var(1),)), Var(2)))
    for strategy in ("leftmost_innermost", "random"):
        nf, _ = reduce_term(pool, root, TENSOR, strategy=strategy, seed=0)
        assert nf == App(g, (Var(1), Var(2)))
        with pytest.raises(RewriteError, match=r"widen failed to decrease "
                                               r"complexity at \(0,\)"):
            reduce_term(pool, App(h, (root, Var(3))), TENSOR,
                        strategy=strategy, seed=0)


def test_step_budget_is_the_complexity_of_the_term(monkeypatch):
    """A measure off by a constant keeps every drop, so only the step
    budget, the complexity of the whole term, stops the reduction."""
    measurer = rewrite._measurer

    def shifted(pool, mode):
        measure = measurer(pool, mode)
        return lambda t: (measure(t)[0] - 100, measure(t)[1])

    C2, free_pool = _c2_pools()
    as_p = as_pool(C2, 12)
    p = next(s for s in as_p.symbols if s.arity == 2)
    unit = next(s for s in as_p.symbols if s.arity == 1)
    e = next(s for s in free_pool.symbols if s.factor == "X" and s.arity == 0)
    monkeypatch.setattr(rewrite, "_measurer", shifted)
    for pool, mode, t in ((as_p, COPRODUCT, App(p, (App(unit, (Var(1),)),
                                                   Var(2)))),
                          (free_pool, TENSOR, App(e, ()))):
        for strategy in ("leftmost_innermost", "random"):
            with pytest.raises(RewriteError, match="step budget exceeded"):
                reduce_term(pool, t, mode, strategy=strategy, seed=0)
        with pytest.raises(RewriteError, match="step budget exceeded"):
            check_criteria(pool, mode, count=3, seed=0, max_symbols=4)


def test_normal_form_strategy_independence():
    C2, pool2 = _c2_pools()
    as_p = as_pool(C2, 30)
    gens = [s for s in as_p.symbols if s.arity <= 3]
    rng = random.Random(23)
    for _ in range(60):
        for pool, mode, symbols in ((pool2, TENSOR, None),
                                    (as_p, COPRODUCT, gens)):
            t = fuzz_term(pool, rng, 8, symbols)
            nf, _ = reduce_term(pool, t, mode)
            for seed in range(20):
                got, _ = reduce_term(pool, t, mode, strategy="random",
                                     seed=seed)
                assert got == nf


def test_reduction_equivariance_and_reduced_stability():
    C2, pool = _c2_pools()
    rng = random.Random(29)
    for _ in range(100):
        t = fuzz_term(pool, rng, 8)
        n = term_arity(t)
        g = rng.randrange(2)
        sigma = random_perm(rng, n)
        moved = act_g(pool, g, act_sigma(t, sigma))
        nf_moved, _ = reduce_term(pool, moved, TENSOR)
        nf, _ = reduce_term(pool, t, TENSOR)
        assert nf_moved == act_g(pool, g, act_sigma(nf, sigma))
        assert bool(one_step_reducts(pool, t, TENSOR)) \
            == bool(one_step_reducts(pool, moved, TENSOR))


def test_tensor_normalizes_nullary_terms_to_z():
    _, pool = _c2_pools()
    rng = random.Random(31)
    z = pool.z
    for _ in range(200):
        t = fuzz_term(pool, rng, 6)
        if term_arity(t) != 0 or isinstance(t, Var):
            continue
        nf, _ = reduce_term(pool, t, TENSOR)
        assert nf == App(z, ())


def test_check_criteria_passes():
    C2, pool = _c2_pools()
    rep = check_criteria(pool, TENSOR, count=150, seed=3, max_symbols=9)
    assert rep.passed, rep.to_json()
    as_p = as_pool(C2, 30)
    gens = [s for s in as_p.symbols if s.arity <= 3]
    rep = check_criteria(as_p, COPRODUCT, count=150, seed=3, max_symbols=8,
                         symbols=gens)
    assert rep.passed, rep.to_json()
    assert all(r.checked > 0 for r in rep.reports)


def test_single_generator_coproduct_trivially_confluent():
    C1 = group_by_name("C1")
    h = OpSymbol("X", 0, 2)
    pool = SymbolPool(C1, [h], {(h, 0): (h, identity_perm(2))})
    rep = check_criteria(pool, COPRODUCT, count=50, seed=1, max_symbols=6)
    assert rep.passed


def test_corrupted_action_table_fails_equivariance():
    C2 = group_by_name("C2")
    f = OpSymbol("X", 0, 2)
    z = OpSymbol("Y", 0, 0)
    w = OpSymbol("Y", 1, 0)
    # corrupted table: the group swaps z and w, so z is no longer fixed;
    # the table still satisfies the group law, so only the z-fixedness
    # validation would catch it
    trivial = {(s, g): (s, identity_perm(s.arity))
               for s in (f, z, w) for g in (0, 1)}
    broken = dict(trivial)
    broken.update({(z, 1): (w, ()), (w, 1): (z, ())})
    with pytest.raises(RewriteError):
        SymbolPool(C2, [f, z, w], broken, z=z)
    pool = SymbolPool(C2, [f, z, w], trivial, z=z)
    # the rules and act_g read the action rows built at construction, so
    # the corruption goes there: the rows of the same table without z
    pool.rows.update(SymbolPool(C2, [f, z, w], broken).rows)
    rep = check_criteria(pool, TENSOR, count=80, seed=5, max_symbols=6)
    bad = next(r for r in rep.reports if r.name == "equivariance of reduction")
    assert not bad.passed and bad.counterexample is not None


def test_symbols_are_interned():
    s = OpSymbol("X", 1, 2)
    assert s is OpSymbol("X", 1, 2) and s == OpSymbol("X", 1, 2)
    other = OpSymbol("X", 1, 3)
    assert other is not s and other.arity == 3 and s.arity == 2
    assert copy.copy(s) is s and copy.deepcopy(s) is s
    assert pickle.loads(pickle.dumps(s)) is s
    t = App(s, (Var(1), App(other, (Var(2), Var(3), Var(4)))))
    for back in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert back == t and back.symbol is s
        assert back.children[1].symbol is other
    interned = dict(OpSymbol._interned)
    with pytest.raises(RewriteError, match="factor must be X or Y"):
        OpSymbol("Z", 7, 2)
    assert OpSymbol._interned == interned
    with pytest.raises(AttributeError):
        s.arity = 3
    assert s.arity == 2


def test_app_never_equals_var():
    _, pool = _c2_pools()
    rng = random.Random(41)
    apps = [fuzz_term(pool, rng, 4) for _ in range(50)]
    apps += [App(s, ()) for s in pool.symbols if s.arity == 0]
    apps = [t for t in apps if isinstance(t, App)]
    assert apps
    for v in [Var(i) for i in range(-1, 6)]:
        assert all(a != v and v != a for a in apps)
        assert v not in set(apps)


#: binary X-symbols, a ternary X-symbol, a binary Y-symbol, and a symbol
#: left out of the pool
H2, F2, A3, Y2, OUT = (OpSymbol("X", 0, 2), OpSymbol("X", 1, 2),
                       OpSymbol("X", 2, 3), OpSymbol("Y", 0, 2),
                       OpSymbol("X", 9, 2))


def _strict_pool(action=None, table=None):
    """A C2 pool of H2, F2, A3 and Y2 with a trivial action, patched by
    the given entries."""
    g_action = {(s, g): (s, identity_perm(s.arity))
                for s in (H2, F2, A3, Y2) for g in (0, 1)}
    g_action.update(action or {})
    return SymbolPool(group_by_name("C2"), [H2, F2, A3, Y2], g_action,
                      compose_table=table)


@pytest.mark.parametrize("action, table, message", [
    ({(H2, 1): (OUT, (0, 1))}, None, "1 moves X:0 out of the pool"),
    ({(H2, 1): (A3, (0, 1, 2))}, None, "1 moves X:0 to another arity"),
    ({(H2, 1): (H2, (0, 0))}, None,
     r"action of 1 on X:0: \(0, 0\) is not a permutation of 2 slots"),
    ({(H2, 1): (H2, (0, 1, 2))}, None,
     r"\(0, 1, 2\) is not a permutation of 2 slots"),
    ({(H2, 1): (H2, [1, 0])}, None, r"\[1, 0\] is not a permutation"),
    (None, {(H2, 1, F2): (H2, (0, 1))},
     r"composite \(X:0, 1, X:1\) gives X:0 of arity 2, not 3"),
    (None, {(H2, 1, F2): (A3, (0, 1))},
     r"composite \(X:0, 1, X:1\): \(0, 1\) is not a permutation of 3"),
    (None, {(H2, 3, F2): (A3, (0, 1, 2))}, "slot 3 is outside 1..2"),
    (None, {(H2, 0, F2): (A3, (0, 1, 2))}, "slot 0 is outside 1..2"),
    (None, {(H2, 1, OUT): (A3, (0, 1, 2))}, "names a symbol not in the pool"),
    (None, {(H2, 1, Y2): (A3, (0, 1, 2))}, "mixes factors"),
])
def test_malformed_tables_rejected_at_construction(action, table, message):
    """Each of these used to pass construction and fail later with a
    KeyError or IndexError, or to go unnoticed."""
    with pytest.raises(RewriteError, match=message):
        _strict_pool(action, table)


def test_strict_pool_accepts_a_well_formed_table():
    pool = _strict_pool(table={(H2, 2, F2): (A3, (1, 2, 0))})
    t = App(H2, (Var(1), App(F2, (Var(2), Var(3)))))
    assert reduce_term(pool, t, COPRODUCT)[0] == App(A3, (Var(3), Var(1),
                                                          Var(2)))


def test_parse_format_roundtrip(parse_term):
    _, pool = _c2_pools()
    rng = random.Random(37)
    for _ in range(50):
        t = fuzz_term(pool, rng, 6)
        assert parse_term(format_term(t), pool) == t
    f = next(s for s in pool.symbols if s.factor == "X" and s.arity == 2)
    j = next(s for s in pool.symbols if s.factor == "Y" and s.arity == 2)
    text = f"({f.name} ({j.name} x1 x2) x3)"
    t = parse_term(text, pool)
    assert format_term(t) == text
    with pytest.raises(RewriteError):
        parse_term(f"({f.name} x1)", pool)  # arity mismatch


def test_witness_single_generator():
    C2 = group_by_name("C2")
    top = enumerate_transfer_systems(C2)[-1]
    S = free_model(top)
    w = WitnessFactory(S, S).witness(0, 1, COPRODUCT)
    assert w.verified
    assert isinstance(w.term, App) and all(isinstance(c, Var)
                                           for c in w.term.children)
    assert w.term == w.normal_form  # single generator is already reduced


def test_witness_two_level_composite():
    C4 = group_by_name("C4")
    lat = lattice_of(C4)
    a = generate(lat, rel_from_pairs(lat.count, [(0, 1)]))
    b = generate(lat, rel_from_pairs(lat.count, [(1, 2)]))
    S, T = free_model(a), free_model(b)
    factory = WitnessFactory(S, T)
    results = {}
    for mode in (COPRODUCT, TENSOR):
        w = factory.witness(0, 2, mode)
        assert w.verified
        assert term_arity(w.term) == 4
        results[mode.kind] = w.normal_form
    # both modes leave a fixed normal form; record whether they differ
    for nf in results.values():
        assert is_operadic(nf)


def test_witness_requires_join_membership():
    C4 = group_by_name("C4")
    lat = lattice_of(C4)
    a = generate(lat, rel_from_pairs(lat.count, [(0, 1)]))
    S = free_model(a)
    factory = WitnessFactory(S, S)
    with pytest.raises(RewriteError):
        factory.witness(0, 2, COPRODUCT)  # (1, C4) is not in the join


def test_witness_sweep_c4():
    C4 = group_by_name("C4")
    systems = enumerate_transfer_systems(C4)
    for s in systems:
        for t in systems:
            S, T = free_model(s), free_model(t)
            factory = WitnessFactory(S, T)
            assert factory.join.rel \
                == join(symseq_transfer(S), symseq_transfer(T)).rel
            for k_id, h_id in factory.join.pairs():
                for mode in (COPRODUCT, TENSOR):
                    assert factory.witness(k_id, h_id, mode).verified


def test_witness_sweep_d4_slice():
    """A seeded slice of the thmA-tensor pairs on D4 (294 systems)."""
    D4 = group_by_name("D4")
    systems = enumerate_transfer_systems(D4)
    rng = random.Random(4)
    checked = 0
    for _ in range(30):
        S, T = (free_model(rng.choice(systems)) for _ in range(2))
        factory = WitnessFactory(S, T)
        for k_id, h_id in factory.join.pairs():
            for mode in (COPRODUCT, TENSOR):
                assert factory.witness(k_id, h_id, mode).verified
                checked += 1
    assert checked > 500


def _c4_sequence(*orbits):
    """One C4 orbit per (H, parts) entry, acting on H/K1 + H/K2 + ..."""
    C4 = group_by_name("C4")
    lat = lattice_of(C4)
    return SymmetricSequence(C4, tuple(
        hset_of_orbits(lat.subgroups[h_id], [lat.subgroups[k] for k in parts])
        for h_id, parts in orbits))


def test_witness_factory_rejects_non_free_sequences():
    free = _c4_sequence((2, (0,)), (2, (1,)), (1, (0,)))
    assert symseq_transfer(free).pairs() == [(0, 1), (0, 2), (1, 2)]
    WitnessFactory(free, free)
    # one orbit C4/e + C4/C2: its generator is not transitive
    two_orbits = _c4_sequence((2, (0, 1)))
    with pytest.raises(RewriteError, match="structure mismatch"):
        WitnessFactory(two_orbits, free)
    # C4/e alone also generates e < C2, which has no generator
    restricted = _c4_sequence((2, (0,)))
    with pytest.raises(RewriteError, match=r"\(0, 1\)"):
        WitnessFactory(free, restricted)


def test_marked_tensor_self_interchange_obstruction():
    """Identifying the two marked binaries forces a 4-ary operation fixed
    by the middle swap, so the marked tensor is never Sigma-free."""
    _, pool = _c2_pools()
    p_x = next(s for s in pool.symbols if s.factor == "X" and s.sid == 1)
    p_y = next(s for s in pool.symbols if s.factor == "Y" and s.sid == 1)
    q = App(p_x, (App(p_y, (Var(1), Var(2))), App(p_y, (Var(3), Var(4)))))
    nf, _ = reduce_term(pool, q, TENSOR)
    swap_middle = (0, 2, 1, 3)

    def collapse(t):
        if isinstance(t, Var):
            return ("x", t.index)
        return ("p",) + tuple(collapse(c) for c in t.children)

    assert collapse(nf) == collapse(act_sigma(q, swap_middle))
    assert collapse(nf) != collapse(q)
