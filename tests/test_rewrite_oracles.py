"""The redex walk, normal-form joinability, the generator witness tables
and the pair pools against the seed rewriting code, kept here as oracles:
the pre-order redex list ranked by `_pick_leftmost_innermost`, the
normalizer built on it, joinability by intersecting full descendant sets
(`_descendants`), the witness table that re-ran the transfer-system
closure on terms (`SeedWitnessTable._saturate`), and the pair pool built
and validated whole for every pair (`seed_pool_from_free_models`)."""

import copy
import functools
import random
from collections import Counter

import pytest

from transys import rewrite
from transys.catalog import group_by_name
from transys.operads import free_model, symseq_transfer
from transys.rewrite import (
    COPRODUCT,
    TENSOR,
    App,
    OpSymbol,
    RewriteError,
    Step,
    SymbolPool,
    Var,
    Witness,
    WitnessFactory,
    WitnessTable,
    _compose_witnesses,
    _local_coproduct,
    _local_tensor,
    act_g,
    as_pool,
    check_criteria,
    complexity,
    factor_part,
    fixed_structure,
    fuzz_term,
    gamma,
    marked_symbols,
    one_step_reducts,
    orbit_symbols,
    pool_from_free_models,
    reduce_term,
    replace_at,
)
from transys.groups import FiniteGSet, Subgroup, identity_perm, iso_key, lattice_of
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
        for i in range(self.lat.count):
            self._insert(i, i, Var(1))
        for n in sorted(symseq.levels):
            for orb in symseq.levels[n]:
                t0 = App(base[orb], tuple(Var(i + 1) for i in range(n)))
                w0 = self._checked(self.lat.id_of(orb.subgroup), t0)
                for orbit, k_id in zip(orb.hset.orbits(),
                                       orb.hset.stabilizer_ids):
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
        for n in sorted(seq.levels):
            for orb in seq.levels[n]:
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


def test_local_joinability_can_fail(parse_term):
    """h(h(x, y), z) -> a(x, y, z) and h(x, h(y, z)) -> b(x, y, z) with a
    and b distinct ternary symbols: the overlap has two normal forms."""
    h, a, b = OpSymbol("X", 0, 2), OpSymbol("X", 1, 3), OpSymbol("X", 2, 3)
    pool = SymbolPool(group_by_name("C1"), [h, a, b],
                      {(s, 0): (s, identity_perm(s.arity)) for s in (h, a, b)},
                      compose_table={(h, 1, h): (a, identity_perm(3)),
                                     (h, 2, h): (b, identity_perm(3))})
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


@pytest.mark.parametrize("name", sorted(POOL_SLICES))
def test_pair_pool_matches_per_pair_build(name):
    models = _models(name)[:POOL_SLICES[name]]
    witnesses = 0
    for S in models:
        for T in models:
            pool, base_x, base_y = pool_from_free_models(S, T)
            seed, seed_x, seed_y = seed_pool_from_free_models(S, T)
            assert pool.symbols == seed.symbols
            assert pool.g_action == seed.g_action
            assert pool.z == seed.z
            assert (base_x, base_y) == (seed_x, seed_y)
            factory = WitnessFactory(S, T)
            oracle = copy.copy(factory)
            oracle.pool = seed
            oracle.table_x = WitnessTable(seed, S, seed_x)
            oracle.table_y = WitnessTable(seed, T, seed_y)
            oracle.join = join(oracle.table_x.transfer, oracle.table_y.transfer)
            assert factory.pool.symbols == seed.symbols
            assert factory.pool.g_action == seed.g_action
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


@pytest.fixture
def fresh_parts():
    rewrite._factor_part.cache_clear()
    yield rewrite._factor_part
    rewrite._factor_part.cache_clear()


def test_broken_action_row_in_one_factor_is_rejected(fresh_parts, monkeypatch):
    """A free model whose orbit table breaks the group law on one row
    fails validation whichever side of the pair it stands on."""
    S3 = group_by_name("S3")
    systems = enumerate_transfer_systems(S3)
    S, discrete = free_model(systems[-1]), free_model(systems[0])

    def broken(orb, factor, start):
        syms, acts, b = orbit_symbols(orb, factor, start)
        acts[(syms[0], 1)] = (syms[0], identity_perm(orb.arity))
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
                        lambda pool: validated.append(pool) or validate(pool))
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
