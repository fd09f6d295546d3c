"""The bitset relation core against the pair-set code it replaced.

The oracles below are the earlier implementations, kept verbatim in
behaviour: a DFS enumerator that re-saturates a pair set at every search
node, the pair-set saturation itself, the cubic cover scan, and the
NextClosure loop that Fast Close-by-One replaced.  The counts for C2xC6
and D6 are the published ones (3,396 and 3,133).  The matrices these
oracles build are also the reference for every view of a system's mask:
pairs, membership, the matrix itself, equality and hashing.
"""

import operator
import random

import pytest

from transys.catalog import group_by_name
from transys.groups import lattice_of
from transys.transfer import (
    BudgetExceededError,
    _core,
    cogenerate,
    enumerate_transfer_systems,
    find_violation,
    generate_pairs,
    hasse,
    join,
    meet,
    rel_from_pairs,
    rel_pairs,
    validate,
)

#: catalog groups with at most 10 subgroups; C2xC6 has 3,396 systems, too
#: many for the cubic cover scan, so its covers are left out
ORACLE_GROUPS = ("C1", "C2", "C4", "C6", "C8", "C9", "C12", "C16", "C18",
                 "C20", "C24", "K4", "S3", "D5", "C3xC3", "C2xC4", "D4")

CLOSURE_GROUPS = ("C4", "C8", "K4", "S3", "C12", "C2xC4", "D4", "S4")


def saturate(lat, pairs):
    """Oracle: close a pair set under conjugation, restriction and
    transitivity, one rule at a time until nothing changes."""
    n = lat.count
    current = set(pairs)
    current.update((i, i) for i in range(n))
    while True:
        size = len(current)
        for i, j in list(current):
            for g in lat.group.elements():
                current.add((lat.conj_table[g][i], lat.conj_table[g][j]))
        for i, j in list(current):
            for l in lat.ids_below(j):
                current.add((lat.meet_table[l][i], l))
        changed = True
        while changed:
            changed = False
            for i, j in list(current):
                for k in range(n):
                    if (j, k) in current and (i, k) not in current:
                        current.add((i, k))
                        changed = True
        if len(current) == size:
            return frozenset(current)


def dfs_enumerate(G):
    """Oracle: backtrack over the candidate pairs, saturating each choice
    and pruning closures that hit an excluded pair; sorted in row-major
    relation-matrix order."""
    lat = lattice_of(G)
    candidates = [(i, j) for i in range(lat.count) for j in range(lat.count)
                  if i != j and lat.leq[i][j]]
    results = set()

    def dfs(k, current, excluded):
        if k == len(candidates):
            results.add(current)
            return
        pair = candidates[k]
        if pair in current:
            dfs(k + 1, current, excluded)
            return
        dfs(k + 1, current, excluded | {pair})
        closed = saturate(lat, set(current | {pair}))
        if not (closed & excluded):
            dfs(k + 1, closed, excluded)

    dfs(0, frozenset((i, i) for i in range(lat.count)), frozenset())
    rels = [rel_from_pairs(lat.count, pairs) for pairs in results]
    rels.sort(key=lambda rel: tuple(v for row in rel for v in row))
    return rels


def next_closure_enumerate(G, budget=10_000_000):
    """Oracle: Ganter's NextClosure over the pair bits, closing
    ``(current & below) | bit`` from scratch for every candidate."""
    core = _core(lattice_of(G))
    close = core.close
    top_down = core.ids[::-1]
    current = 0                   # the discrete system comes first
    found = [current]
    closures = 0
    while True:
        for p in top_down:
            bit = 1 << p
            if current & bit:
                continue
            if closures >= budget:
                raise BudgetExceededError(
                    f"enumeration budget of {budget} closures spent on "
                    f"{G.name}; systems found so far: {len(found)}",
                    closures, len(found))
            closures += 1
            below = bit - 1
            nxt = close((current & below) | bit)
            if not nxt & below & ~current:
                break
        else:
            return tuple(core.system(m) for m in found)
        current = nxt
        found.append(current)


def saturate_transitive(lat, pairs):
    """A random partial order: the transitive closure of a pair set."""
    current = set(pairs)
    changed = True
    while changed:
        changed = False
        for i, j in list(current):
            for k in range(lat.count):
                if (j, k) in current and (i, k) not in current:
                    current.add((i, k))
                    changed = True
    return current


def cubic_hasse(systems):
    """Oracle: (a, b) is a cover iff a <= b and no third c lies between."""
    leq = [[s.refines(t) for t in systems] for s in systems]
    n = len(systems)
    return [(a, b) for a in range(n) for b in range(n)
            if a != b and leq[a][b]
            and not any(leq[a][c] and leq[c][b] for c in range(n)
                        if c != a and c != b)]


def cogenerate_oracle(lat, rel):
    """Oracle: keep (K, H) iff every (gKg^-1 n L, L), L <= gHg^-1, is in rel."""
    kept = set()
    for i in range(lat.count):
        for j in range(lat.count):
            if lat.leq[i][j] and all(
                    rel[lat.meet_table[lat.conj_table[g][i]][l]][l]
                    for g in lat.group.elements()
                    for l in lat.ids_below(lat.conj_table[g][j])):
                kept.add((i, j))
    return rel_from_pairs(lat.count, kept)


def rel_leq(a, b):
    """Elementwise a <= b of two relation matrices."""
    return all(not av or bv for ra, rb in zip(a, b) for av, bv in zip(ra, rb))


def assert_views_match(lat, t, m):
    """Every view of a system, and its equality and hash, agree with the
    relation matrix ``m`` of the same pairs."""
    n = range(lat.count)
    assert t.rel == m
    assert t.pairs() == rel_pairs(m)
    assert all(t.has(i, j) == m[i][j] for i in n for j in n)
    again = validate(lat, m)
    assert again == t and hash(again) == hash(t)


def _candidates(lat):
    return [(i, j) for i in range(lat.count) for j in range(lat.count)
            if i != j and lat.leq[i][j]]


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_enumeration_and_covers_match_oracles(name):
    G = group_by_name(name)
    lat = lattice_of(G)
    systems = enumerate_transfer_systems(G)
    seed = dfs_enumerate(G)
    assert [t.rel for t in systems] == seed
    for t, m in zip(systems, seed):
        assert_views_match(lat, t, m)
    assert len(set(systems)) == len(systems)
    assert hasse(systems) == cubic_hasse(systems)


@pytest.mark.parametrize("name", ORACLE_GROUPS + ("C2xC6", "D6", "C2xC8"))
def test_enumeration_matches_next_closure(name):
    G = group_by_name(name)
    assert ([t.mask for t in enumerate_transfer_systems(G)]
            == [t.mask for t in next_closure_enumerate(G)])


def test_inherited_failures_prune_closures():
    """NextClosure needs 2,039 closures on D4; Fast Close-by-One needs
    337 there and 9,674 on S4."""
    assert len(enumerate_transfer_systems(group_by_name("D4"),
                                          budget=400)) == 294
    assert len(enumerate_transfer_systems(group_by_name("S4"),
                                          budget=10_000)) == 8691


def test_s4_count_and_sampled_systems_are_closed():
    """8,691 agrees with the NextClosure oracle, and with the DFS oracle
    in a run too slow for these tests (~7 min); it is not a published
    count.  A seeded sample is checked against the pair-set saturation
    (each system is its own closure) and against the axioms."""
    lat = lattice_of(group_by_name("S4"))
    systems = enumerate_transfer_systems(lat.group)
    assert len(systems) == 8691
    for t in random.Random("s4-sample").sample(systems, 40):
        assert rel_from_pairs(lat.count, saturate(lat, t.pairs())) == t.rel
        assert find_violation(lat, t.rel) is None


def test_deep_search_spends_its_budget():
    """C2xC2xC2xC2 has 446 pair bits: the search runs deep without
    recursion and stops at its budget."""
    with pytest.raises(BudgetExceededError) as err:
        enumerate_transfer_systems(group_by_name("C2xC2xC2xC2"), budget=5_000)
    assert err.value.closures == 5000
    assert err.value.found >= 1


@pytest.mark.parametrize("name", ("C4", "K4", "S3", "D4"))
def test_meet_and_refines_match_the_matrices(name):
    lat = lattice_of(group_by_name(name))
    systems = enumerate_transfer_systems(lat.group)
    rels = [rel_from_pairs(lat.count, t.pairs()) for t in systems]
    by_rel = dict(zip(rels, systems))
    for s, a in zip(systems, rels):
        for t, b in zip(systems, rels):
            both = tuple(tuple(map(operator.and_, ra, rb))
                         for ra, rb in zip(a, b))
            assert meet(s, t) == by_rel[both]
            assert s.refines(t) == rel_leq(a, b)


def test_c2xc6_matches_dfs_and_published_count():
    G = group_by_name("C2xC6")
    systems = enumerate_transfer_systems(G)
    assert len(systems) == 3396
    assert [t.rel for t in systems] == dfs_enumerate(G)


def test_d6_published_count():
    assert len(enumerate_transfer_systems(group_by_name("D6"))) == 3133


@pytest.mark.parametrize("name", CLOSURE_GROUPS)
def test_close_matches_saturate_on_random_pair_sets(name):
    lat = lattice_of(group_by_name(name))
    cands = _candidates(lat)
    rng = random.Random(f"close-{name}")
    trials = 12 if name == "S4" else 60
    for _ in range(trials):
        k = rng.randrange(0, min(len(cands), 6) + 1)
        pairs = set(rng.sample(cands, k))
        expected = rel_from_pairs(lat.count, saturate(lat, pairs))
        assert generate_pairs(lat, pairs).rel == expected


@pytest.mark.parametrize("name", CLOSURE_GROUPS)
def test_close_from_a_system_matches_close_from_scratch(name):
    lat = lattice_of(group_by_name(name))
    core, cands = _core(lat), _candidates(lat)
    rng = random.Random(f"close-from-{name}")
    for _ in range(12 if name == "S4" else 40):
        base = generate_pairs(lat, rng.sample(cands, rng.randrange(0, 4)))
        extra = rng.sample(cands, rng.randrange(0, 4))
        e = sum(1 << (i * lat.count + j) for i, j in extra)
        closed = core.close(e, base.mask)
        assert closed == core.close(base.mask | e)
        expected = saturate(lat, base.pairs() + extra)
        assert core.system(closed).rel == rel_from_pairs(lat.count, expected)


@pytest.mark.parametrize("name", ("K4", "S3", "C2xC4", "D4", "S4"))
def test_cogenerate_and_join_match_oracles(name):
    lat = lattice_of(group_by_name(name))
    cands = _candidates(lat)
    rng = random.Random(f"cogen-{name}")
    for _ in range(20):
        pairs = rng.sample(cands, rng.randrange(0, len(cands) + 1))
        order = rel_from_pairs(lat.count, saturate_transitive(lat, pairs))
        assert cogenerate(lat, order).rel == cogenerate_oracle(lat, order)
        s = generate_pairs(lat, rng.sample(cands, 2))
        t = generate_pairs(lat, rng.sample(cands, 2))
        union = rel_pairs(s.rel) + rel_pairs(t.rel)
        assert join(s, t).rel == rel_from_pairs(lat.count,
                                                saturate(lat, union))


def test_hasse_on_shuffled_subsets():
    systems = list(enumerate_transfer_systems(group_by_name("D4")))
    rng = random.Random(5)
    for size in (1, 2, 40, 150):
        subset = rng.sample(systems, size)      # any order, any gaps
        assert hasse(subset) == cubic_hasse(subset)
    assert hasse([]) == []


def test_budget_counts_closures_and_reports_progress():
    G = group_by_name("S3")
    with pytest.raises(BudgetExceededError) as err:
        enumerate_transfer_systems(G, budget=5)
    assert err.value.closures == 5
    assert 1 <= err.value.found < 9
    assert "5 closures" in str(err.value)
    assert f"systems found so far: {err.value.found}" in str(err.value)
