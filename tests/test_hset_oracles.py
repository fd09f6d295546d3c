"""H-sets by orbit type against the permutation-table code it replaced.

The oracles below are the earlier implementations, kept in behaviour: four
separate coset enumerations over frozenset cosets (`coset_hset`,
`right_coset_gset`, `induce_hset`, `orbit_symbols`), `hsets_up_to_iso` as a
chain of validated disjoint unions, the member-tuple `iso_key`, and
`admissible_class_of_transfer` as `admits` over every enumerated H-set
and as the per-call loop over every orbit type,
and `admissible_sets_of_symseq` as a subconjugacy test on the graph of
every enumerated H-set, conjugating and restricting action tables.

`right_coset_gset` once built H\\G as a right action table; it now returns
the isomorphic left G-set G/H.  The right table and the coinduced criterion
read on it (an element that fixes a point must act trivially) are kept
here as the oracle of the coinduced operads.

`cosets`, the coset numbering that `coset_action` replaced, is kept as the
oracle of the coset representatives.
"""

import random

import pytest

from transys.catalog import group_by_name
from transys.groups import (
    FiniteGSet,
    Subgroup,
    coset_action,
    coset_hset,
    full_subgroup,
    hset_of_orbits,
    hsets_up_to_iso,
    id_mask,
    induce_hset,
    invert,
    iso_key,
    lattice_of,
    orbit_types,
    right_coset_gset,
)
from transys.indexing import (
    admissible_class_of_transfer,
    admissible_sets_of_symseq,
)
from transys.operads import CoindAsOperad, coind_as_product_check, free_model
from transys.rewrite import OpSymbol, orbit_symbols
from transys.transfer import enumerate_transfer_systems, rel_from_pairs

TABLE_GROUPS = tuple(f"C{n}" for n in range(1, 13)) + ("K4", "S3", "D4",
                                                        "C2xC4")
CLASS_GROUPS = ("C4", "K4", "S3", "D4")
COSET_GROUPS = TABLE_GROUPS + ("C24", "D6", "C2xC6", "S4", "C2xC2xC2")


def _left_cosets(G, elems, K):
    seen = set()
    cosets = []
    for h in elems:
        cs = frozenset(G.mul[h][k] for k in K.members)
        if cs not in seen:
            seen.add(cs)
            cosets.append(cs)
    cosets.sort(key=min)
    return cosets


def cosets(G, elems, K):
    """The left cosets aK partitioning ``elems``, which must be listed in
    ascending order: the least element of each coset, ordered by least
    element, and the coset number of every element."""
    reps = []
    number = {}
    for a in elems:
        if a not in number:
            for k in K.members:
                number[G.mul[a][k]] = len(reps)
            reps.append(a)
    return reps, number


@pytest.mark.parametrize("name", COSET_GROUPS)
def test_coset_action_matches_coset_numbering(name):
    """On every K <= H: the coset numbering's representatives, and a row
    per member g of H with g b_i = b_j k, k in K, j the number of g b_i."""
    G = group_by_name(name)
    lat = lattice_of(G)
    for h_id, H in enumerate(lat.subgroups):
        for k_id in lat.ids_below(h_id):
            K = lat.subgroups[k_id]
            reps, table = coset_action(G, H.members, K)
            old_reps, number = cosets(G, H.members, K)
            assert reps == old_reps
            assert len(table) == H.order
            for g, row in zip(H.members, table):
                assert len(row) == len(reps)
                for b, (j, k) in zip(reps, row):
                    assert k in K and j == number[G.mul[g][b]]
                    assert G.mul[g][b] == G.mul[reps[j]][k]


def old_coset_hset(H, K):
    G = H.group
    cosets = _left_cosets(G, H.members, K)
    point_of = {x: i for i, cs in enumerate(cosets) for x in cs}
    reps = [min(cs) for cs in cosets]
    rows = [tuple(point_of[G.mul[g][r]] for r in reps) for g in H.members]
    return FiniteGSet(H, len(cosets), tuple(rows))


def old_right_coset_gset(G, H):
    """The right cosets Hg by least element, and the right action table:
    row g sends the point of Hr to the point of Hrg."""
    seen = set()
    cosets = []
    for g in G.elements():
        cs = frozenset(G.mul[h][g] for h in H.members)
        if cs not in seen:
            seen.add(cs)
            cosets.append(cs)
    cosets.sort(key=min)
    point_of = {x: i for i, cs in enumerate(cosets) for x in cs}
    reps = [min(cs) for cs in cosets]
    rows = [tuple(point_of[G.mul[r][g]] for r in reps) for g in G.elements()]
    return cosets, tuple(rows)


def old_coind_admits(rows, H, T):
    """The coinduced criterion on a right G-set table: every element of H
    fixing a point must act as the identity on T."""
    return all(T.act_of(h) == tuple(range(T.size)) for h in H.members
               if any(x == y for x, y in enumerate(rows[h])))


def old_coind_transfer(lat, rows):
    pairs = [(k_id, h_id) for h_id, H in enumerate(lat.subgroups)
             for k_id in lat.ids_below(h_id) if k_id != h_id
             and old_coind_admits(rows, H, coset_hset(H, lat.subgroups[k_id]))]
    return rel_from_pairs(lat.count, pairs)


def old_coind_as_product_check(lat, x_rows, y_rows):
    """(passed, cases checked) of the product check on right tables, the
    disjoint union being the rows side by side."""
    n = len(x_rows[0])
    xy_rows = [x + tuple(p + n for p in y) for x, y in zip(x_rows, y_rows)]
    checked = 0
    for h_id, H in enumerate(lat.subgroups):
        for k_id in lat.ids_below(h_id):
            T = coset_hset(H, lat.subgroups[k_id])
            checked += 1
            if old_coind_admits(xy_rows, H, T) != (
                    old_coind_admits(x_rows, H, T)
                    and old_coind_admits(y_rows, H, T)):
                return False, checked
    # the meet of two transfer systems is their intersection
    both = tuple(tuple(map(bool.__and__, x, y)) for x, y in zip(
        old_coind_transfer(lat, x_rows), old_coind_transfer(lat, y_rows)))
    return old_coind_transfer(lat, xy_rows) == both, checked


def old_induce_hset(H, T):
    K = T.subgroup
    G = H.group
    coset_sets = _left_cosets(G, H.members, K)
    reps = [min(cs) for cs in coset_sets]
    idx = {cs: i for i, cs in enumerate(coset_sets)}
    size = len(reps) * T.size
    rows = []
    for h in H.members:
        row = [0] * size
        for i, r in enumerate(reps):
            hr = G.mul[h][r]
            j = idx[next(c for c in coset_sets if hr in c)]
            k = G.mul[G.inv[reps[j]]][hr]
            for x in range(T.size):
                row[i * T.size + x] = j * T.size + T.act_of(k)[x]
        rows.append(tuple(row))
    return FiniteGSet(H, size, tuple(rows))


def old_hsets_up_to_iso(H, n):
    lat = lattice_of(H.group)
    h_id = lat.id_of(H)
    class_reps = sorted({lat.hclass_rep(h_id, i) for i in lat.ids_below(h_id)})
    options = [(lat.subgroups[i], H.order // lat.subgroups[i].order)
               for i in class_reps]
    results = []

    def build(choice):
        out = FiniteGSet(H, 0, tuple(() for _ in H.members))
        for count, (K, _) in zip(choice, options):
            for _ in range(count):
                out = out.disjoint_union(old_coset_hset(H, K))
        return out

    def rec(i, remaining, choice):
        if i == len(options):
            if remaining == 0:
                results.append(build(choice))
            return
        size = options[i][1]
        for count in range(remaining // size + 1):
            rec(i + 1, remaining - count * size, choice + [count])

    rec(0, n, [])
    return tuple(results)


def old_orbit_stabilizers(T):
    return [(orbit, Subgroup(T.group, tuple(
        g for g in T.subgroup.members if T.act_of(g)[orbit[0]] == orbit[0])))
        for orbit in T.orbits()]


def old_iso_key(T):
    H = T.subgroup
    return tuple(sorted(min(stab.conjugate(h).members for h in H.members)
                        for _, stab in old_orbit_stabilizers(T)))


def old_orbit_symbols(T, factor, start):
    G = T.group
    cosets = _left_cosets(G, G.elements(), T.subgroup)
    reps = [min(cs) for cs in cosets]
    rep_of = {a: min(cs) for cs in cosets for a in cs}
    symbols = {r: OpSymbol(factor, start + i, T.size)
               for i, r in enumerate(reps)}
    action = {}
    for r in reps:
        for g in G.elements():
            ga = G.mul[g][r]
            b = rep_of[ga]
            h = G.mul[G.inv[b]][ga]
            action[(symbols[r], g)] = (symbols[b], T.act_of(h))
    return list(symbols.values()), action, {T: symbols[rep_of[0]]}


def _same(T, U):
    return (T.subgroup, T.size, T.act) == (U.subgroup, U.size, U.act)


def _same_through_inverse(G, H, X):
    """Whether the left G-set X is the old right table of H\\G carried
    along Hg -> g^-1 H: g acts on the image of x as g^-1 acted on x."""
    cosets, rows = old_right_coset_gset(G, H)
    left = _left_cosets(G, G.elements(), H)
    phi = [left.index(frozenset(G.inv[a] for a in cs)) for cs in cosets]
    return (X.subgroup == full_subgroup(G) and X.size == len(cosets)
            and all(X.act_of(g)[phi[x]] == phi[rows[G.inv[g]][x]]
                    for g in G.elements() for x in range(len(cosets))))


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_action_tables_match_seed(name):
    G = group_by_name(name)
    lat = lattice_of(G)
    for H in lat.subgroups:
        assert _same_through_inverse(G, H, right_coset_gset(G, H))
        for n in range(4):
            assert _same(hset_of_orbits(H, (H,) * n),
                         FiniteGSet(H, n, tuple(tuple(range(n))
                                                for _ in H.members)))
        for n in range(5):
            new, old = hsets_up_to_iso(H, n), old_hsets_up_to_iso(H, n)
            assert len(new) == len(old)
            assert all(_same(T, U) for T, U in zip(new, old))
        for k_id in lat.ids_below(lat.id_of(H)):
            K = lat.subgroups[k_id]
            assert _same(coset_hset(H, K), old_coset_hset(H, K))
            for n in range(3):
                for T in old_hsets_up_to_iso(K, n):
                    assert _same(induce_hset(H, T), old_induce_hset(H, T))


def _old_entries(lat, bound):
    """(H id, per-orbit stabilizer ids, entry) of every seed H-set."""
    out = []
    for h_id, H in enumerate(lat.subgroups):
        for n in range(bound + 1):
            for T in old_hsets_up_to_iso(H, n):
                stabs = [lat.id_of(stab)
                         for _, stab in old_orbit_stabilizers(T)]
                key = tuple(sorted(lat.hclass_rep(h_id, s) for s in stabs))
                out.append((h_id, stabs, (h_id, key)))
    return out


def loop_admissible_entries(t):
    """The admissible class as it was computed per call: every orbit type
    of at most |G| points enumerated again and tested by its mask."""
    lat, cols = t.lattice, t.columns
    return frozenset((h_id, key)
                     for h_id in range(lat.count)
                     for n in range(lat.group.order + 1)
                     for key in orbit_types(lat, h_id, n)
                     if not id_mask(key) & ~cols[h_id])


@pytest.mark.parametrize("name", CLASS_GROUPS)
def test_admissible_classes_match_seed(name):
    """The class read from the lattice's orbit-type table, against admits
    over every seed H-set and against the per-call orbit-type loop."""
    G = group_by_name(name)
    lat = lattice_of(G)
    sets = _old_entries(lat, G.order)
    for t in enumerate_transfer_systems(G):
        old = frozenset(entry for h_id, stabs, entry in sets
                        if all(t.has(s, h_id) for s in stabs))
        cls = admissible_class_of_transfer(t)
        assert cls.entries == old == loop_admissible_entries(t)


def _relabel(T, rng):
    perm = list(range(T.size))
    rng.shuffle(perm)
    inv = invert(tuple(perm))
    rows = tuple(tuple(perm[row[inv[x]]] for x in range(T.size))
                 for row in T.act)
    return FiniteGSet(T.subgroup, T.size, rows)


@pytest.mark.parametrize("name", CLASS_GROUPS)
def test_iso_key_equality_matches_seed_key(name):
    rng = random.Random(5)
    G = group_by_name(name)
    lat = lattice_of(G)
    sets = []
    for H in lat.subgroups:
        for n in range(4):
            for T in hsets_up_to_iso(H, n):
                sets += [T, _relabel(T, rng)]
                sets += [T.conjugate(g) for g in G.elements()]
        small = hsets_up_to_iso(H, 2)
        sets += [_relabel(T.disjoint_union(U), rng)
                 for T in small for U in small]
    keys = {(iso_key(T), old_iso_key(T)) for T in sets}
    for new, old in keys:
        assert tuple(sorted(lat.subgroups[k].members for k in new)) == old
    # equal new keys <=> equal old keys, on every pair of the sets
    assert len({new for new, _ in keys}) == len(keys) \
        == len({old for _, old in keys})


@pytest.mark.parametrize("name", ["C4", "C8", "K4", "S3", "D4"])
def test_coinduced_operads_match_right_action_criterion(name):
    """Set(H\\G, As) from the left G-set G/H decides every (H', H'/K),
    its transfer system and the product checks as the right table did."""
    G = group_by_name(name)
    lat = lattice_of(G)
    xsets = [right_coset_gset(G, H) for H in lat.subgroups]
    tables = [old_right_coset_gset(G, H)[1] for H in lat.subgroups]
    for X, rows in zip(xsets, tables):
        op = CoindAsOperad(X)
        for h_id, H in enumerate(lat.subgroups):
            for k_id in lat.ids_below(h_id):
                T = coset_hset(H, lat.subgroups[k_id])
                assert op.admits(H, T) == old_coind_admits(rows, H, T)
        assert op.transfer().rel == old_coind_transfer(lat, rows)
    for X, x_rows in zip(xsets, tables):
        for Y, y_rows in zip(xsets, tables):
            report = coind_as_product_check(X, Y)
            assert (report.passed, report.checked) \
                == old_coind_as_product_check(lat, x_rows, y_rows)


@pytest.mark.parametrize("name", CLASS_GROUPS)
def test_orbit_symbols_match_seed(name):
    G = group_by_name(name)
    for t in enumerate_transfer_systems(G):
        for orb in free_model(t).orbits:
            assert orbit_symbols(orb, "X", 2) \
                == old_orbit_symbols(orb, "X", 2)


def old_restrict(T, L):
    return FiniteGSet(L, T.size, tuple(T.act_of(g) for g in L.members))


def old_are_isomorphic(T1, T2):
    return (T1.subgroup == T2.subgroup and T1.size == T2.size
            and iso_key(T1) == iso_key(T2))


def old_is_subconjugate(T1, T2):
    """Whether the graph of T1 is subconjugate to the graph of T2 inside
    G x Sigma_n: some g in G has H1 <= g H2 g^-1 and T1 iso to res c_g T2."""
    if T1.group != T2.group or T1.size != T2.size:
        return False
    for g in T1.group.elements():
        if not T2.subgroup.conjugate(g).contains(T1.subgroup):
            continue
        moved = old_restrict(T2.conjugate(g), T1.subgroup)
        if old_are_isomorphic(T1, moved):
            return True
    return False


def old_admissible_sets_of_symseq(symseq):
    G = symseq.group
    lat = lattice_of(G)
    entries = set()
    for n in sorted({orb.size for orb in symseq.orbits}):
        for H in lat.subgroups:
            for T in hsets_up_to_iso(H, n):
                if any(old_is_subconjugate(T, orb)
                       for orb in symseq.orbits if orb.size == n):
                    entries.add((lat.id_of(H), iso_key(T)))
    return frozenset(entries)


@pytest.mark.parametrize("name", ["C4", "K4", "S3", "C6"])
def test_symseq_admissibility_matches_subconjugacy(name):
    for t in enumerate_transfer_systems(group_by_name(name)):
        S = free_model(t)
        assert admissible_sets_of_symseq(S).entries \
            == old_admissible_sets_of_symseq(S)


def test_symseq_admissibility_matches_subconjugacy_on_d4_slice():
    # the table path takes ~0.35 s per D4 system, so a seeded slice
    systems = enumerate_transfer_systems(group_by_name("D4"))
    for t in random.Random(7).sample(systems, 6):
        S = free_model(t)
        assert admissible_sets_of_symseq(S).entries \
            == old_admissible_sets_of_symseq(S)
