"""H-sets by orbit type against the permutation-table code it replaced.

The oracles below are the earlier implementations, kept in behaviour: four
separate coset enumerations over frozenset cosets (`coset_hset`,
`right_coset_gset`, `induce_hset`, `orbit_symbols`), `hsets_up_to_iso` as a
chain of validated disjoint unions, the member-tuple `iso_key`, and
`admissible_class_of_transfer` as `admits` over every enumerated H-set.
"""

import random

import pytest

from transys.catalog import group_by_name
from transys.groups import (
    FiniteGSet,
    coset_hset,
    full_subgroup,
    hsets_up_to_iso,
    induce_hset,
    invert,
    iso_key,
    lattice_of,
    right_coset_gset,
    trivial_hset,
)
from transys.indexing import admissible_class_of_transfer
from transys.operads import free_model
from transys.rewrite import OpSymbol, orbit_symbols
from transys.transfer import enumerate_transfer_systems

TABLE_GROUPS = tuple(f"C{n}" for n in range(1, 13)) + ("K4", "S3", "D4",
                                                        "C2xC4")
CLASS_GROUPS = ("C4", "K4", "S3", "D4")


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


def old_coset_hset(H, K):
    G = H.group
    cosets = _left_cosets(G, H.members, K)
    point_of = {x: i for i, cs in enumerate(cosets) for x in cs}
    reps = [min(cs) for cs in cosets]
    rows = [tuple(point_of[G.mul[g][r]] for r in reps) for g in H.members]
    return FiniteGSet(H, len(cosets), tuple(rows))


def old_right_coset_gset(G, H):
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
    return FiniteGSet(full_subgroup(G), len(cosets), tuple(rows),
                      side="right")


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


def old_iso_key(T):
    H = T.subgroup
    return tuple(sorted(min(stab.conjugate(h).members for h in H.members)
                        for _, stab in T.orbit_stabilizers()))


def old_orbit_symbols(orb, factor, start):
    G = orb.group
    cosets = _left_cosets(G, G.elements(), orb.subgroup)
    reps = [min(cs) for cs in cosets]
    rep_of = {a: min(cs) for cs in cosets for a in cs}
    symbols = {r: OpSymbol(factor, start + i, orb.arity)
               for i, r in enumerate(reps)}
    action = {}
    for r in reps:
        for g in G.elements():
            ga = G.mul[g][r]
            b = rep_of[ga]
            h = G.mul[G.inv[b]][ga]
            action[(symbols[r], g)] = (symbols[b], orb.hset.act_of(h))
    return list(symbols.values()), action, {orb: symbols[rep_of[0]]}


def _same(T, U):
    return (T.subgroup, T.size, T.act, T.side) == (U.subgroup, U.size, U.act,
                                                    U.side)


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_action_tables_match_seed(name):
    G = group_by_name(name)
    lat = lattice_of(G)
    for H in lat.subgroups:
        assert _same(right_coset_gset(G, H), old_right_coset_gset(G, H))
        for n in range(4):
            assert _same(trivial_hset(H, n),
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
    """(H id, per-orbit stabilizer ids, hset_entry) of every seed H-set."""
    out = []
    for h_id, H in enumerate(lat.subgroups):
        for n in range(bound + 1):
            for T in old_hsets_up_to_iso(H, n):
                stabs = [lat.id_of(stab) for _, stab in T.orbit_stabilizers()]
                key = tuple(sorted(lat.hclass_rep(h_id, s) for s in stabs))
                out.append((h_id, stabs, (h_id, key)))
    return out


@pytest.mark.parametrize("name", CLASS_GROUPS)
def test_admissible_classes_match_seed(name):
    G = group_by_name(name)
    lat = lattice_of(G)
    sets = _old_entries(lat, G.order)
    for t in enumerate_transfer_systems(G):
        old = frozenset(entry for h_id, stabs, entry in sets
                        if all(t.has(s, h_id) for s in stabs))
        cls = admissible_class_of_transfer(t)
        assert cls.entries == old
        assert cls.to_json() == [{"H": h, "orbits": list(o)}
                                 for h, o in sorted(old)]


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


@pytest.mark.parametrize("name", CLASS_GROUPS)
def test_orbit_symbols_match_seed(name):
    G = group_by_name(name)
    for t in enumerate_transfer_systems(G):
        for orbs in free_model(t).levels.values():
            for orb in orbs:
                assert orbit_symbols(orb, "X", 2) \
                    == old_orbit_symbols(orb, "X", 2)
