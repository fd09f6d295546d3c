"""Indexing-system dictionary tests: admits, closure laws, generated
transfer systems, and admissibility of orbit-presented sequences."""

import pytest

from transys.catalog import group_by_name
from transys.groups import (
    FiniteGSet,
    GroupError,
    Subgroup,
    coset_hset,
    full_subgroup,
    hset_of_orbits,
    hsets_up_to_iso,
    induce_hset,
    iso_key,
    lattice_of,
    trivial_subgroup,
)
from transys.indexing import (
    AdmissibleClass,
    IndexingSystem,
    admissible_sets_of_symseq,
    admissible_class_of_transfer,
    generated_transfer,
)
from transys.operads import SymmetricSequence, free_model, symseq_transfer
from transys.transfer import complete, discrete, enumerate_transfer_systems, join, meet


def trivial_hset(H, n):
    return hset_of_orbits(H, (H,) * n)


def entry(lat, H, T):
    return (lat.id_of(H), iso_key(T))


def test_admits_basics():
    C4 = group_by_name("C4")
    lat = lattice_of(C4)
    full = full_subgroup(C4)
    bottom = IndexingSystem(discrete(C4))
    top = IndexingSystem(complete(C4))
    # trivial H-sets are admitted by everything
    for H in lat.subgroups:
        for n in range(4):
            assert bottom.admits(H, trivial_hset(H, n))
    # the discrete system admits no free orbit
    C2 = Subgroup(C4, (0, 2))
    assert not bottom.admits(C2, coset_hset(C2, trivial_subgroup(C4)))
    # the complete system admits every H-set
    for H in lat.subgroups:
        for n in range(5):
            for T in hsets_up_to_iso(H, n):
                assert top.admits(H, T)


def test_admits_requires_matching_subgroup():
    C4 = group_by_name("C4")
    C2 = Subgroup(C4, (0, 2))
    ind = IndexingSystem(complete(C4))
    with pytest.raises(GroupError):
        ind.admits(full_subgroup(C4), trivial_hset(C2, 1))


def test_admits_invariant_under_iso_and_conjugation():
    S3 = group_by_name("S3")
    lat = lattice_of(S3)
    for t in enumerate_transfer_systems(S3):
        ind = IndexingSystem(t)
        for H in lat.subgroups:
            for T in hsets_up_to_iso(H, 3):
                base = ind.admits(H, T)
                for g in S3.elements():
                    moved = T.conjugate(g)
                    assert ind.admits(moved.subgroup, moved) == base
            # reordering the points of a disjoint union changes nothing
            small = hsets_up_to_iso(H, 2)
            for T1 in small:
                for T2 in small:
                    assert ind.admits(H, T1.disjoint_union(T2)) \
                        == ind.admits(H, T2.disjoint_union(T1))


def test_closure_laws():
    """Restriction, disjoint union, and self-induction stability of admits."""
    for name in ("C4", "K4", "S3"):
        G = group_by_name(name)
        lat = lattice_of(G)
        for t in enumerate_transfer_systems(G):
            ind = IndexingSystem(t)
            for H in lat.subgroups:
                sets = [T for n in range(4) for T in hsets_up_to_iso(H, n)]
                for T in sets:
                    if not ind.admits(H, T):
                        continue
                    # restriction
                    for l_id in lat.ids_below(lat.id_of(H)):
                        L = lat.subgroups[l_id]
                        res = FiniteGSet(L, T.size, tuple(
                            T.act_of(g) for g in L.members))
                        assert ind.admits(L, res)
                    # coproducts
                    for T2 in sets:
                        if ind.admits(H, T2):
                            assert ind.admits(H, T.disjoint_union(T2))
            # self-induction: T over K and H/K admitted => ind_K^H T admitted
            for h_id in range(lat.count):
                H = lat.subgroups[h_id]
                for k_id in lat.ids_below(h_id):
                    K = lat.subgroups[k_id]
                    if not ind.admits(H, coset_hset(H, K)):
                        continue
                    for T in hsets_up_to_iso(K, 2):
                        if ind.admits(K, T):
                            assert ind.admits(H, induce_hset(H, T))


def test_round_trip_and_lattice_transport():
    for name in ("C4", "K4"):
        G = group_by_name(name)
        lat = lattice_of(G)
        systems = enumerate_transfer_systems(G)
        sets = [(H, T) for H in lat.subgroups
                for n in range(4) for T in hsets_up_to_iso(H, n)]
        for s in systems:
            for t in systems:
                # the meet of indexing systems is the intersection of classes
                both = IndexingSystem(meet(s, t))
                i_s, i_t = IndexingSystem(s), IndexingSystem(t)
                for H, T in sets:
                    assert both.admits(H, T) \
                        == (i_s.admits(H, T) and i_t.admits(H, T))
                # the join is generated by the union of the classes
                union = AdmissibleClass(
                    lat,
                    admissible_class_of_transfer(s).entries
                    | admissible_class_of_transfer(t).entries)
                assert generated_transfer(union).rel == join(s, t).rel


def test_generated_transfer_examples():
    C4 = group_by_name("C4")
    lat = lattice_of(C4)
    full = full_subgroup(C4)
    C2 = Subgroup(C4, (0, 2))
    # trivial sets only generate the discrete system
    trivial_entries = frozenset(
        {entry(lat, full, trivial_hset(full, 2))})
    assert generated_transfer(AdmissibleClass(lat, trivial_entries)).pairs() == []
    # the single orbit C4/C2 generates exactly the one transfer
    cls = AdmissibleClass(lat, frozenset(
        {entry(lat, full, coset_hset(full, C2))}))
    assert generated_transfer(cls).pairs() == [(1, 2)]
    # a doubled orbit generates the same system as the single one
    T2 = coset_hset(C2, trivial_subgroup(C4))
    single = AdmissibleClass(lat, frozenset({entry(lat, C2, T2)}))
    double = AdmissibleClass(lat, frozenset(
        {entry(lat, C2, T2.disjoint_union(T2))}))
    assert generated_transfer(single).rel == generated_transfer(double).rel


def test_admissible_sets_of_symseq():
    C2 = group_by_name("C2")
    lat = lattice_of(C2)
    full = full_subgroup(C2)
    t = enumerate_transfer_systems(C2)[-1]
    S = free_model(t)  # one free orbit at level 2
    cls = admissible_sets_of_symseq(S)
    # level 2 admits the regular C2-set and its restriction, two free
    # points of the trivial group, and nothing else
    regular = coset_hset(full, trivial_subgroup(C2))
    assert cls.entries == {entry(lat, full, regular), (lat.trivial_id, (0, 0))}
    # empty sequence admits nothing
    empty = SymmetricSequence(C2, {})
    assert admissible_sets_of_symseq(empty).entries == frozenset()


def test_generated_transfer_of_admissible_class_matches_symseq_route():
    for name in ("C4", "K4"):
        G = group_by_name(name)
        for t in enumerate_transfer_systems(G):
            S = free_model(t)
            direct = symseq_transfer(S)
            assert direct.rel == t.rel
            if not S.levels:
                continue
            via_class = generated_transfer(admissible_sets_of_symseq(S))
            assert via_class.rel == t.rel


def test_admissible_class_of_transfer_roundtrip():
    C4 = group_by_name("C4")
    for t in enumerate_transfer_systems(C4):
        cls = admissible_class_of_transfer(t)
        assert generated_transfer(cls).rel == t.rel
