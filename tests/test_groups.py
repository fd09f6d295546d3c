"""Group substrate tests: catalog, subgroups, homs, actions, graph subgroups.

The graph subgroup of an H-set T is {(h, sigma_T(h))} inside G x Sigma_n;
the library keeps only T, and `graph` below spells the graph out."""

import itertools
import random
import tracemalloc

import pytest

from transys.catalog import group_by_name, group_from_json
from transys.groups import (
    FiniteGSet,
    Group,
    GroupError,
    Homomorphism,
    Subgroup,
    all_subgroups,
    compose,
    coset_hset,
    cyclic_group,
    cyclic_hom,
    dihedral_group,
    direct_product,
    double_cosets,
    full_subgroup,
    generated_subgroup,
    generators,
    hset_of_orbits,
    hsets_up_to_iso,
    identity_hom,
    identity_perm,
    induce_hset,
    invert,
    iso_key,
    lattice_of,
    make_group,
    right_coset_gset,
    symmetric_group,
    trivial_subgroup,
)
from transys.indexing import admissible_sets_of_symseq
from transys.operads import SymmetricSequence


def graph(T):
    """The graph {(h, sigma_T(h))} of an H-set T, as a set of pairs."""
    return frozenset(zip(T.subgroup.members, T.act))


def test_compose_matches_its_definition():
    """compose(p, q) applies q first: its i-th entry is p[q[i]]; and p
    composed with its inverse is the identity."""
    for n in range(5):
        perms = list(itertools.permutations(range(n)))
        for p in perms:
            assert compose(p, invert(p)) == identity_perm(n)
            for q in perms:
                pq = compose(p, q)
                assert type(pq) is tuple and len(pq) == n
                assert all(pq[i] == p[q[i]] for i in range(n))


@pytest.mark.parametrize("name", ["C1", "C6", "K4", "S3", "D4", "C2xC4"])
def test_generators_generate_and_none_is_redundant(name):
    G = group_by_name(name)
    gens = generators(G)
    assert generated_subgroup(G, gens).order == G.order
    for i, g in enumerate(gens):
        assert g not in generated_subgroup(G, gens[:i])


def test_make_group_catalog():
    assert make_group("cyclic", 1).order == 1
    K4 = make_group("klein_four")
    assert K4.order == 4
    for a in range(1, 4):
        assert K4.mul[a][a] == 0  # every non-identity element is self-inverse
    assert make_group("symmetric", 3).order == 6
    assert make_group("dihedral", 4).order == 8
    C2 = make_group("cyclic", 2)
    assert make_group("direct_product", factors=(C2, C2)).order == 4


def test_make_group_rejects_bad_kinds():
    with pytest.raises(GroupError):
        make_group("quaternion", 8)
    with pytest.raises(GroupError):
        make_group("cyclic", 0)
    with pytest.raises(GroupError):
        make_group("cyclic", 25)  # above the validated order cap


def test_order_cap_checked_before_any_table_is_built():
    # C3000 used to build its 3000 x 3000 table before the order check
    oversized = [lambda: group_by_name("C3000"), lambda: group_by_name("S6"),
                 lambda: group_by_name("D1500"),
                 lambda: group_by_name("C24xC24"),
                 lambda: group_from_json({"kind": "cyclic", "n": 3000})]
    for build in oversized:
        tracemalloc.start()
        try:
            with pytest.raises(GroupError,
                               match="exceeds supported maximum 24"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


def test_group_table_validation():
    with pytest.raises(GroupError):
        Group(((0, 1), (1, 1)))  # 1 has no inverse row solution
    # identity must sit at index 0
    with pytest.raises(GroupError):
        Group(((1, 0), (0, 1)))


def test_group_hash_follows_the_table_not_the_name():
    C6 = cyclic_group(6)
    lists = Group([list(row) for row in C6.mul], name="other")
    assert lists == C6 and hash(lists) == hash(C6)
    assert hash(Group(C6.mul, name="renamed")) == hash(C6)
    S3 = symmetric_group(3)
    assert S3 != C6 and hash(S3) != hash(C6)
    assert lattice_of(lists) is lattice_of(C6)


@pytest.mark.parametrize("mul", [
    [[0, 1.7], [1.2, 0]],            # was truncated to C2 by int()
    [[0, 1.0], [1.0, 0]],
    [[False, True], [True, False]],  # bools are not element ids
    [[0, "1"], ["1", 0]],
])
def test_group_table_rejects_non_int_entries(mul):
    with pytest.raises(GroupError, match="not an element id"):
        Group(mul)
    assert Group([[0, 1], [1, 0]]).mul == ((0, 1), (1, 0))


def test_hom_and_action_tables_reject_non_int_entries():
    C2, C4 = cyclic_group(2), cyclic_group(4)
    for bad in ((0, 2.0), (0, 2.5), (False, 2)):
        with pytest.raises(GroupError, match="not a target element id"):
            Homomorphism(C2, C4, bad)
    full = full_subgroup(C2)
    for bad in (((0, 1), (1.0, 0)), ((0, 1), (True, False))):
        with pytest.raises(GroupError, match="as ints"):
            FiniteGSet(full, 2, bad)
    assert FiniteGSet(full, 2, [[0, 1], [1, 0]]).act == ((0, 1), (1, 0))


def _subgroups_by_subset_filter(G):
    """Independent oracle: check closure of every subset containing 0."""
    out = []
    elems = list(G.elements())
    for r in range(1, G.order + 1):
        for cand in itertools.combinations(elems, r):
            if 0 not in cand:
                continue
            s = set(cand)
            if all(G.mul[a][b] in s for a in s for b in s) \
               and all(G.inv[a] in s for a in s):
                out.append(tuple(sorted(s)))
    return sorted(out, key=lambda m: (len(m), m))


@pytest.mark.parametrize("name,builder", [
    ("C4", lambda: cyclic_group(4)),
    ("C8", lambda: cyclic_group(8)),
    ("K4", lambda: make_group("klein_four")),
    ("S3", lambda: symmetric_group(3)),
    ("D4", lambda: dihedral_group(4)),
    ("C12", lambda: cyclic_group(12)),
    ("D6", lambda: dihedral_group(6)),
    ("C2xC6", lambda: group_by_name("C2xC6")),
])
def test_all_subgroups_against_subset_filter(name, builder):
    G = builder()
    got = [s.members for s in all_subgroups(G)]
    assert got == _subgroups_by_subset_filter(G)


def frontier_generated_subgroup(G, gens):
    """Seed oracle: the span of gens, walked level by level under right
    multiplication by each generator and by its inverse."""
    members = {0}
    frontier = [0]
    gens = list(gens)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                for b in (G.mul[a][g], G.mul[a][G.inv[g]]):
                    if b not in members:
                        members.add(b)
                        nxt.append(b)
        frontier = nxt
    return Subgroup(G, tuple(members))


def frontier_all_subgroups(G):
    """Seed oracle: every span of a subgroup and one more element, level by
    level, each intermediate span a validated Subgroup."""
    seen = {(0,)}
    frontier = [(0,)]
    while frontier:
        nxt = []
        for members in frontier:
            for x in G.elements():
                if x in members:
                    continue
                bigger = frontier_generated_subgroup(
                    G, list(members) + [x]).members
                if bigger not in seen:
                    seen.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    ordered = sorted(seen, key=lambda m: (len(m), m))
    return tuple(Subgroup(G, m) for m in ordered)


def frontier_orbits(T):
    """Seed oracle: each orbit walked breadth-first from its least point."""
    seen = [False] * T.size
    out = []
    for x in range(T.size):
        if seen[x]:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for row in T.act:
                    if row[y] not in orbit:
                        orbit.add(row[y])
                        nxt.append(row[y])
            frontier = nxt
        for y in orbit:
            seen[y] = True
        out.append(tuple(sorted(orbit)))
    return tuple(out)


#: the perfbench reach ladder, then C2^4, D12, C9, C18 and C3xC3
REACH_ORACLE_GROUPS = ["C8", "C16", "C12", "C2xC4", "D4", "C24", "C2xC6",
                       "D6", "C2xC8", "S4", "C2xC2xC2", "C2xC2xC2xC2", "D12",
                       "C9", "C18", "C3xC3"]


@pytest.mark.parametrize("name", REACH_ORACLE_GROUPS)
def test_reach_walks_match_frontier_oracles(name, monkeypatch):
    """Subgroup list, lattice tables, generators and H-set orbits built on
    `reach` equal those of the seed's level-by-level loops, which span
    every element outside each subgroup, not one per left coset."""
    import transys.groups as groups

    G = group_by_name(name)
    lat = groups.SubgroupLattice(G)
    gens = generators(G)
    monkeypatch.setattr(groups, "all_subgroups", frontier_all_subgroups)
    monkeypatch.setattr(groups, "generated_subgroup",
                        frontier_generated_subgroup)
    old = groups.SubgroupLattice(G)
    assert lat.subgroups == old.subgroups
    assert (lat.leq, lat.meet_table, lat.conj_table) == (
        old.leq, old.meet_table, old.conj_table)
    # conjugates through validated Subgroups, as the seed looked them up
    assert lat.conj_table == tuple(
        tuple(lat.id_of(s.conjugate(g)) for s in lat.subgroups)
        for g in G.elements())
    assert gens == old.subgroups[-1].generators
    for H in lat.subgroups:
        for n in range(5):
            for T in hsets_up_to_iso(H, n):
                assert T.orbits() == frontier_orbits(T)


def test_subgroup_counts():
    assert len(all_subgroups(cyclic_group(4))) == 3
    assert len(all_subgroups(make_group("klein_four"))) == 5
    assert len(all_subgroups(symmetric_group(3))) == 6


def test_conjugation():
    S3 = symmetric_group(3)
    subs = all_subgroups(S3)
    order2 = [s for s in subs if s.order == 2]
    three_cycle = next(g for g in S3.elements() if S3.element_order(g) == 3)
    moved = order2[0].conjugate(three_cycle)
    assert moved.members != order2[0].members
    assert moved.conjugate(S3.inv[three_cycle]).members == order2[0].members
    # abelian groups conjugate trivially
    C4 = cyclic_group(4)
    for H in all_subgroups(C4):
        for g in C4.elements():
            assert H.conjugate(g).members == H.members


def test_intersection_is_subgroup():
    K4 = make_group("klein_four")
    lat = lattice_of(K4)
    for i, a in enumerate(lat.subgroups):
        for j, b in enumerate(lat.subgroups):
            meet = Subgroup(K4, tuple(a.member_set & b.member_set))
            assert lat.subgroups[lat.meet_table[i][j]] == meet


def test_hom_validation_reports_offending_pair():
    C4 = cyclic_group(4)
    C2 = cyclic_group(2)
    with pytest.raises(GroupError, match=r"\(1,1\)"):
        Homomorphism(C4, C2, (0, 1, 1, 0))


def test_kernel_and_images():
    C4 = cyclic_group(4)
    assert identity_hom(C4).kernel().members == (0,)
    S3 = symmetric_group(3)
    transposition = next(g for g in S3.elements() if S3.element_order(g) == 2)
    f = cyclic_hom(C4, S3, transposition)
    assert f.kernel().members == (0, 2)
    # preimage of the trivial subgroup under C4 ->> C2 is the kernel
    q = cyclic_hom(C4, cyclic_group(2), 1)
    src, tgt = lattice_of(C4), lattice_of(q.target)

    def preimage(H):
        return src.subgroups[q.preimage_ids[tgt.id_of(H)]]

    assert preimage(trivial_subgroup(q.target)).members == q.kernel().members
    H = Subgroup(C4, (0, 2))
    assert preimage(q.image_subgroup(H)).contains(H)


def test_double_cosets_partition():
    S3 = symmetric_group(3)
    full = full_subgroup(S3)
    assert double_cosets(S3, full, full) == (0,)
    triv = trivial_subgroup(S3)
    assert len(double_cosets(S3, triv, triv)) == 6
    transposition = next(g for g in S3.elements() if S3.element_order(g) == 2)
    A = generated_subgroup(S3, [transposition])
    reps = double_cosets(S3, A, A)
    cosets = []
    for r in reps:
        cosets.append({S3.mul[S3.mul[a][r]][b]
                       for a in A.members for b in A.members})
    assert sum(len(c) for c in cosets) == 6
    for a, b in itertools.combinations(cosets, 2):
        assert not (a & b)


def _stabilizer(T, x):
    return tuple(g for g in T.subgroup.members if T.act_of(g)[x] == x)


def test_orbit_stabilizer():
    C4 = cyclic_group(4)
    full = full_subgroup(C4)
    # left translation: one orbit, trivial stabilizers
    reg = coset_hset(full, trivial_subgroup(C4))
    assert len(reg.orbits()) == 1
    assert _stabilizer(reg, 0) == (0,)
    # C4 on C4/C2: two points, both stabilized by C2
    T = coset_hset(full, Subgroup(C4, (0, 2)))
    assert T.size == 2
    for x in range(2):
        assert _stabilizer(T, x) == (0, 2)
    # trivial action: orbit per point, stabilizer everything
    triv = hset_of_orbits(full, (full,) * 3)
    assert len(triv.orbits()) == 3
    assert all(_stabilizer(triv, x) == full.members for x in range(3))
    # |orbit| * |stab| = |H| across the board, and stabilizer_ids names
    # the stabilizer of each orbit's least point
    for H in all_subgroups(symmetric_group(3)):
        lat = lattice_of(H.group)
        for T in hsets_up_to_iso(H, 3):
            for orbit, k in zip(T.orbits(), T.stabilizer_ids):
                stab = _stabilizer(T, orbit[0])
                assert lat.id_of_members(stab) == k
                assert len(orbit) * len(stab) == H.order


def test_action_law_validation():
    C4 = cyclic_group(4)
    cyc = (1, 2, 0)
    # generator of order 4 cannot act as a 3-cycle
    with pytest.raises(GroupError):
        FiniteGSet(full_subgroup(C4), 3,
                   (identity_perm(3), cyc, compose(cyc, cyc), identity_perm(3)))
    # identity row must be the identity permutation
    C2 = cyclic_group(2)
    with pytest.raises(GroupError):
        FiniteGSet(full_subgroup(C2), 2, ((1, 0), (0, 1)))


def test_hsets_up_to_iso_counts():
    C4 = cyclic_group(4)
    full = full_subgroup(C4)
    assert len(hsets_up_to_iso(full, 0)) == 1
    C2_in_C4 = Subgroup(C4, (0, 2))
    assert len(hsets_up_to_iso(C2_in_C4, 2)) == 2
    # C4-sets on 4 points match conjugacy classes of order-dividing-4
    # permutations in S4: cycle types 1+1+1+1, 2+1+1, 2+2, 4
    assert len(hsets_up_to_iso(full, 4)) == 4
    # distinct representatives are pairwise nonisomorphic
    reps = hsets_up_to_iso(full, 4)
    keys = {iso_key(T) for T in reps}
    assert len(keys) == len(reps)


def test_hsets_cover_all_structures():
    """Oracle: every single-generator action table appears up to iso."""
    C4 = cyclic_group(4)
    full = full_subgroup(C4)
    reps = hsets_up_to_iso(full, 3)
    seen = set()
    for sigma in itertools.permutations(range(3)):
        power = identity_perm(3)
        ok = True
        rows = []
        for k in range(4):
            rows.append(power)
            power = compose(sigma, power)
        if power != identity_perm(3):
            continue  # order does not divide 4
        T = FiniteGSet(full, 3, tuple(rows))
        seen.add(iso_key(T))
    assert seen == {iso_key(T) for T in reps}


def test_graph_subgroup_basics():
    C4 = cyclic_group(4)
    full = full_subgroup(C4)
    C2_in_C4 = Subgroup(C4, (0, 2))
    # trivial T: Gamma = H x {id}
    gs = graph(hset_of_orbits(full, (full,) * 3))
    assert len(gs) == 4
    assert all(sigma == identity_perm(3) for _, sigma in gs)
    # C2 acting on itself: generator goes to the swap
    C2 = cyclic_group(2)
    gs = graph(coset_hset(full_subgroup(C2), trivial_subgroup(C2)))
    assert (1, (1, 0)) in gs
    # C4 on C4/C2: order-4 graph with generator over the swap
    gs = graph(coset_hset(full, C2_in_C4))
    assert len(gs) == 4
    assert (1, (1, 0)) in gs


def graph_conjugacy_label(T):
    """The label read from an H-set, each H-class representative a least
    id over conjugates, as it was before the lattice's id-level
    `graph_label` and its table of class representatives."""
    lat = lattice_of(T.group)
    h = lat.id_of(T.subgroup)

    def rep(x, k):
        return min(lat.conj_table[g][k] for g in lat.subgroups[x].members)

    return (T.size, min((c[h], tuple(sorted(rep(c[h], c[k])
                                            for k in T.stabilizer_ids)))
                        for c in lat.conj_table))


def hset_label(T):
    """The lattice's id-level graph label of an H-set."""
    lat = lattice_of(T.group)
    return lat.graph_label(T.size, lat.id_of(T.subgroup), T.stabilizer_ids)


def seed_graph_conjugacy_label(T):
    """The label from conjugated tables: each H^g and T^g is built, then
    read back as a lattice id and an orbit type."""
    lat = lattice_of(T.group)
    return (T.size, min((lat.id_of(T.subgroup.conjugate(g)),
                         iso_key(T.conjugate(g)))
                        for g in T.group.elements()))


def test_graph_conjugacy_label_matches_conjugated_tables():
    seen = 0
    for name in ("C4", "K4", "S3", "D4", "C2xC4", "C6", "C8", "S4", "D6"):
        G = group_by_name(name)
        for H in all_subgroups(G):
            for n in range(5):
                for T in hsets_up_to_iso(H, n):
                    assert (hset_label(T) == graph_conjugacy_label(T)
                            == seed_graph_conjugacy_label(T)), (name, T, n)
                    seen += 1
    assert seen == 969


def test_graph_subgroups_of_isomorphic_hsets_are_conjugate():
    rng = random.Random(11)
    S3 = symmetric_group(3)
    for H in all_subgroups(S3):
        for T in hsets_up_to_iso(H, 3):
            # shuffle the points to get an isomorphic copy
            relabel = list(range(T.size))
            rng.shuffle(relabel)
            inv = invert(tuple(relabel))
            rows = tuple(
                tuple(relabel[row[inv[x]]] for x in range(T.size))
                for row in T.act)
            T2 = FiniteGSet(H, T.size, rows)
            assert iso_key(T2) == iso_key(T)
            # the relabelling is the isomorphism T -> T2
            phi = tuple(relabel)
            conj = {(h, compose(phi, compose(sigma, invert(phi))))
                    for h, sigma in graph(T)}
            assert conj == graph(T2)
            assert hset_label(T) == hset_label(T2)
            # each graph is subconjugate to the other
            entry = (lattice_of(S3).id_of(H), iso_key(T))
            for orb in (T, T2):
                level = SymmetricSequence(S3, (orb,))
                assert entry in admissible_sets_of_symseq(level).entries


def _materialized_fixed_points(G, small, big):
    """Oracle: fixed cosets of (G x Sigma_n)/Gamma_big under Gamma_small,
    the graphs of the H-sets small and big, by brute force."""
    n = big.size
    perms = sorted(itertools.permutations(range(n)))
    sigma_big = dict(graph(big))

    def coset_rep(a, pi):
        return min((G.mul[a][h], compose(pi, sigma_big[h]))
                   for h in big.subgroup.members)

    points = {coset_rep(a, pi) for a in G.elements() for pi in perms}
    count = 0
    for a, pi in points:
        if all(coset_rep(G.mul[g][a], compose(s, pi)) == (a, pi)
               for g, s in graph(small)):
            count += 1
    return count


def test_subconjugacy_matches_materialized_orbits():
    """A one-orbit sequence admits exactly the graphs with fixed points
    on its free orbit."""
    for G in (cyclic_group(4), symmetric_group(3)):
        lat = lattice_of(G)
        for n in (1, 2, 3):
            sets = [T for H in lat.subgroups for T in hsets_up_to_iso(H, n)]
            for T2 in sets:
                admitted = admissible_sets_of_symseq(
                    SymmetricSequence(G, (T2,))).entries
                for T1 in sets:
                    oracle = _materialized_fixed_points(G, T1, T2) > 0
                    entry = (lat.id_of(T1.subgroup), iso_key(T1))
                    assert (entry in admitted) == oracle, (T1, T2)


def test_induce_hset():
    C4 = cyclic_group(4)
    full = full_subgroup(C4)
    C2_in_C4 = Subgroup(C4, (0, 2))
    T = coset_hset(C2_in_C4, trivial_subgroup(C4))  # C2/1, two points
    ind = induce_hset(full, T)
    assert ind.size == (full.order // C2_in_C4.order) * T.size
    # inducing K/K up gives H/K
    ind2 = induce_hset(full, coset_hset(C2_in_C4, C2_in_C4))
    assert iso_key(ind2) == iso_key(coset_hset(full, C2_in_C4))


def test_right_coset_gset():
    C4 = cyclic_group(4)
    C2 = Subgroup(C4, (0, 2))
    X = right_coset_gset(C4, C2)
    # C2\C4 as the isomorphic left C4-set C4/C2
    assert X.size == 2 and X == coset_hset(full_subgroup(C4), C2)
    # the generator swaps the two cosets
    assert X.act_of(1) == (1, 0)


def test_subgroup_as_group_roundtrip():
    S3 = symmetric_group(3)
    for H in all_subgroups(S3):
        Hg = H.as_group()
        assert Hg.order == H.order
        for a in range(Hg.order):
            for b in range(Hg.order):
                assert H.members[Hg.mul[a][b]] \
                    == S3.mul[H.members[a]][H.members[b]]


def test_dihedral_and_product_structure():
    D3 = dihedral_group(3)  # order 6, same subgroup profile as S3
    assert len(all_subgroups(D3)) == 6
    C2 = cyclic_group(2)
    C4 = cyclic_group(4)
    P = direct_product(C2, C4)
    assert P.order == 8
    lat = lattice_of(P)
    assert lat.count == len(_subgroups_by_subset_filter(P))
