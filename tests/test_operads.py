"""Operad-level tests: free models, coinduced associativity operads,
change-of-group on generators, and the obstruction to noninjective
induction."""

import functools
import itertools
import math
import operator
import random
from collections import Counter

import pytest

from transys import operads
from transys.catalog import catalog_hom, catalog_homs, group_by_name
from transys.functors import image_L, image_R, preimage_L
from transys.groups import (
    GroupError,
    Subgroup,
    compose,
    coset_action,
    double_cosets,
    full_subgroup,
    FiniteGSet,
    generators,
    hset_of_orbits,
    identity_perm,
    inclusion_hom,
    invert,
    lattice_of,
    reach,
    right_coset_gset,
    trivial_subgroup,
)
from transys.indexing import admissible_class_of_transfer
from transys.operads import (
    CoindAsOperad,
    SymmetricSequence,
    coind_as_product_check,
    coproduct_join_check,
    _direct_pullback_labels,
    _pullback_orbit,
    double_coset_check,
    free_model,
    induce_symseq,
    is_sigma_free_pairs,
    noninjective_induction_counterexample,
    restrict_symseq_predicted,
    symseq_transfer,
    theoremB_coind_check,
    theoremB_ind_check,
    theoremB_res_check,
)
from transys.transfer import (
    complete,
    discrete,
    enumerate_transfer_systems,
)

from test_groups import graph_conjugacy_label


def test_free_model_shape():
    C2 = group_by_name("C2")
    assert free_model(discrete(C2)).orbits == ()
    top = complete(C2)
    S = free_model(top)
    assert [T.size for T in S.orbits] == [2]
    assert symseq_transfer(free_model(discrete(C2))).pairs() == []


@pytest.mark.parametrize("name", ["C4", "C8", "K4", "S3"])
def test_free_model_roundtrip(name):
    G = group_by_name(name)
    for t in enumerate_transfer_systems(G):
        assert symseq_transfer(free_model(t)).rel == t.rel


def coind_level(op, n):
    """Level n of the coinduced operad: a permutation per point of X."""
    perms = sorted(itertools.permutations(range(n)))
    return list(itertools.product(perms, repeat=op.xset.size))


def coind_fixed_count(op, T):
    """Points of the materialized level fixed by the graph of the H-set T,
    by brute force: (g, sigma) sends alpha to x -> alpha(g^-1 x) sigma^-1."""
    X = op.xset
    G = X.group
    pairs = [(g, invert(T.act_of(g))) for g in T.subgroup.members]
    return sum(
        all(tuple(compose(alpha[X.act_of(G.inv[g])[x]], sigma_inv)
                  for x in range(X.size)) == alpha
            for g, sigma_inv in pairs)
        for alpha in coind_level(op, T.size))


def test_coind_criterion_examples():
    C4 = group_by_name("C4")
    full = full_subgroup(C4)
    C2 = Subgroup(C4, (0, 2))
    # free orbit: admits everything
    free = CoindAsOperad(right_coset_gset(C4, trivial_subgroup(C4)))
    assert free.transfer().rel == complete(C4).rel
    # a point fixed by all of H blocks every nontrivial H-set
    one_point = CoindAsOperad(right_coset_gset(C4, full))
    from transys.groups import coset_hset
    assert not one_point.admits(full, coset_hset(full, C2))
    assert one_point.transfer().rel == discrete(C4).rel
    # X = C2\C4 admits C4/C2 but not C4/1
    op = CoindAsOperad(right_coset_gset(C4, C2))
    assert op.admits(full, coset_hset(full, C2))
    assert not op.admits(full, coset_hset(full, trivial_subgroup(C4)))
    assert op.transfer().pairs() == [(1, 2)]


def test_orbits_sorted_stably_by_size():
    # symbol ids and witness terms number the orbits in this order
    D4 = group_by_name("D4")
    t = complete(D4)
    lat = t.lattice
    S = free_model(t)
    sizes = [T.size for T in S.orbits]
    assert sizes == sorted(sizes) and set(sizes) == {2, 4, 8}
    pairs = [(T.stabilizer_ids[0], lat.id_of(T.subgroup)) for T in S.orbits]
    for n in set(sizes):
        assert [p for p, m in zip(pairs, sizes) if m == n] == [
            (k, h) for k, h in t.pairs()
            if lat.subgroups[h].order == n * lat.subgroups[k].order]
    R = free_model(enumerate_transfer_systems(D4)[42])
    union = SymmetricSequence(D4, S.orbits + R.orbits).orbits
    assert [T.size for T in union] == sorted(T.size for T in union)
    for n in set(sizes):
        assert [T for T in union if T.size == n] == [
            T for T in S.orbits + R.orbits if T.size == n]


def test_coind_criterion_matches_materialized_levels():
    C4 = group_by_name("C4")
    lat = lattice_of(C4)
    from transys.groups import coset_hset, hsets_up_to_iso
    for H_id in range(lat.count):
        H = lat.subgroups[H_id]
        op = CoindAsOperad(right_coset_gset(C4, lat.subgroups[1]))
        for n in range(1, 4):
            for T in hsets_up_to_iso(H, n):
                assert op.admits(H, T) == (coind_fixed_count(op, T) > 0)


def test_coind_materialization_guard():
    # the direct pullback walks the one coset of C4/C4, not its 9! points
    C4 = group_by_name("C4")
    full = full_subgroup(C4)
    trivial9 = hset_of_orbits(full, (full,) * 9)
    big = SymmetricSequence(C4, (trivial9,))
    report = double_coset_check(catalog_hom("id_C4"), big)
    assert report.passed and report.checked == 1
    # the coinduced operad decides that arity by its criterion alone
    op = CoindAsOperad(right_coset_gset(C4, trivial_subgroup(C4)))
    assert op.admits(full, trivial9)


def test_coind_product_checks():
    C4 = group_by_name("C4")
    lat = lattice_of(C4)
    xsets = [right_coset_gset(C4, H) for H in lat.subgroups]
    # meet with itself and absorption by the free orbit
    assert coind_as_product_check(xsets[1], xsets[1]).passed
    assert coind_as_product_check(xsets[0], xsets[2]).passed
    for X in xsets:
        for Y in xsets:
            assert coind_as_product_check(X, Y).passed


def test_coproduct_join_over_lattice_pairs():
    for name in ("C4", "K4"):
        G = group_by_name(name)
        systems = enumerate_transfer_systems(G)
        for s in systems:
            for t in systems:
                assert coproduct_join_check(free_model(s), free_model(t)).passed


def test_restrict_identity():
    f = catalog_hom("id_C4")
    t = enumerate_transfer_systems(group_by_name("C4"))[-1]
    S = free_model(t)
    back = restrict_symseq_predicted(f, S)
    assert symseq_transfer(back).rel == t.rel
    assert Counter(T.size for T in back.orbits) \
        == Counter(T.size for T in S.orbits)


def test_restrict_to_trivial_group_counts_free_orbits():
    # pulling a free orbit back along 1 -> G leaves |G|/|H| free orbits
    C4 = group_by_name("C4")
    sub0 = catalog_hom("C4_sub0_incl")  # trivial subgroup into C4
    t = enumerate_transfer_systems(C4)[-1]
    S = free_model(t)
    restricted = restrict_symseq_predicted(sub0, S)
    for n in {T.size for T in S.orbits}:
        expected = sum(C4.order // orb.subgroup.order
                       for orb in S.orbits if orb.size == n)
        assert sum(orb.size == n for orb in restricted.orbits) == expected
    for orb in restricted.orbits:
        assert orb.subgroup.order == 1  # free Sigma-orbits


def test_theoremB_res():
    for name in ("C4_to_S3", "C2_into_C4", "C4_onto_C2"):
        f = catalog_hom(name)
        systems = enumerate_transfer_systems(f.target)
        report = theoremB_res_check(f, systems)
        assert report.passed, report.counterexample
        # spot-check a single value against the functor directly
        got = symseq_transfer(restrict_symseq_predicted(f, free_model(systems[-1])))
        assert got.rel == preimage_L(f, systems[-1]).rel


def test_induce_symseq():
    m = catalog_hom("C2_into_C4")
    C2 = m.source
    t = enumerate_transfer_systems(C2)[-1]
    S = free_model(t)
    ind = induce_symseq(m, S)
    assert [T.size for T in ind.orbits] == [2]
    orb = ind.orbits[0]
    assert orb.subgroup.members == (0, 2)
    # index formula: induced orbits grow by |G'|/|G|
    for a, b in zip(S.orbits, ind.orbits):
        n = a.size
        assert b.size == n
        size_src = m.source.order * math.factorial(n) // a.subgroup.order
        size_tgt = m.target.order * math.factorial(n) // b.subgroup.order
        assert size_tgt * m.source.order == size_src * m.target.order \
            or size_tgt == size_src * (m.target.order // m.source.order)


def test_theoremB_ind():
    for name in ("C2_into_C4", "C2_into_C8", "C4_into_C8"):
        m = catalog_hom(name)
        systems = enumerate_transfer_systems(m.source)
        report = theoremB_ind_check(m, systems)
        assert report.passed, report.counterexample
        got = symseq_transfer(induce_symseq(m, free_model(systems[-1])))
        assert got.rel == image_L(m, systems[-1]).rel


def test_induce_rejects_noninjective():
    f = catalog_hom("C4_onto_C2")
    t = enumerate_transfer_systems(f.source)[-1]
    with pytest.raises(GroupError):
        induce_symseq(f, free_model(t))


def test_noninjective_counterexample():
    for name in ("C4_onto_C2", "bang_C2"):
        f = catalog_hom(name)
        w = noninjective_induction_counterexample(f)
        assert w.verified
        assert w.permutation != identity_perm(len(w.permutation))
        assert (0, w.permutation) in w.induced_pairs
        assert not is_sigma_free_pairs(w.induced_pairs)
    with pytest.raises(GroupError):
        noninjective_induction_counterexample(catalog_hom("C2_into_C4"))


def test_theoremB_coind():
    for name in ("C4", "K4", "S3"):
        report = theoremB_coind_check(group_by_name(name))
        assert report.passed, report.counterexample
    # the C2 <= C4 instance equals the functor-side computation
    C4 = group_by_name("C4")
    op = CoindAsOperad(right_coset_gset(C4, Subgroup(C4, (0, 2))))
    incl = catalog_hom("C4_sub1_incl")
    assert op.transfer().rel == image_R(incl, discrete(incl.source)).rel


def test_double_coset_check():
    for name in ("C4_to_S3", "C2_into_C4", "C4_onto_C2"):
        f = catalog_hom(name)
        for t in enumerate_transfer_systems(f.target):
            report = double_coset_check(f, free_model(t))
            assert report.passed, (name, report.counterexample)


#: the most codes of G' x Sigma_n an oracle below may walk
CODE_LIMIT = 200_000


def seed_direct_pullback_labels(f, orb, limit=CODE_LIMIT):
    """The direct pullback with each point found as the least member of
    its coset by |H| compositions, acted on by every element of G."""
    G, Gp, n = f.source, f.target, orb.size
    assert Gp.order * math.factorial(n) <= limit
    H = orb.subgroup
    sigma = {h: orb.act_of(h) for h in H.members}
    perms = sorted(itertools.permutations(range(n)))

    def coset_rep(a, pi):
        return min((Gp.mul[a][h], compose(pi, sigma[h])) for h in H.members)

    points = sorted({coset_rep(a, pi) for a in Gp.elements() for pi in perms})
    index = {p: i for i, p in enumerate(points)}
    gens = [(g, identity_perm(n)) for g in G.elements() if g != 0]
    if n > 1:
        swap = list(range(n))
        swap[0], swap[1] = swap[1], swap[0]
        gens += [(0, tuple(swap)), (0, tuple(list(range(1, n)) + [0]))]
    seen = [False] * len(points)
    labels = []
    for start in range(len(points)):
        if seen[start]:
            continue
        frontier = [points[start]]
        seen[start] = True
        while frontier:
            nxt = []
            for a, pi in frontier:
                for g, s in gens:
                    q = coset_rep(Gp.mul[f.map[g]][a], compose(s, pi))
                    if not seen[index[q]]:
                        seen[index[q]] = True
                        nxt.append(q)
            frontier = nxt
        a, pi = points[start]
        members, rows = [], {}
        for g in G.elements():
            h = Gp.mul[Gp.mul[Gp.inv[a]][f.map[g]]][a]
            if h in H.member_set:
                members.append(g)
                rows[g] = compose(pi, compose(sigma[h], invert(pi)))
        L = Subgroup(G, tuple(members))
        labels.append(graph_conjugacy_label(
            FiniteGSet(L, n, tuple(rows[g] for g in L.members))))
    return sorted(labels)


def dict_direct_pullback_labels(f, orb, limit=CODE_LIMIT):
    """The direct pullback with each (a, pi) numbered in a dict keyed by
    the pair, one `compose` per step, walked by `reach`."""
    G, Gp, n = f.source, f.target, orb.size
    assert Gp.order * math.factorial(n) <= limit
    H = orb.subgroup
    sigma = dict(zip(H.members, orb.act))
    number = {}
    points = []
    perms = list(itertools.permutations(range(n)))  # lexicographic
    for a in Gp.elements():
        for pi in perms:
            if (a, pi) not in number:
                for h in H.members:
                    number[(Gp.mul[a][h], compose(pi, sigma[h]))] = len(points)
                points.append((a, pi))
    gens = [(Gp.mul[f.map[g]], identity_perm(n)) for g in generators(G)]
    if n > 1:
        swap = list(range(n))
        swap[0], swap[1] = swap[1], swap[0]
        cycle = tuple(list(range(1, n)) + [0])
        gens += [(Gp.mul[0], tuple(swap)), (Gp.mul[0], cycle)]

    def step(p):
        a, pi = points[p]
        return [number[(row[a], compose(s, pi))] for row, s in gens]

    seen = set()
    labels = []
    for start in range(len(points)):
        if start in seen:
            continue
        seen.update(reach(start, step))
        a, pi = points[start]
        ainv = Gp.inv[a]
        members = []
        rows = {}
        for g in G.elements():
            h = Gp.mul[Gp.mul[ainv][f.map[g]]][a]
            if h in H.member_set:
                members.append(g)
                rows[g] = compose(pi, compose(sigma[h], invert(pi)))
        L = Subgroup(G, tuple(members))
        labels.append(graph_conjugacy_label(
            FiniteGSet(L, n, tuple(rows[g] for g in L.members))))
    return sorted(labels)


def numbered_direct_pullback_labels(f, T, limit=CODE_LIMIT):
    """The direct pullback over every code of G' x Sigma_n, each coset
    numbered by its least code in a flat list and walked over a bytearray.

    An element (a, pi) is coded as the int a * n! + rank(pi), pi ranked
    lexicographically, so ascending codes are ascending pairs.  Right
    multiplication by each sigma_h and left multiplication by the swap
    and the cycle of Sigma_n are rank tables; a generator of G moves a
    alone.
    """
    G, Gp, n = f.source, f.target, T.size
    total = Gp.order * math.factorial(n)
    assert total <= limit
    H = T.subgroup
    sigma = dict(zip(H.members, T.act))
    perms = list(itertools.permutations(range(n)))  # lexicographic
    size = len(perms)
    if n > 1:
        rank = {pi: r for r, pi in enumerate(perms)}
        swap = (1, 0) + tuple(range(2, n))
        cycle = tuple(range(1, n)) + (0,)
        # compose(p, q) is itemgetter(*q)(p): s . pi reads s at pi, and
        # pi . sigma_h reads pi at sigma_h
        lefts = [[rank[operator.itemgetter(*pi)(s)] for pi in perms]
                 for s in (swap, cycle)]
        rights = [[rank[q(pi)] for pi in perms]
                  for q in [operator.itemgetter(*s) for s in T.act]]
    else:  # a single permutation; itemgetter of one index gives no tuple
        lefts, rights = [], [[0]] * H.order
    # number each code with its coset (a, pi)Gamma; in ascending order,
    # the first member met is the coset's least, its point
    number = [-1] * total
    points = []
    for a, row in enumerate(Gp.mul):
        codes = [row[h] * size for h in H.members]
        for r in range(size):
            if number[a * size + r] < 0:
                p = len(points)
                for code, right in zip(codes, rights):
                    number[code + right[r]] = p
                points.append(a * size + r)

    # each generator of G as the row of f(g) in G', acting on a
    moves = [Gp.mul[f.map[g]] for g in generators(G)]
    seen = bytearray(len(points))
    labels = []
    for start in range(len(points)):
        if seen[start]:
            continue
        seen[start] = 1
        queue = [start]
        for p in queue:  # the list grows while it is read
            a, r = divmod(points[p], size)
            base = a * size
            for q in ([number[row[a] * size + r] for row in moves]
                      + [number[base + left[r]] for left in lefts]):
                if not seen[q]:
                    seen[q] = 1
                    queue.append(q)
        a, r = divmod(points[start], size)
        pi = perms[r]
        ainv = Gp.inv[a]
        members = []
        rows = {}
        for g in G.elements():
            h = Gp.mul[Gp.mul[ainv][f.map[g]]][a]
            if h in H.member_set:
                members.append(g)
                rows[g] = compose(pi, compose(sigma[h], invert(pi)))
        L = Subgroup(G, tuple(members))
        labels.append(graph_conjugacy_label(
            FiniteGSet(L, n, tuple(rows[g] for g in L.members))))
    return sorted(labels)


def coset_coded_direct_pullback_labels(f, T, limit=CODE_LIMIT):
    """The direct pullback over all |G'/H| * n! points of
    (G' x Sigma_n)/Gamma, walked over a bytearray.

    Each coset has one member (b_i, pi) with b_i the least element of a
    coset of G'/H, as (b_i h, pi)Gamma = (b_i, pi . sigma_h^-1)Gamma; it is
    coded as the int i * n! + rank(pi), pi ranked lexicographically.  A
    generator g of G moves (b_i, pi) to (b_j, pi . sigma_h^-1) where
    f(g) b_i = b_j h, and the swap and the cycle of Sigma_n multiply pi on
    the left; each of these moves is a rank table.
    """
    G, Gp, n = f.source, f.target, T.size
    H = T.subgroup
    size = math.factorial(n)
    total = Gp.order // H.order * size
    assert total <= limit
    reps, table = coset_action(Gp, Gp.elements(), H)
    # each generator of G as the row of f(g): (j, h) per coset i
    gen_rows = [table[f.map[g]] for g in generators(G)]
    perms = list(itertools.permutations(range(n)))  # lexicographic
    if n > 1:
        rank = {pi: r for r, pi in enumerate(perms)}
        swap = (1, 0) + tuple(range(2, n))
        cycle = tuple(range(1, n)) + (0,)
        # compose(p, q) is itemgetter(*q)(p): s . pi reads s at pi, and
        # pi . sigma_h^-1 reads pi at sigma_h^-1
        lefts = [[rank[operator.itemgetter(*pi)(s)] for pi in perms]
                 for s in (swap, cycle)]
        rights = {}
        for h in {h for row in gen_rows for _, h in row}:
            q = operator.itemgetter(*invert(T.act_of(h)))
            rights[h] = [rank[q(pi)] for pi in perms]
    else:  # a single permutation; itemgetter of one index gives no tuple
        lefts, rights = [], dict.fromkeys(H.members, [0])
    # per coset i, where each generator sends it: (j * n!, table of h)
    moves = [[] for _ in reps]
    for row in gen_rows:
        for move, (j, h) in zip(moves, row):
            move.append((j * size, rights[h]))

    seen = bytearray(total)
    labels = []
    for start in range(total):
        if seen[start]:
            continue
        seen[start] = 1
        queue = [start]
        for p in queue:  # the list grows while it is read
            i, r = divmod(p, size)
            base = i * size
            for q in ([b + right[r] for b, right in moves[i]]
                      + [base + left[r] for left in lefts]):
                if not seen[q]:
                    seen[q] = 1
                    queue.append(q)
        i, r = divmod(start, size)
        a, pi = reps[i], perms[r]
        ainv = Gp.inv[a]
        members = []
        rows = {}
        for g in G.elements():
            h = Gp.mul[Gp.mul[ainv][f.map[g]]][a]
            if h in H.member_set:
                members.append(g)
                rows[g] = compose(pi, compose(T.act_of(h), invert(pi)))
        L = Subgroup(G, tuple(members))
        labels.append(graph_conjugacy_label(
            FiniteGSet(L, n, tuple(rows[g] for g in L.members))))
    return sorted(labels)


def catalog_orbits():
    """(hom name, hom, orbit) for every orbit of every free model of every
    target system of every catalog hom."""
    return [(name, f, orb)
            for name, f in sorted(catalog_homs().items())
            for t in enumerate_transfer_systems(f.target)
            for orb in free_model(t).orbits]


def formula_labels(f, orb):
    """The labels the double-coset formula predicts for one orbit, read
    from the pulled-back H-sets."""
    image = Subgroup(f.target, tuple(set(f.map)))
    return sorted(graph_conjugacy_label(_pullback_orbit(f, r, orb))
                  for r in double_cosets(f.target, image, orb.subgroup))


def gset_direct_pullback_labels(f, T):
    """The coset walk of the direct pullback with each orbit built as a
    validated L-set and labelled from its action table."""
    G, H = f.source, T.subgroup
    reps, table = coset_action(f.target, f.target.elements(), H)
    gen_rows = [table[f.map[g]] for g in generators(G)]
    seen = set()
    labels = []
    for i in range(len(reps)):
        if i in seen:
            continue
        seen.update(reach(i, lambda p: [row[p][0] for row in gen_rows]))
        members, rows = [], []
        for g in G.elements():
            j, h = table[f.map[g]][i]
            if j == i:
                members.append(g)
                rows.append(T.act_of(h))
        labels.append(graph_conjugacy_label(
            FiniteGSet(Subgroup(G, tuple(members)), T.size, rows)))
    return sorted(labels)


def assert_both_sides_match_oracles(f, orb, what):
    """The id-level predicted and direct labels against the H-set
    oracles of both sides."""
    direct = _direct_pullback_labels(f, orb)
    assert direct == gset_direct_pullback_labels(f, orb), what
    assert operads._predicted_labels(f, orb) == formula_labels(f, orb) \
        == direct, what


def test_direct_pullback_matches_seed_bfs():
    """Every orbit within CODE_LIMIT of every free model of every target
    system of every catalog hom: the coset walk against the seed BFS, the
    dict-numbered walk, the flat-numbered walk (each over every code of
    G' x Sigma_n) and the coset-coded walk (over |G'/H| * n! codes)."""
    orbits = coded = over = 0
    for name, f, orb in catalog_orbits():
        labels = _direct_pullback_labels(f, orb)
        size = math.factorial(orb.size)
        if f.target.order // orb.subgroup.order * size <= CODE_LIMIT:
            assert labels == coset_coded_direct_pullback_labels(f, orb), name
            coded += 1
        if f.target.order * size > CODE_LIMIT:
            over += 1
            continue
        assert labels == seed_direct_pullback_labels(f, orb), name
        assert labels == dict_direct_pullback_labels(f, orb), name
        assert labels == numbered_direct_pullback_labels(f, orb), name
        orbits += 1
    assert orbits == 977 and over == 35 and coded > orbits


def test_direct_pullback_matches_formula_on_every_catalog_orbit():
    """The coset walk agrees with the double-coset formula on all 1,012
    catalog orbits, the 35 level-8 orbits into C8 among them that no walk
    over G' x Sigma_n reaches within CODE_LIMIT; each side read from ids
    agrees with its H-set oracle."""
    orbits = 0
    for name, f, orb in catalog_orbits():
        assert_both_sides_match_oracles(f, orb, name)
        orbits += 1
    assert orbits == 1012


@pytest.mark.parametrize("name, count", [("D4", 4660), ("C2xC4", 2688)])
def test_both_sides_match_oracles_on_every_subgroup_inclusion(name, count):
    """Every subgroup inclusion H -> G, against a seeded sample of 40
    target systems: every orbit of their free models."""
    G = group_by_name(name)
    systems = random.Random(27).sample(enumerate_transfer_systems(G), 40)
    orbits = 0
    for H in lattice_of(G).subgroups:
        f = inclusion_hom(H)
        for t in systems:
            for orb in free_model(t).orbits:
                assert_both_sides_match_oracles(f, orb, (name, H, t.pairs()))
                orbits += 1
    assert orbits == count


@pytest.mark.parametrize("name", ["C2", "S3", "K4", "C8"])
def test_double_coset_check_rejects_a_sequence_off_the_target(name):
    """A sequence over a group other than f's target is refused, as
    restriction refuses it, not checked against the wrong lattice."""
    f = catalog_hom("C2_into_C4")
    S = free_model(complete(group_by_name(name)))
    for check in (double_coset_check, restrict_symseq_predicted):
        with pytest.raises(GroupError, match="wrong group for restriction"):
            check(f, S)


def test_hsets_leave_the_lattice_tables_unbuilt(monkeypatch):
    """A fresh lattice and the H-sets of up to 3 points over every subgroup
    (the operads benchmark's set-up) build neither the orbit-type table
    nor the class representatives; an admissible class fills the first."""
    import transys.groups as groups
    import transys.transfer as transfer

    fresh = functools.lru_cache(groups.SubgroupLattice)
    monkeypatch.setattr(groups, "lattice_of", fresh)
    monkeypatch.setattr(transfer, "lattice_of", fresh)
    for name in ("C4", "K4", "S3"):
        lat = groups.lattice_of(group_by_name(name))
        for H in lat.subgroups:
            for n in range(4):
                groups.hsets_up_to_iso(H, n)
        assert "orbit_type_masks" not in vars(lat)
        assert "hclass_reps" not in vars(lat)
        t = complete(lat.group)
        assert t.lattice is lat
        admissible_class_of_transfer(t)
        assert "orbit_type_masks" in vars(lat)


@pytest.mark.parametrize("mutation", ["formula_ignores_r",
                                      "walk_uses_first_generator"])
def test_double_coset_check_catches_mutations(mutation, monkeypatch):
    """The check has teeth on both of its sides: a formula that conjugates
    by the identity instead of r, and a direct walk that moves cosets by
    the first generator of G only, each fail it on some catalog orbit."""
    if mutation == "formula_ignores_r":
        label = operads._pullback_label
        monkeypatch.setattr(operads, "_pullback_label",
                            lambda f, r, T: label(f, 0, T))
    else:
        monkeypatch.setattr(operads, "generators",
                            lambda G: generators(G)[:1])
    failed = {name for name, f, orb in catalog_orbits()
              if not double_coset_check(
                  f, SymmetricSequence(f.target, (orb,))).passed}
    assert failed


@pytest.mark.parametrize("name", ["C8_sub0_incl", "C2_into_C8",
                                  "C4_into_C8", "id_C8"])
def test_coset_coded_pullback_matches_numbered_walk_at_level_8(name):
    """The level-8 orbits of C8, which the walk over every code of
    G' x Sigma_n reaches only over CODE_LIMIT (8 * 8! codes): one hom per
    source order, against the flat-numbered and the coset-coded walks."""
    f = catalog_hom(name)
    level8 = {orb for t in enumerate_transfer_systems(f.target)
              for orb in free_model(t).orbits if orb.size == 8}
    assert level8
    for orb in level8:
        labels = _direct_pullback_labels(f, orb)
        assert labels == numbered_direct_pullback_labels(f, orb, 400_000)
        assert labels == coset_coded_direct_pullback_labels(f, orb, 400_000)
