"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value below is exact, produced either by the stated
independent oracle or by a direct identity check.
"""

import itertools
import random
import time

import networkx as nx

from transys.catalog import catalog_hom, catalog_homs, group_by_name
from transys.functors import (
    check_galois,
    check_pointwise_order,
    image_L,
    preimage_L,
    preimage_R,
    verify_functoriality,
)
from transys.groups import lattice_of, right_coset_gset
from transys.operads import (
    coind_as_product_check,
    coproduct_join_check,
    double_coset_check,
    free_model,
    induce_symseq,
    noninjective_induction_counterexample,
    restrict_symseq_predicted,
    symseq_transfer,
    theoremB_coind_check,
)
from transys.rewrite import (
    COPRODUCT,
    TENSOR,
    WitnessFactory,
    act_g,
    act_sigma,
    as_pool,
    check_criteria,
    complexity,
    fuzz_term,
    one_step_reducts,
    pool_from_free_models,
    random_perm,
    reduce_term,
    term_arity,
)
from transys.transfer import (
    enumerate_transfer_systems,
    find_violation,
    generate,
    cogenerate,
    hasse,
    join,
    meet,
    rel_from_pairs,
    rel_pairs,
)

ACCEPTANCE_GROUPS = ("C4", "C8", "K4", "S3")


def rel_leq(a, b):
    """Elementwise a <= b of two relation matrices."""
    return all(not av or bv for ra, rb in zip(a, b) for av, bv in zip(ra, rb))


RES_MATRIX = {
    # res pulls back systems on the target group of each map
    "C4_to_S3": "S3",
    "C2_into_C4": "C4",
    "C4_onto_C2": "C2",
}

IND_MATRIX = {
    "C2_into_C4": "C2",
    "C2_into_C8": "C2",
    "C4_into_C8": "C4",
}


def _report(number: int, name: str, started: float, limit: float = None):
    elapsed = time.monotonic() - started
    line = f"acceptance {number:2d} ({name}): PASS ({elapsed:.1f}s)"
    print(line)
    if limit is not None:
        assert elapsed < limit, f"{name} took {elapsed:.1f}s, limit {limit}s"


def _systems(name):
    return enumerate_transfer_systems(group_by_name(name))


def _binary_trees(n):
    if n == 1:
        return [None]
    out = []
    for k in range(1, n):
        for left in _binary_trees(k):
            for right in _binary_trees(n - k):
                out.append((left, right))
    return out


def _rotations(tree):
    """All single right-rotations ((A,B),C) -> (A,(B,C)) anywhere in tree."""
    if tree is None:
        return
    left, right = tree
    if left is not None:
        a, b = left
        yield (a, (b, right))
    for moved in _rotations(left):
        yield (moved, right)
    for moved in _rotations(right):
        yield (left, moved)


def _associahedron_skeleton(leaves=5):
    g = nx.Graph()
    trees = _binary_trees(leaves)
    g.add_nodes_from(trees)
    for t in trees:
        for r in _rotations(t):
            g.add_edge(t, r)
    return g


def test_criterion_01_lattice_counts():
    started = time.monotonic()
    assert len(_systems("C1")) == 1
    assert len(_systems("C2")) == 2
    c8 = _systems("C8")
    assert len(c8) == 14  # Catalan number C_4, frozen from the oracle
    covers = hasse(c8)
    assert len(covers) == 21
    lattice_graph = nx.Graph()
    lattice_graph.add_nodes_from(range(len(c8)))
    lattice_graph.add_edges_from(covers)
    assert nx.is_isomorphic(lattice_graph, _associahedron_skeleton(5))

    # K4: pruned enumerator vs the naive subset filter, plus shape counts
    K4 = group_by_name("K4")
    lat = lattice_of(K4)
    cands = [(i, j) for i in range(lat.count) for j in range(lat.count)
             if i != j and lat.leq[i][j]]
    naive = []
    for bits in itertools.product([False, True], repeat=len(cands)):
        rel = rel_from_pairs(lat.count, [p for p, b in zip(cands, bits) if b])
        if find_violation(lat, rel) is None:
            naive.append(rel)
    pruned = _systems("K4")
    assert len(pruned) == len(naive) == 19
    assert {t.rel for t in pruned} == set(naive)
    # cover count of the stacked-cubes shape, recomputed from the oracle list
    oracle_covers = 0
    for a in naive:
        for b in naive:
            if a == b or not rel_leq(a, b):
                continue
            if not any(c not in (a, b) and rel_leq(a, c) and rel_leq(c, b)
                       for c in naive):
                oracle_covers += 1
    assert len(hasse(pruned)) == oracle_covers
    _report(1, "lattice counts", started, limit=30.0)


def test_criterion_02_meet_join_are_glb_lub():
    started = time.monotonic()
    for name in ACCEPTANCE_GROUPS:
        systems = _systems(name)
        leq = [[s.refines(t) for t in systems] for s in systems]
        for a, s in enumerate(systems):
            for b, t in enumerate(systems):
                m = meet(s, t)
                j = join(s, t)
                lower = [c for c in range(len(systems))
                         if leq[c][a] and leq[c][b]]
                upper = [c for c in range(len(systems))
                         if leq[a][c] and leq[b][c]]
                glb = max(lower, key=lambda c: len(systems[c].pairs()))
                lub = min(upper, key=lambda c: len(systems[c].pairs()))
                assert m.rel == systems[glb].rel
                assert j.rel == systems[lub].rel
                assert all(leq[c][glb] for c in lower)
                assert all(leq[lub][c] for c in upper)
    _report(2, "lattice laws", started, limit=60.0)


def test_criterion_03_closure_interior_operators():
    started = time.monotonic()
    for name in ACCEPTANCE_GROUPS:
        G = group_by_name(name)
        lat = lattice_of(G)
        rng = random.Random(1234 + lat.count)
        pairs = [(i, j) for i in range(lat.count) for j in range(lat.count)
                 if i != j and lat.leq[i][j]]
        for _ in range(1000):
            chosen = [p for p in pairs if rng.random() < 0.4]
            r = rel_from_pairs(lat.count, chosen)
            g = generate(lat, r)
            assert rel_leq(r, g.rel)
            assert generate(lat, g.rel).rel == g.rel
            sub = rel_from_pairs(lat.count,
                                 [p for p in chosen if rng.random() < 0.5])
            assert rel_leq(generate(lat, sub).rel, g.rel)

            # interior operator on the partial order generated by `sub`
            order = set(rel_pairs(sub, nontrivial=False))
            changed = True
            while changed:
                changed = False
                for i, j in list(order):
                    for k in range(lat.count):
                        if (j, k) in order and (i, k) not in order:
                            order.add((i, k))
                            changed = True
            p = rel_from_pairs(lat.count, order)
            c = cogenerate(lat, p)
            assert rel_leq(c.rel, p)
            assert cogenerate(lat, c.rel).rel == c.rel
            bigger = generate(lat, p)  # a coarser partial order above p
            assert rel_leq(c.rel, cogenerate(lat, bigger.rel).rel)
    _report(3, "closure/interior operators", started, limit=60.0)


def test_criterion_04_galois_connections():
    started = time.monotonic()
    for name, f in catalog_homs().items():
        src = enumerate_transfer_systems(f.source)
        tgt = enumerate_transfer_systems(f.target)
        for lower, upper in (("fL", "finvR"), ("finvL", "fR")):
            report = check_galois(f, lower, upper, src, tgt)
            assert report.passed, (name, lower, upper, report.counterexample)
            assert report.checked == len(src) * len(tgt)
    _report(4, "Galois connections", started, limit=120.0)


def test_criterion_05_functoriality():
    started = time.monotonic()
    chains = [("C2_into_C4", "C4_to_S3"),
              ("C2_into_C4", "C4_onto_C2"),
              ("C4_onto_C2", "C2_into_C8"),
              ("C4_onto_C2", "C2_into_C4"),
              ("C4_into_C8", "C8_onto_C4"),
              ("S3_sub1_incl", "bang_S3")]
    for name_h, name_k in chains:
        h, k = catalog_hom(name_h), catalog_hom(name_k)
        systems_G = enumerate_transfer_systems(h.source)
        systems_Gpp = enumerate_transfer_systems(k.target)
        for report in verify_functoriality(h, k, systems_G, systems_Gpp):
            assert report.passed, (name_h, name_k, report.law,
                                   report.counterexample)
    _report(5, "functoriality", started)


def test_criterion_06_injectivity_collapse():
    started = time.monotonic()
    for name, f in catalog_homs().items():
        tgt = enumerate_transfer_systems(f.target)
        report = check_pointwise_order(f, tgt)
        assert report.passed, (name, report.counterexample)
        lat = lattice_of(f.source)
        ker = lat.id_of(f.kernel())
        for t in tgt:
            left = preimage_L(f, t)
            right = preimage_R(f, t)
            if f.is_injective:
                assert left.rel == right.rel
            else:
                assert left.refines(right)
                assert right.has(lat.trivial_id, ker)
                assert not left.has(lat.trivial_id, ker)
    _report(6, "injectivity collapse", started)


def test_criterion_07_products_realize_meets():
    started = time.monotonic()
    cases = 0
    for name in ("C4", "K4", "S3"):
        G = group_by_name(name)
        lat = lattice_of(G)
        xsets = [right_coset_gset(G, H) for H in lat.subgroups]
        for i, X in enumerate(xsets):
            for Y in xsets[i:]:
                report = coind_as_product_check(X, Y)
                assert report.passed, (name, report.counterexample)
                cases += 1
    assert cases >= 10
    _report(7, "products realize meets", started)


def test_criterion_08_coproducts_and_tensors_realize_joins():
    started = time.monotonic()
    for name in ("C4", "K4"):
        systems = _systems(name)
        for s in systems:
            for t in systems:
                S, T = free_model(s), free_model(t)
                assert coproduct_join_check(S, T).passed
                factory = WitnessFactory(S, T)
                assert factory.join.rel \
                    == join(symseq_transfer(S), symseq_transfer(T)).rel
                for k_id, h_id in factory.join.pairs():
                    for mode in (COPRODUCT, TENSOR):
                        w = factory.witness(k_id, h_id, mode)
                        assert w.verified, (name, s.pairs(), t.pairs(),
                                            (k_id, h_id), mode.kind)
    _report(8, "coproducts/tensors realize joins", started, limit=120.0)


def test_criterion_09_change_of_group_on_free_models():
    started = time.monotonic()
    for name, group_name in RES_MATRIX.items():
        f = catalog_hom(name)
        for t in _systems(group_name):
            restricted = restrict_symseq_predicted(f, free_model(t))
            assert symseq_transfer(restricted).rel == preimage_L(f, t).rel, \
                (name, t.pairs())
    for name, group_name in IND_MATRIX.items():
        m = catalog_hom(name)
        for t in _systems(group_name):
            induced = induce_symseq(m, free_model(t))
            assert symseq_transfer(induced).rel == image_L(m, t).rel, \
                (name, t.pairs())
    _report(9, "restriction/induction of free models", started)


def test_criterion_10_coinduction_consistency():
    started = time.monotonic()
    for name in ACCEPTANCE_GROUPS:
        G = group_by_name(name)
        report = theoremB_coind_check(G)
        assert report.passed, (name, report.counterexample)
        assert report.checked == lattice_of(G).count
    _report(10, "coinduction consistency", started)


def test_criterion_11_double_coset_formula():
    started = time.monotonic()
    for name, group_name in RES_MATRIX.items():
        f = catalog_hom(name)
        for t in _systems(group_name):
            report = double_coset_check(f, free_model(t))
            assert report.passed, (name, t.pairs(), report.counterexample)
    _report(11, "double-coset formula", started)


def test_criterion_12_noninjective_induction_obstruction():
    started = time.monotonic()
    for name in ("bang_C2", "C4_onto_C2"):
        witness = noninjective_induction_counterexample(catalog_hom(name))
        assert witness.verified, name
    _report(12, "noninjective induction obstruction", started)


def test_criterion_13_rewriting():
    started = time.monotonic()
    C2 = group_by_name("C2")
    top = enumerate_transfer_systems(C2)[-1]
    free_pool, _, _ = pool_from_free_models(free_model(top), free_model(top))
    as_p = as_pool(C2, 40)
    as_gens = [s for s in as_p.symbols if s.arity <= 3]
    configs = {
        "tensor": (free_pool, TENSOR, None),
        "coproduct": (as_p, COPRODUCT, as_gens),
    }
    for label, (pool, mode, symbols) in configs.items():
        # fuzzed confluence, equivariance, and congruence criteria
        crit = check_criteria(pool, mode, count=500, seed=2026,
                              max_symbols=12, symbols=symbols)
        assert crit.passed, (label, crit.to_json())

        # strict descent and strategy independence on a pinned stream
        rng = random.Random(777)
        for _ in range(500):
            t = fuzz_term(pool, rng, 12, symbols)
            c = complexity(pool, t, mode)
            for reduct, _, _ in one_step_reducts(pool, t, mode):
                assert complexity(pool, reduct, mode) < c
            nf, trace = reduce_term(pool, t, mode)
            assert len(trace) <= c
            for seed in range(20):
                got, _ = reduce_term(pool, t, mode, strategy="random",
                                     seed=seed)
                assert got == nf

        # reduction commutes with the product group action
        rng = random.Random(888)
        for _ in range(500):
            t = fuzz_term(pool, rng, 10, symbols)
            g = rng.randrange(C2.order)
            sigma = random_perm(rng, term_arity(t))
            moved = act_g(pool, g, act_sigma(t, sigma))
            lhs, _ = reduce_term(pool, moved, mode)
            nf, _ = reduce_term(pool, t, mode)
            assert lhs == act_g(pool, g, act_sigma(nf, sigma))
    _report(13, "rewriting", started, limit=180.0)
