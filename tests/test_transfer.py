"""Transfer-system lattice tests: validation, closure operators, meet/join,
enumeration, and the Hasse diagram."""

import itertools
import random

import pytest

from transys.catalog import group_by_name
from transys.groups import lattice_of
from transys.transfer import (
    BudgetExceededError,
    TransferSystemError,
    cogenerate,
    complete,
    discrete,
    enumerate_transfer_systems,
    find_violation,
    generate,
    hasse,
    hasse_dot,
    join,
    meet,
    rel_from_pairs,
    rel_pairs,
    ts_from_json,
    ts_to_json,
    validate,
)

FUZZ_GROUPS = ("C4", "C8", "K4", "S3")


def rel_leq(a, b):
    """Elementwise a <= b of two relation matrices."""
    return all(not av or bv for ra, rb in zip(a, b) for av, bv in zip(ra, rb))


def _lat(name):
    return lattice_of(group_by_name(name))


def naive_enumerate(lat):
    """Subset-filter oracle: validate every subset of the nontrivial pairs."""
    cands = [(i, j) for i in range(lat.count) for j in range(lat.count)
             if i != j and lat.leq[i][j]]
    out = []
    for bits in itertools.product([False, True], repeat=len(cands)):
        rel = rel_from_pairs(lat.count, [p for p, b in zip(cands, bits) if b])
        if find_violation(lat, rel) is None:
            out.append(rel)
    return out


def random_subrelation(rng, lat, density=0.4):
    pairs = [(i, j) for i in range(lat.count) for j in range(lat.count)
             if i != j and lat.leq[i][j]]
    return rel_from_pairs(lat.count, [p for p in pairs if rng.random() < density])


def random_partial_order(rng, lat, density=0.4):
    """Random transitive reflexive subrelation of inclusion."""
    rel = random_subrelation(rng, lat, density)
    pairs = set(rel_pairs(rel, nontrivial=False))
    changed = True
    while changed:
        changed = False
        for i, j in list(pairs):
            for k in range(lat.count):
                if (j, k) in pairs and (i, k) not in pairs:
                    pairs.add((i, k))
                    changed = True
    return rel_from_pairs(lat.count, pairs)


def test_validate_examples():
    lat = _lat("C4")
    # equality relation is the discrete transfer system
    t = validate(lat, rel_from_pairs(lat.count, []))
    assert t.rel == discrete(lat.group).rel
    # full inclusion is the complete transfer system
    t = validate(lat, lat.leq)
    assert t.rel == complete(lat.group).rel
    # reflexive + (1, C4) fails restriction at L = C2
    bad = find_violation(lat, rel_from_pairs(lat.count, [(0, 2)]))
    assert bad is not None
    assert bad.kind == "restriction"
    assert bad.witness == {"K": 0, "H": 2, "L": 1}
    with pytest.raises(TransferSystemError):
        validate(lat, rel_from_pairs(lat.count, [(0, 2)]))


def test_refinement_reported_separately():
    lat = _lat("C4")
    bad = find_violation(lat, rel_from_pairs(lat.count, [(2, 0)]))
    assert bad.kind == "refinement"


def test_generate_examples():
    lat = _lat("C4")
    assert generate(lat, rel_from_pairs(lat.count, [])).pairs() == []
    # restriction forces (1, C2); the result stops short of complete
    t = generate(lat, rel_from_pairs(lat.count, [(0, 2)]))
    assert t.pairs() == [(0, 1), (0, 2)]
    # generate of an already-valid system is itself
    for s in enumerate_transfer_systems(lat.group):
        assert generate(lat, s.rel).rel == s.rel


def test_generate_closure_operator_fuzzed():
    for name in FUZZ_GROUPS:
        lat = _lat(name)
        rng = random.Random(hash(name) & 0xFFFF)
        for _ in range(100):
            r = random_subrelation(rng, lat)
            g = generate(lat, r)
            assert rel_leq(r, g.rel)                       # extensive
            assert generate(lat, g.rel).rel == g.rel       # idempotent
            r2 = random_subrelation(rng, lat, density=0.2)
            union = tuple(tuple(a or b for a, b in zip(ra, rb))
                          for ra, rb in zip(r, r2))
            assert rel_leq(g.rel, generate(lat, union).rel)  # monotone


def test_cogenerate_examples():
    lat = _lat("C4")
    assert cogenerate(lat, lat.leq).rel == complete(lat.group).rel
    assert cogenerate(lat, rel_from_pairs(lat.count, [])).pairs() == []
    latk = _lat("K4")
    t = cogenerate(latk, rel_from_pairs(latk.count, [(0, 4)]))
    assert t.pairs() == []


def test_cogenerate_rejects_non_partial_orders():
    lat = _lat("C4")
    # (1,C2),(C2,C4) without (1,C4) is not transitive
    rel = rel_from_pairs(lat.count, [(0, 1), (1, 2)])
    with pytest.raises(TransferSystemError) as err:
        cogenerate(lat, rel)
    assert err.value.violation.kind == "transitivity"


def test_cogenerate_interior_operator_fuzzed():
    for name in FUZZ_GROUPS:
        lat = _lat(name)
        systems = enumerate_transfer_systems(lat.group)
        rng = random.Random(hash(name) & 0xFFF)
        for _ in range(60):
            p = random_partial_order(rng, lat)
            c = cogenerate(lat, p)
            assert rel_leq(c.rel, p)                         # contractive
            assert cogenerate(lat, c.rel).rel == c.rel       # idempotent
            # maximum transfer system below the order
            below = [s for s in systems if rel_leq(s.rel, p)]
            best = max(below, key=lambda s: len(s.pairs()))
            assert c.rel == best.rel
            assert all(rel_leq(s.rel, c.rel) for s in below)


def test_meet_join_identities():
    G = group_by_name("C4")
    systems = enumerate_transfer_systems(G)
    top, bottom = complete(G), discrete(G)
    for t in systems:
        assert meet(top, t).rel == t.rel
        assert join(bottom, t).rel == t.rel
        assert meet(t, t).rel == t.rel
        assert join(t, t).rel == t.rel


def test_join_example_cpp():
    # C_{p^2}: joining the two single-step systems fills in the long transfer
    lat = _lat("C4")
    a = generate(lat, rel_from_pairs(lat.count, [(0, 1)]))
    b = generate(lat, rel_from_pairs(lat.count, [(1, 2)]))
    assert join(a, b).rel == complete(lat.group).rel


def test_meet_join_against_generate_and_validate():
    """Meets need no closure; joins need no conjugation/restriction pass."""
    for name in ("C4", "K4", "S3"):
        G = group_by_name(name)
        lat = lattice_of(G)
        systems = enumerate_transfer_systems(G)
        for s in systems:
            for t in systems:
                m = meet(s, t)
                assert find_violation(lat, m.rel) is None
                j = join(s, t)
                assert find_violation(lat, j.rel) is None
                union = rel_from_pairs(lat.count, s.pairs() + t.pairs())
                assert j.rel == generate(lat, union).rel


def test_group_mismatch_rejected():
    with pytest.raises(TransferSystemError):
        meet(discrete(group_by_name("C4")), discrete(group_by_name("K4")))


@pytest.mark.parametrize("name,count", [
    ("C1", 1), ("C2", 2), ("C4", 5), ("C8", 14), ("K4", 19), ("S3", 9),
])
def test_enumerate_counts_and_oracle(name, count):
    G = group_by_name(name)
    systems = enumerate_transfer_systems(G)
    assert len(systems) == count
    oracle = naive_enumerate(lattice_of(G))
    assert len(oracle) == count
    assert {t.rel for t in systems} == set(oracle)
    # canonical order: lexicographic on the flattened matrix
    flats = [tuple(v for row in t.rel for v in row) for t in systems]
    assert flats == sorted(flats)
    # every output validates
    lat = lattice_of(G)
    for t in systems:
        assert find_violation(lat, t.rel) is None


def test_enumerate_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_transfer_systems(group_by_name("S3"), budget=3)


def test_hasse():
    C2 = group_by_name("C2")
    systems = enumerate_transfer_systems(C2)
    assert hasse(systems) == [(0, 1)]
    # C4 lattice is the pentagon: 5 nodes, 5 covers
    systems = enumerate_transfer_systems(group_by_name("C4"))
    covers = hasse(systems)
    assert len(systems) == 5 and len(covers) == 5
    assert all(a != b for a, b in covers)
    dot = hasse_dot(systems)
    assert dot.count(" -> ") == 5 and "discrete" in dot


def test_json_roundtrip():
    G = group_by_name("K4")
    for t in enumerate_transfer_systems(G):
        data = ts_to_json(t)
        back = ts_from_json(data)
        assert back.rel == t.rel and back.group == G


def test_system_reports_the_group_it_was_read_with():
    """Both orders, whichever equal group reached `lattice_of` first."""
    C4 = group_by_name("C4")
    unnamed = {"group": {"mul": [list(row) for row in C4.mul]}, "pairs": []}
    named = {"group": "C4", "pairs": [[0, 1]]}
    for first, second in ((unnamed, named), (named, unnamed)):
        a, b = ts_from_json(first), ts_from_json(second)
        assert a.group == b.group == C4
        assert ts_from_json(unnamed).group.name == "G"
        assert ts_from_json(named).group.name == "C4"
        assert join(a, b).group.name == meet(a, b).group.name == a.group.name
