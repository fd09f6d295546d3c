"""Change-of-group functor tests: formulas, adjunctions, functoriality,
and the injectivity collapse."""

import json
from pathlib import Path

import pytest

from transys import functors
from transys.catalog import catalog_hom, catalog_homs, group_by_name
from transys.functors import (
    KINDS,
    LawReport,
    apply_functor,
    check_galois,
    check_pointwise_order,
    image_L,
    image_R,
    preimage_L,
    preimage_R,
    verify_functoriality,
)
from transys.groups import (
    GroupError,
    all_subgroups,
    bang_hom,
    cyclic_hom,
    identity_hom,
    inclusion_hom,
    lattice_of,
    trivial_subgroup,
)
from transys.transfer import (
    complete,
    discrete,
    enumerate_transfer_systems,
    generate_pairs,
    rel_from_pairs,
    validate,
)

GOLDEN = Path(__file__).parent / "golden" / "c4_to_s3_functors.json"


def _systems(name):
    return enumerate_transfer_systems(group_by_name(name))


def test_identity_hom_fixes_everything():
    G = group_by_name("C4")
    ident = identity_hom(G)
    for t in _systems("C4"):
        for kind in ("fL", "finvL", "fR", "finvR"):
            assert apply_functor(kind, ident, t).rel == t.rel


def test_left_adjoints_preserve_bottom_right_preserve_top():
    f = catalog_hom("C4_to_S3")
    assert image_L(f, discrete(f.source)).pairs() == []
    assert preimage_L(f, discrete(f.target)).pairs() == []
    assert image_R(f, complete(f.source)).rel == complete(f.target).rel
    assert preimage_R(f, complete(f.target)).rel == complete(f.source).rel


def test_inclusion_examples():
    i = catalog_hom("C2_into_C4")
    C2, C4 = i.source, i.target
    assert image_L(i, complete(C2)).pairs() == [(0, 1)]
    assert image_R(i, discrete(C2)).pairs() == [(1, 2)]
    assert preimage_L(i, complete(C4)).rel == complete(C2).rel


def test_bang_examples():
    bang = catalog_hom("bang_C4")
    one = complete(bang.target)
    assert preimage_L(bang, one).rel == discrete(bang.source).rel
    assert preimage_R(bang, one).rel == complete(bang.source).rel
    for t in _systems("C4"):
        assert image_R(bang, t).rel == one.rel


def refl_trans(lat, pairs):
    """Oracle: reflexive-transitive closure of a pair set, by fixpoint."""
    current = set(pairs) | {(i, i) for i in range(lat.count)}
    changed = True
    while changed:
        changed = False
        for i, j in list(current):
            for k in range(lat.count):
                if (j, k) in current and (i, k) not in current:
                    current.add((i, k))
                    changed = True
    return rel_from_pairs(lat.count, current)


def image_L_lemma(f, t):
    """f_L by the lemma: conjugates of (fK, fH), then only transitivity."""
    lat = lattice_of(f.target)
    ids = f.image_ids
    return refl_trans(lat, {(c[ids[i]], c[ids[j]])
                            for i, j in t.pairs() for c in lat.conj_table})


def preimage_L_lemma(f, t):
    """f^-1_L by the lemma: restrictions of the preimage pairs, then only
    transitivity."""
    lat = lattice_of(f.source)
    ids = f.preimage_ids
    return refl_trans(lat, {(lat.meet_table[ids[i]][l], l)
                            for i, j in t.pairs()
                            for l in lat.ids_below(ids[j])})


def test_lemma_formulas_match_defining_closures():
    for name in ("C4_to_S3", "C2_into_C4", "C4_onto_C2", "bang_K4"):
        f = catalog_hom(name)
        for t in enumerate_transfer_systems(f.source):
            assert image_L(f, t).rel == image_L_lemma(f, t)
        for t in enumerate_transfer_systems(f.target):
            assert preimage_L(f, t).rel == preimage_L_lemma(f, t)


def test_golden_c4_to_s3():
    """The paper's pictured values for this map are figure macros; the
    implementation regenerates them and pins them here."""
    data = json.loads(GOLDEN.read_text())
    f = catalog_hom("C4_to_S3")
    s4 = enumerate_transfer_systems(f.source)
    s3 = enumerate_transfer_systems(f.target)
    assert [t.pairs() for t in s4] == [
        [tuple(p) for p in v] for v in data["source_systems"]]
    assert [image_L(f, t).pairs() for t in s4] == [
        [tuple(p) for p in v] for v in data["fL"]]
    assert [image_R(f, t).pairs() for t in s4] == [
        [tuple(p) for p in v] for v in data["fR"]]
    assert [preimage_L(f, t).pairs() for t in s3] == [
        [tuple(p) for p in v] for v in data["finvL"]]
    assert [preimage_R(f, t).pairs() for t in s3] == [
        [tuple(p) for p in v] for v in data["finvR"]]


def test_golden_fiber_shapes_match_picture():
    # the displayed examples identify two fibers of sizes 2 and 3 for both
    # image functors on Tr(C4)
    data = json.loads(GOLDEN.read_text())
    from collections import Counter

    for key in ("fL", "fR"):
        values = [tuple(map(tuple, v)) for v in data[key]]
        assert sorted(Counter(values).values()) == [2, 3]


def test_functor_outputs_all_validate():
    from transys.transfer import find_violation

    for name in ("C2_into_C4", "C4_onto_C2", "C4_to_S3", "bang_K4"):
        f = catalog_hom(name)
        lat_src = lattice_of(f.source)
        lat_tgt = lattice_of(f.target)
        for t in enumerate_transfer_systems(f.source):
            assert find_violation(lat_tgt, image_L(f, t).rel) is None
            assert find_violation(lat_tgt, image_R(f, t).rel) is None
        for t in enumerate_transfer_systems(f.target):
            assert find_violation(lat_src, preimage_L(f, t).rel) is None
            assert find_violation(lat_src, preimage_R(f, t).rel) is None


def test_galois_adjunctions():
    for name in ("C2_into_C4", "C4_to_S3", "C4_onto_C2", "bang_S3"):
        f = catalog_hom(name)
        src = enumerate_transfer_systems(f.source)
        tgt = enumerate_transfer_systems(f.target)
        assert check_galois(f, "fL", "finvR", src, tgt).passed
        assert check_galois(f, "finvL", "fR", src, tgt).passed


def test_galois_units_and_counits():
    f = catalog_hom("C4_to_S3")
    # fL -| finvR: unit on the source, counit on the target
    for x in _systems("C4"):
        assert x.refines(preimage_R(f, image_L(f, x)))
    for y in _systems("S3"):
        assert image_L(f, preimage_R(f, y)).refines(y)
    # finvL -| fR: unit on the target, counit on the source
    for y in _systems("S3"):
        assert y.refines(image_R(f, preimage_L(f, y)))
    for x in _systems("C4"):
        assert preimage_L(f, image_R(f, x)).refines(x)


def test_mispaired_galois(monkeypatch):
    i = catalog_hom("C2_into_C4")
    src = enumerate_transfer_systems(i.source)
    tgt = enumerate_transfer_systems(i.target)
    with pytest.raises(GroupError):
        check_galois(i, "fR", "finvR", src, tgt)
    # direction-incompatible pairings are rejected too
    with pytest.raises(GroupError):
        check_galois(i, "fL", "fR", src, tgt)
    # admitted as a pairing, a non-adjoint one yields a counterexample
    monkeypatch.setattr(functors, "GALOIS_PAIRINGS",
                        functors.GALOIS_PAIRINGS | {("fR", "finvR")})
    report = check_galois(i, "fR", "finvR", src, tgt)
    assert not report.passed and report.counterexample is not None


def test_monotonicity():
    for name in ("C2_into_C4", "C4_onto_C2", "C4_to_S3"):
        f = catalog_hom(name)
        src = enumerate_transfer_systems(f.source)
        tgt = enumerate_transfer_systems(f.target)
        for a in src:
            for b in src:
                if a.refines(b):
                    assert image_L(f, a).refines(image_L(f, b))
                    assert image_R(f, a).refines(image_R(f, b))
        for a in tgt:
            for b in tgt:
                if a.refines(b):
                    assert preimage_L(f, a).refines(preimage_L(f, b))
                    assert preimage_R(f, a).refines(preimage_R(f, b))


def test_functoriality_chains():
    chains = [("C2_into_C4", "C4_to_S3"),
              ("C2_into_C4", "C4_onto_C2"),
              ("C4_onto_C2", "C2_into_C8")]
    for name_h, name_k in chains:
        h, k = catalog_hom(name_h), catalog_hom(name_k)
        systems_G = enumerate_transfer_systems(h.source)
        systems_Gpp = enumerate_transfer_systems(k.target)
        for report in verify_functoriality(h, k, systems_G, systems_Gpp):
            assert report.passed, (name_h, name_k, report.law)


def test_functoriality_identity_chain():
    ident = identity_hom(group_by_name("C4"))
    f = catalog_hom("C4_to_S3")
    for report in verify_functoriality(ident, f, _systems("C4"), _systems("S3")):
        assert report.passed


def test_non_composable_rejected():
    with pytest.raises(GroupError):
        verify_functoriality(catalog_hom("C4_to_S3"), catalog_hom("C2_into_C4"),
                             [], [])


def raw_pullback(m, t):
    """The plain pullback of t along m, validated: for injective m it is
    already a transfer system."""
    lat = lattice_of(m.source)
    pairs = [(i, j) for i, row in enumerate(lat.leq)
             for j, below in enumerate(row)
             if below and t.has(m.image_ids[i], m.image_ids[j])]
    return validate(lat, rel_from_pairs(lat.count, pairs))


def test_injective_collapse_and_raw_pullback():
    for name, f in catalog_homs().items():
        if not f.is_injective:
            continue
        tgt = enumerate_transfer_systems(f.target)
        for t in tgt:
            raw = raw_pullback(f, t)
            assert raw.rel == preimage_L(f, t).rel == preimage_R(f, t).rel


def test_strictness_for_noninjective():
    for name in ("C4_onto_C2", "C4_to_S3", "bang_C4", "bang_K4", "bang_S3"):
        f = catalog_hom(name)
        lat = lattice_of(f.source)
        ker = lat.id_of(f.kernel())
        tgt = enumerate_transfer_systems(f.target)
        report = check_pointwise_order(f, tgt)
        assert report.passed
        for t in tgt:
            left = preimage_L(f, t)
            right = preimage_R(f, t)
            assert left.refines(right)
            assert right.has(lat.trivial_id, ker)
            assert not left.has(lat.trivial_id, ker)


def extra_homs():
    """The homs into or out of D4, C24 and C12 that the benchmark's
    functors workload adds to the catalog."""
    G = group_by_name
    D4, C24, C12 = G("D4"), G("C24"), G("C12")
    subs = all_subgroups(D4)
    c2 = next(H for H in subs if H.order == 2)
    c4 = next(H for H in subs if H.order == 4
              and any(D4.element_order(g) == 4 for g in H.members))
    return {
        "C2_into_D4": inclusion_hom(c2),
        "C4_into_D4": inclusion_hom(c4),
        "1_into_C24": inclusion_hom(trivial_subgroup(C24)),
        "bang_D4": bang_hom(D4),
        "bang_C24": bang_hom(C24),
        "C24_onto_C12": cyclic_hom(C24, C12, 1),
        "C6_into_C12": cyclic_hom(G("C6"), C12, 2),
    }


def generated_along(ids, lat, t):
    """Oracle for the left functors: the image pairs, then `generate_pairs`."""
    return generate_pairs(lat, {(ids[i], ids[j]) for i, j in t.pairs()})


def cogenerated_along(ids, lat, t):
    """Oracle for the right functors, as pairs: the pairs K <= H of lat
    whose images under ids are related in t, less each pair that implies,
    by conjugation and restriction, a pair (gKg^-1 n L, L) outside them."""
    pulled = {(i, j) for i, row in enumerate(lat.leq)
              for j, below in enumerate(row)
              if below and t.has(ids[i], ids[j])}
    return [(k, h) for k, h in sorted(pulled) if k != h and all(
        (lat.meet_table[c[k]][l], l) in pulled
        for c in lat.conj_table for l in lat.ids_below(c[h]))]


def oracle_functor(kind, f, t):
    if kind == "fL":
        return generated_along(f.image_ids, lattice_of(f.target), t).pairs()
    if kind == "finvL":
        return generated_along(f.preimage_ids, lattice_of(f.source), t).pairs()
    if kind == "fR":
        return cogenerated_along(f.preimage_ids, lattice_of(f.target), t)
    return cogenerated_along(f.image_ids, lattice_of(f.source), t)


def test_bit_maps_match_the_pair_list_functors():
    homs = {**catalog_homs(), **extra_homs()}
    applications = 0
    for name, f in homs.items():
        src = enumerate_transfer_systems(f.source)
        tgt = enumerate_transfer_systems(f.target)
        for kind in KINDS:
            for t in (src if kind in ("fL", "fR") else tgt):
                assert apply_functor(kind, f, t).pairs() == \
                    oracle_functor(kind, f, t), (name, kind, t)
                applications += 1
    assert applications == 6388


def nested_galois(f, lower, upper, source_systems, target_systems):
    """Oracle: the law check that applies upper(y) anew for every x."""
    xs, ys = source_systems, target_systems
    if lower in ("finvL", "finvR"):
        xs, ys = ys, xs
    checked = 0
    for x in xs:
        lx = apply_functor(lower, f, x)
        for y in ys:
            uy = apply_functor(upper, f, y)
            checked += 1
            if lx.refines(y) != x.refines(uy):
                return LawReport(
                    f"{lower} -| {upper}", checked,
                    {"x": x.pairs(), "y": y.pairs(),
                     "lower(x)": lx.pairs(), "upper(y)": uy.pairs()})
    return LawReport(f"{lower} -| {upper}", checked)


def test_galois_applies_each_adjoint_once_per_system(monkeypatch):
    calls = []

    def counted(kind, f, t):
        calls.append(kind)
        return apply_functor(kind, f, t)

    for name, f in catalog_homs().items():
        src = enumerate_transfer_systems(f.source)
        tgt = enumerate_transfer_systems(f.target)
        for lower, upper in (("fL", "finvR"), ("finvL", "fR")):
            expected = nested_galois(f, lower, upper, src, tgt)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(functors, "apply_functor", counted)
                report = check_galois(f, lower, upper, src, tgt)
            assert report == expected and report.passed, (name, lower)
            assert len(calls) == len(src) + len(tgt), (name, lower)
    i = catalog_hom("C2_into_C4")
    src = enumerate_transfer_systems(i.source)
    tgt = enumerate_transfer_systems(i.target)
    monkeypatch.setattr(functors, "GALOIS_PAIRINGS",
                        functors.GALOIS_PAIRINGS | {("fR", "finvR")})
    report = check_galois(i, "fR", "finvR", src, tgt)
    assert report == nested_galois(i, "fR", "finvR", src, tgt)
    assert not report.passed


def test_galois_along_larger_groups():
    homs = extra_homs()
    for name in ("C24_onto_C12", "C2_into_D4", "C4_into_D4", "bang_D4"):
        f = homs[name]
        src = enumerate_transfer_systems(f.source)
        tgt = enumerate_transfer_systems(f.target)
        for lower, upper in (("fL", "finvR"), ("finvL", "fR")):
            report = check_galois(f, lower, upper, src, tgt)
            assert report.passed, (name, lower, report.counterexample)
            assert report.checked == len(src) * len(tgt)


def test_catalog_homs_are_built_once_and_handed_out_in_fresh_dicts():
    first = catalog_homs()
    second = catalog_homs()
    assert first is not second and first.keys() == second.keys()
    assert all(second[name] is f for name, f in first.items())
    assert catalog_hom("C4_to_S3") is first["C4_to_S3"]
    first["extra"] = first.pop("C2_into_C4")
    first.clear()
    third = catalog_homs()
    assert third.keys() == second.keys() and "extra" not in third
    assert third["C2_into_C4"] is second["C2_into_C4"]
