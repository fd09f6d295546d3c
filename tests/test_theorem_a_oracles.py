"""Theorem A's generator-level checks against the code they replaced, kept
here as oracles:
- fixedness compared with the structure at every member of H
  (`all_members_exhibits`), where `_exhibits` tries the generators of H;
- the coproduct join check on the sum S u T (`union_coproduct_join_check`,
  built on `union`), where `coproduct_join_check` ORs the two sides'
  columns;
- the coproduct join check reading each side's columns and closing each
  side inside the call (`per_call_coproduct_join_check`), where
  `coproduct_join_check` reads the columns and systems each sequence
  caches;
- the free model building a fresh `coset_hset` for every pair
  (`fresh_free_model`), where `free_model` reads the H-sets H/K that the
  subgroup lattice shares;
- the join as the closure of the union of both masks (`union_join`),
  where `join` closes t onto the already closed s;
- the join witness normalized and verified afresh for every pair and
  every call (`per_pair_witness`), where `suite_thmA_tensor` shares one
  verdict per one-link witness across a run;
- the ascending generator loop over a whole group (`group_generators`),
  where `generators(G)` reads `Subgroup.generators`.
Each is compared on every case of C4, K4 and S3 and on a seeded D4 slice
(the free model and the coproduct check also on every system of D4 and
C2xC4), and mutations show the comparisons have teeth."""

import functools
import random
from collections import Counter
from dataclasses import fields

import pytest

from transys.catalog import catalog_homs, group_by_name
from transys.functors import LawReport
from transys import operads
from transys.groups import (
    FiniteGSet,
    GroupError,
    Subgroup,
    SubgroupLattice,
    compose,
    coset_hset,
    full_subgroup,
    generated_subgroup,
    generators,
    invert,
    lattice_of,
    trivial_subgroup,
)
from transys.operads import (
    SymmetricSequence,
    coproduct_join_check,
    free_model,
    symseq_transfer,
)
from transys.rewrite import (
    COPRODUCT,
    TENSOR,
    AdmissibilityWitness,
    App,
    OpSymbol,
    RewriteError,
    Var,
    Witness,
    WitnessFactory,
    _compose_witnesses,
    _exhibits,
    _normalizer,
    fixed_perm,
    fixed_structure,
    pool_from_free_models,
    term_arity,
)
from transys.suites import suite_thmA_tensor
from transys.transfer import (
    TransferSystem,
    TransferSystemError,
    _core,
    _require_same_group,
    enumerate_transfer_systems,
    generate_columns,
    join,
)

#: every system of the small groups, and a seeded sample of D4's
SLICES = {"C4": None, "K4": None, "S3": None, "D4": 12}


@functools.cache
def _systems(name):
    systems = enumerate_transfer_systems(group_by_name(name))
    size = SLICES[name]
    if size is not None:
        systems = random.Random(6).sample(systems, size)
    return systems


@functools.cache
def _models(name):
    return [free_model(s) for s in _systems(name)]


# ---------------------------------------------------------------------------
# the replaced code


def group_generators(G):
    """`generators(G)` as a loop over the elements of G."""
    gens = []
    span = {0}
    for g in G.elements():
        if g not in span:
            gens.append(g)
            span = generated_subgroup(G, gens).member_set
    return tuple(gens)


def all_members_exhibits(pool, t, structure):
    """`_exhibits` comparing `fixed_perm` with the row of every member."""
    n = term_arity(t)
    return all(fixed_perm(pool, t, h, n) == row
               for h, row in zip(structure.subgroup.members, structure.act))


def union(S, T):
    """`SymmetricSequence.union`: the orbits of both, over one group."""
    if S.group != T.group:
        raise GroupError("symmetric sequences live over different groups")
    return SymmetricSequence(S.group, S.orbits + T.orbits)


def union_coproduct_join_check(S, T):
    """`coproduct_join_check` through the sum S u T."""
    combined = symseq_transfer(union(S, T))
    expected = join(symseq_transfer(S), symseq_transfer(T))
    report = LawReport("transfer(S u T) = transfer(S) v transfer(T)", 1)
    if combined != expected:
        report.counterexample = {"combined": combined.pairs(),
                                 "join": expected.pairs()}
    return report


def _columns(S):
    """`SymmetricSequence.columns` as a list built afresh per call."""
    lat = lattice_of(S.group)
    columns = [0] * lat.count
    for T in S.orbits:
        columns[lat.id_of(T.subgroup)] |= T.stabilizer_mask
    return columns


def per_call_coproduct_join_check(S, T):
    """`coproduct_join_check` reading both sides' columns and closing each
    side inside the call: nothing is cached on the sequences."""
    if S.group != T.group:
        raise GroupError("symmetric sequences live over different groups")
    lat = lattice_of(S.group)
    cs, ct = _columns(S), _columns(T)
    combined = generate_columns(lat, [a | b for a, b in zip(cs, ct)])
    expected = join(generate_columns(lat, cs), generate_columns(lat, ct))
    report = LawReport("transfer(S u T) = transfer(S) v transfer(T)", 1)
    if combined != expected:
        report.counterexample = {"combined": combined.pairs(),
                                 "join": expected.pairs()}
    return report


def fresh_free_model(t):
    """`free_model` building and validating a fresh H/K for every pair."""
    lat = t.lattice
    return SymmetricSequence(t.group, tuple(
        coset_hset(lat.subgroups[h_id], lat.subgroups[k_id])
        for k_id, h_id in t.pairs()))


def union_join(s, t):
    """`join` closing the union of both masks from scratch."""
    _require_same_group(s, t)
    return TransferSystem(s.group, _core(s.lattice).close(s.mask | t.mask),
                          s.lattice)


def per_pair_witness(factory, k_id, h_id, mode):
    """`WitnessFactory.witness` with a fresh normalizer for every call and
    fixedness checked at every member of H: nothing is shared between
    witnesses, pairs or modes."""
    if not factory.join.has(k_id, h_id):
        raise RewriteError(f"pair ({k_id},{h_id}) is not in the join")
    chain = factory._chain(k_id, h_id)
    if not chain:
        H = factory.lat.subgroups[h_id]
        witness = Witness(Var(1), H, fixed_structure(factory.pool, Var(1), H))
    else:
        first = chain[0]
        witness = first[2].witness(first[0], first[1])
        for prev, node, table in chain[1:]:
            outer = table.witness(prev, node)
            term = _compose_witnesses(factory.pool, witness, outer)
            H = factory.lat.subgroups[node]
            witness = Witness(term, H, fixed_structure(factory.pool, term, H))
    nf = _normalizer(factory.pool, mode)(witness.term)
    return AdmissibilityWitness(
        (k_id, h_id), witness.term, witness.subgroup, witness.structure, nf,
        mode.kind, all_members_exhibits(factory.pool, nf, witness.structure))


# ---------------------------------------------------------------------------
# generators of a subgroup

#: the groups of the catalog homs, and those the suites and the benchmark
#: run on besides
CATALOG_GROUPS = sorted(
    {f.source for f in catalog_homs().values()}
    | {f.target for f in catalog_homs().values()}
    | {group_by_name(n) for n in ("D4", "C2xC4", "C12", "C24", "D6",
                                  "C2xC6", "S4", "C2xC2xC2")},
    key=lambda G: (G.order, G.mul))


def test_subgroup_generators_match_group_generators():
    """Every subgroup of every catalog group: its generators are those of
    the subgroup as a group in its own right, they span exactly its
    members, and no one lies in the span of those before it."""
    subgroups = 0
    for G in CATALOG_GROUPS:
        assert generators(G) == group_generators(G)
        assert full_subgroup(G).generators == generators(G)
        assert trivial_subgroup(G).generators == ()
        for H in lattice_of(G).subgroups:
            gens = H.generators
            assert gens == tuple(H.members[i]
                                 for i in group_generators(H.as_group()))
            assert generated_subgroup(G, gens).members == H.members
            for i, g in enumerate(gens):
                assert g not in generated_subgroup(G, gens[:i])
            subgroups += 1
    assert len(CATALOG_GROUPS) >= 12 and subgroups >= 100


# ---------------------------------------------------------------------------
# fixedness on the generators of H


def _relabelled(structure):
    """The structure, and its conjugates by the row of each member of H and
    by each transposition of adjacent points: all are actions of H, and
    only those equal to the structure are exhibited by its witness."""
    n = structure.size
    perms = set(structure.act)
    for i in range(n - 1):
        swap = list(range(n))
        swap[i], swap[i + 1] = i + 1, i
        perms.add(tuple(swap))
    out = {structure.act: structure}
    for p in perms:
        q = invert(p)
        rows = tuple(compose(compose(p, row), q) for row in structure.act)
        out.setdefault(rows, FiniteGSet(structure.subgroup, n, rows))
    return list(out.values())


@functools.cache
def _exhibit_cases(name):
    """(pool, term, structure) for the witness term and normal form of
    every join pair of every pair of systems, in both modes, against
    every relabelling of the witness's structure."""
    cases = []
    for S in _models(name):
        for T in _models(name):
            factory = WitnessFactory(S, T)
            terms = {}
            for k_id, h_id in factory.join.pairs():
                for mode in (COPRODUCT, TENSOR):
                    w = factory.witness(k_id, h_id, mode)
                    for t in (w.term, w.normal_form):
                        terms[(t, w.structure)] = None
            for t, structure in terms:
                cases.extend((factory.pool, t, s)
                             for s in _relabelled(structure))
    return cases


def _exhibit_mismatches(name):
    verdicts = Counter()
    mismatches = []
    for pool, t, structure in _exhibit_cases(name):
        expected = all_members_exhibits(pool, t, structure)
        verdicts[expected] += 1
        if _exhibits(pool, t, structure) != expected:
            mismatches.append((t, structure))
    return verdicts, mismatches


@pytest.mark.parametrize("name", sorted(SLICES))
def test_exhibits_on_generators_matches_all_members(name):
    verdicts, mismatches = _exhibit_mismatches(name)
    assert not mismatches
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("name", ["S3", "D4"])
def test_exhibits_on_first_generator_only_is_caught(name, monkeypatch):
    """S3 and D4 need two generators: a relabelled structure that agrees
    with the witness's at the first and not at the second passes the
    mutant and fails the oracle."""
    spans = Subgroup.generators.func
    monkeypatch.setattr(Subgroup, "generators",
                        property(lambda H: spans(H)[:1]))
    _, mismatches = _exhibit_mismatches(name)
    assert mismatches


def test_exhibits_rejects_a_repeated_variable_on_the_trivial_subgroup():
    """With no generators, the identity is tried: a term with a repeated
    or missing variable has no permutation there, as it had none at the
    one member before."""
    G = group_by_name("C4")
    S = free_model(enumerate_transfer_systems(G)[-1])
    pool, _, _ = pool_from_free_models(S, S)
    p = OpSymbol("X", 1, 2)
    trivial = FiniteGSet(trivial_subgroup(G), 2, ((0, 1),))
    for children, expected in (((Var(1), Var(2)), True),
                               ((Var(2), Var(1)), True),
                               ((Var(1), Var(1)), False),
                               ((Var(2), Var(2)), False),
                               ((Var(1), Var(3)), False)):
        t = App(p, children)
        assert _exhibits(pool, t, trivial) is expected
        assert all_members_exhibits(pool, t, trivial) is expected


# ---------------------------------------------------------------------------
# the coproduct join check and the join


@pytest.mark.parametrize("name", sorted(SLICES))
def test_coproduct_join_check_matches_union_oracle(name):
    models = _models(name)
    for S in models:
        for T in models:
            got = coproduct_join_check(S, T)
            assert got == union_coproduct_join_check(S, T)
            assert got.passed and got.checked == 1


@pytest.mark.parametrize("name", sorted(SLICES))
def test_coproduct_join_check_matches_per_call_oracle(name):
    """Every pair of systems, each side's free model built fresh for the
    oracle, so no cached column or system reaches it."""
    systems = _systems(name)
    fresh = [fresh_free_model(s) for s in systems]
    for S, F in zip(_models(name), fresh):
        for T, G in zip(_models(name), fresh):
            assert coproduct_join_check(S, T) == \
                per_call_coproduct_join_check(F, G)


@pytest.mark.parametrize("name", ["D4", "C2xC4"])
def test_free_model_and_check_match_oracles_on_every_system(name):
    """Every system: its free model, columns and system against the fresh
    oracles, and the check against the bottom, the top and itself."""
    systems = enumerate_transfer_systems(group_by_name(name))
    models = [free_model(s) for s in systems]
    fresh = [fresh_free_model(s) for s in systems]
    ends = [(models[0], fresh[0]), (models[-1], fresh[-1])]
    for s, S, F in zip(systems, models, fresh):
        assert S == F
        assert S.columns == tuple(_columns(F))
        assert symseq_transfer(S) is S.transfer_system
        assert S.transfer_system == generate_columns(s.lattice,
                                                     _columns(F)) == s
        for T, G in ends + [(S, F)]:
            got = coproduct_join_check(S, T)
            assert got == per_call_coproduct_join_check(F, G)
            assert got.passed


@pytest.mark.parametrize("name", ["C4", "K4", "S3", "D4"])
def test_free_models_share_each_coset_hset(name):
    """Two free models with a pair in common hold the same H/K object, the
    one the lattice keeps; the fresh oracle builds a new one each time."""
    lat = lattice_of(group_by_name(name))
    seen = {}
    shared = 0
    for s in enumerate_transfer_systems(lat.group):
        for T in free_model(s).orbits:
            key = (T.stabilizer_ids[0], lat.id_of(T.subgroup))
            shared += key in seen
            assert seen.setdefault(key, T) is T
            assert lat.coset_hset(key[1], key[0]) is T
        for T in fresh_free_model(s).orbits:
            key = (T.stabilizer_ids[0], lat.id_of(T.subgroup))
            assert T == seen[key] and T is not seen[key]
    assert shared and len(seen) == len(_core(lat).ids)


@pytest.mark.parametrize("name", sorted(SLICES))
def test_coset_table_keyed_by_h_alone_is_caught(name, monkeypatch):
    """A table that keeps one H-set per H hands H/K to every pair K < H."""
    table = {}

    def by_h(lat, h_id, k_id):
        key = (id(lat), h_id)
        if key not in table:
            table[key] = coset_hset(lat.subgroups[h_id], lat.subgroups[k_id])
        return table[key]

    monkeypatch.setattr(SubgroupLattice, "coset_hset", by_h)
    assert any(free_model(s) != fresh_free_model(s) for s in _systems(name))


@pytest.mark.parametrize("name", sorted(SLICES))
def test_check_joining_one_side_with_itself_is_caught(name, monkeypatch):
    """A check that joins S's system with itself compares transfer(S u T)
    with transfer(S), which differ whenever T adds a pair."""
    monkeypatch.setattr(operads, "join", lambda s, t: join(s, s))
    systems = _systems(name)
    fresh = [fresh_free_model(s) for s in systems]
    assert any(coproduct_join_check(S, T) != per_call_coproduct_join_check(F, G)
               for S, F in zip(_models(name), fresh)
               for T, G in zip(_models(name), fresh))


def test_coproduct_join_check_rejects_mismatched_groups():
    S = free_model(enumerate_transfer_systems(group_by_name("C4"))[-1])
    T = free_model(enumerate_transfer_systems(group_by_name("K4"))[-1])
    for check in (coproduct_join_check, union_coproduct_join_check,
                  per_call_coproduct_join_check):
        with pytest.raises(GroupError, match="different groups"):
            check(S, T)


@pytest.mark.parametrize("name", sorted(SLICES))
def test_join_matches_closure_of_the_union(name):
    systems = _systems(name)
    for s in systems:
        for t in systems:
            got = join(s, t)
            assert got == union_join(s, t) == join(t, s)
            assert got.lattice is s.lattice


def test_join_rejects_mismatched_groups_as_before():
    s = enumerate_transfer_systems(group_by_name("C4"))[-1]
    t = enumerate_transfer_systems(group_by_name("K4"))[-1]
    for op in (join, union_join):
        with pytest.raises(TransferSystemError) as err:
            op(s, t)
        assert err.value.violation.kind == "same group"


# ---------------------------------------------------------------------------
# one verdict per one-link witness per run


class TablelessVerdicts(dict):
    """A verdict store whose keys drop the factor table."""

    def get(self, key, default=None):
        return super().get(key[1:], default)

    def __setitem__(self, key, value):
        super().__setitem__(key[1:], value)


def _witness_mismatches(name, verdicts):
    """Fields on which a run sharing ``verdicts`` differs from the per-pair
    path, over every join pair of every pair of systems in both modes."""
    mismatches = []
    one_link = 0
    for S in _models(name):
        for T in _models(name):
            shared = WitnessFactory(S, T, verdicts)
            private = WitnessFactory(S, T)
            for k_id, h_id in shared.join.pairs():
                one_link += len(shared._chain(k_id, h_id)) == 1
                for mode in (COPRODUCT, TENSOR):
                    w = shared.witness(k_id, h_id, mode)
                    expected = per_pair_witness(private, k_id, h_id, mode)
                    assert private.witness(k_id, h_id, mode) == expected
                    mismatches.extend(
                        (k_id, h_id, mode.kind, f.name) for f in fields(w)
                        if getattr(w, f.name) != getattr(expected, f.name))
    return mismatches, one_link


@pytest.mark.parametrize("name", sorted(SLICES))
def test_shared_verdicts_match_per_pair_path(name):
    verdicts = {}
    mismatches, one_link = _witness_mismatches(name, verdicts)
    assert not mismatches
    # the store holds one entry per (table, pair, mode), far fewer than
    # the one-link witnesses it served
    assert 0 < len(verdicts) < 2 * one_link
    assert all(v[1] for v in verdicts.values())


@pytest.mark.parametrize("name", sorted(SLICES))
def test_chain_witness_built_once_for_both_modes(name):
    """A multi-link chain's term and validated H-set are built once per
    pair and handed to both modes; the verdicts stay per mode."""
    chains = 0
    for S in _models(name):
        for T in _models(name):
            factory = WitnessFactory(S, T)
            for k_id, h_id in factory.join.pairs():
                if len(factory._chain(k_id, h_id)) < 2:
                    continue
                chains += 1
                co = factory.witness(k_id, h_id, COPRODUCT)
                ten = factory.witness(k_id, h_id, TENSOR)
                assert co.term is ten.term
                assert co.structure is ten.structure
                assert (co.mode, ten.mode) == (COPRODUCT.kind, TENSOR.kind)
    assert chains


@pytest.mark.parametrize("name", sorted(SLICES))
def test_verdict_key_without_the_factor_table_is_caught(name):
    """The X and Y tables hold the same pairs with different generators,
    so a store keyed by (pair, mode) alone hands one factor's normal form
    to the other."""
    mismatches, _ = _witness_mismatches(name, TablelessVerdicts())
    assert {m[3] for m in mismatches} == {"normal_form"}


def test_thmA_tensor_report_matches_per_pair_path():
    """The suite on C4, run through the shared store, against per-pair
    witnesses: the same cases and no failures."""
    report = suite_thmA_tensor("C4")
    cases = 0
    for S in _models("C4"):
        for T in _models("C4"):
            factory = WitnessFactory(S, T)
            for k_id, h_id in factory.join.pairs():
                for mode in (COPRODUCT, TENSOR):
                    assert per_pair_witness(factory, k_id, h_id, mode).verified
                    cases += 1
    assert report.passed and report.cases == cases
