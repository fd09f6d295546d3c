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
  every call (`per_pair_witness`), where each factor table keeps one
  verdict per one-link witness and mode for every pair it serves;
- the join witness with its one-link verdicts in a private store keyed
  on the table (`private_store_witness`), and the tensor suite walking
  every case of every pair of systems through it (`per_case_thmA_tensor`),
  where `suite_thmA_tensor` counts the one-link cases by mask;
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
from transys import operads, rewrite, suites
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
    factor_part,
    fixed_perm,
    fixed_structure,
    format_term,
    pool_from_free_models,
    term_arity,
)
from transys.suites import SuiteReport, suite_thmA_tensor
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
# one verdict per one-link witness, kept on its factor table


@pytest.fixture
def fresh_tables():
    """Factor parts built afresh for the test and dropped after it, so no
    stored verdict reaches the test from before it or leaves it."""
    factor_part.cache_clear()
    yield
    factor_part.cache_clear()


def private_store_witness(factory, k_id, h_id, mode, verdicts):
    """`WitnessFactory.witness` keeping its one-link verdicts in
    ``verdicts``, keyed on (table, k, h, mode kind), and not on the
    tables."""
    if not factory.join.has(k_id, h_id):
        raise RewriteError(f"pair ({k_id},{h_id}) is not in the join")
    chain = factory._chain(k_id, h_id)
    if len(chain) != 1:
        witness = factory._witness(k_id, h_id, chain)
        nf, verified = factory._verdict(witness, mode)
    else:
        table = chain[0][2]
        witness = table.witness(k_id, h_id)
        key = (table, k_id, h_id, mode.kind)
        if key not in verdicts:
            verdicts[key] = factory._verdict(witness, mode)
        nf, verified = verdicts[key]
    return AdmissibilityWitness((k_id, h_id), witness.term, witness.subgroup,
                                witness.structure, nf, mode.kind, verified)


def per_case_thmA_tensor(name, flips=None):
    """`suite_thmA_tensor` on the slice, walking every case: a fresh
    factory for every pair of systems, with a private verdict store that
    starts from ``flips``, and `witness` for every join pair and mode."""
    report = SuiteReport("thmA-tensor", {"group": name})
    for s, S in zip(_systems(name), _models(name)):
        for t, T in zip(_systems(name), _models(name)):
            factory = WitnessFactory(S, T)
            verdicts = dict(flips or {})
            for k_id, h_id in factory.join.pairs():
                for mode in (COPRODUCT, TENSOR):
                    w = private_store_witness(factory, k_id, h_id, mode,
                                              verdicts)
                    report.cases += 1
                    if not w.verified:
                        report.failures.append(
                            {"pair": [k_id, h_id], "mode": mode.kind,
                             "s": s.pairs(), "t": t.pairs(),
                             "witness": format_term(w.term)})
    return report


def _witness_mismatches(name):
    """Fields on which the factories' witnesses, read through the verdicts
    the tables keep, differ from the per-pair path, over every join pair
    of every pair of systems in both modes."""
    mismatches = []
    one_link = 0
    for S in _models(name):
        for T in _models(name):
            factory = WitnessFactory(S, T)
            for k_id, h_id in factory.join.pairs():
                one_link += len(factory._chain(k_id, h_id)) == 1
                for mode in (COPRODUCT, TENSOR):
                    w = factory.witness(k_id, h_id, mode)
                    expected = per_pair_witness(factory, k_id, h_id, mode)
                    assert private_store_witness(factory, k_id, h_id, mode,
                                                 {}) == expected
                    mismatches.extend(
                        (k_id, h_id, mode.kind, f.name) for f in fields(w)
                        if getattr(w, f.name) != getattr(expected, f.name))
    return mismatches, one_link


@pytest.mark.parametrize("name", sorted(SLICES))
def test_shared_verdicts_match_per_pair_path(name, fresh_tables):
    mismatches, one_link = _witness_mismatches(name)
    assert not mismatches
    # the tables hold one entry per (table, pair, mode), far fewer than the
    # one-link witnesses they served, and each mask is the set of pairs
    # whose entry in that mode verified
    n = lattice_of(group_by_name(name)).count
    entries = 0
    for S in _models(name):
        for factor in "XY":
            table = factor_part(S, factor).table
            entries += len(table.verdicts)
            assert all(ok for _, ok in table.verdicts.values())
            for kind, mask in table.masks.items():
                assert mask == sum(1 << k * n + h
                                   for (k, h, m), (_, ok)
                                   in table.verdicts.items()
                                   if m == kind and ok)
    assert 0 < entries < 2 * one_link


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
def test_verdict_key_without_the_factor_table_is_caught(name, fresh_tables):
    """A model's X and Y tables hold the same pairs with different
    generators, so one store shared by the two hands one factor's normal
    form to the other."""
    for S in _models(name):
        x, y = factor_part(S, "X").table, factor_part(S, "Y").table
        y.verdicts, y.masks = x.verdicts, x.masks
    mismatches, _ = _witness_mismatches(name)
    assert {m[3] for m in mismatches} == {"normal_form"}


def test_tables_decide_no_verdict_until_a_witness_is_asked_for(
        fresh_tables, monkeypatch):
    """`pool_from_free_models(S, S)`, which the `rewrite` benchmark set-up
    calls, and `factor_part` build the tables but decide no verdict; the
    first `_exhibits` call comes with the first witness asked for."""
    calls = []
    monkeypatch.setattr(rewrite, "_exhibits",
                        lambda *args: calls.append(args) or _exhibits(*args))
    S = max(_models("S3"), key=lambda S: len(S.orbits))
    pool_from_free_models(S, S)
    tables = [factor_part(S, factor).table for factor in "XY"]
    factory = WitnessFactory(S, S)
    assert not calls
    assert all(not t.verdicts and not any(t.masks.values()) for t in tables)
    k_id, h_id = factory.join.pairs()[0]
    assert factory.witness(k_id, h_id, TENSOR).verified
    assert len(calls) == 1
    assert list(tables[0].verdicts) == [(k_id, h_id, TENSOR.kind)]
    assert not tables[1].verdicts


@pytest.mark.parametrize("name", sorted(SLICES))
def test_thmA_tensor_counts_by_mask_as_the_per_case_path(
        name, fresh_tables, monkeypatch):
    """The suite on every pair of systems of the slice against the per-case
    path: the same cases and failures, clean, and with the stored
    coproduct verdict of one pair on one X table flipped along with its
    mask bit, which fails that pair with every partner system."""
    monkeypatch.setattr(suites, "enumerate_transfer_systems",
                        lambda G, budget: _systems(name))
    clean = suite_thmA_tensor(name)
    assert clean.to_json() == per_case_thmA_tensor(name).to_json()
    assert clean.passed and clean.cases
    n = lattice_of(group_by_name(name)).count
    s, S = max(zip(_systems(name), _models(name)),
               key=lambda pair: len(pair[1].orbits))
    table = factor_part(S, "X").table
    k_id, h_id = min(table.witnesses)
    key = (k_id, h_id, COPRODUCT.kind)
    nf, verified = table.verdicts[key]
    assert verified
    table.verdicts[key] = nf, False
    table.masks[COPRODUCT.kind] &= ~(1 << k_id * n + h_id)
    flipped = suite_thmA_tensor(name)
    expected = per_case_thmA_tensor(
        name, {(table, k_id, h_id, COPRODUCT.kind): (nf, False)})
    assert flipped.to_json() == expected.to_json()
    assert flipped.cases == clean.cases
    assert len(flipped.failures) == len(_systems(name))
    assert all(f["pair"] == [k_id, h_id] and f["mode"] == COPRODUCT.kind
               and f["s"] == s.pairs() for f in flipped.failures)


def test_thmA_tensor_report_matches_per_pair_path():
    """The suite on C4, counted by mask, against per-pair witnesses: the
    same cases and no failures."""
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
