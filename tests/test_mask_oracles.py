"""Admissibility as a mask test against the pair-by-pair code it replaced.

The oracles are the earlier implementations: `admits` as one
`TransferSystem.has` call per orbit stabilizer, `TransferSystem.rel` as one
`has` call per entry, and `symseq_transfer` and `generated_transfer` as a
set of pairs (orbit stabilizer, H) closed by `generate_pairs`.
"""

import pytest

from transys.catalog import group_by_name
from transys.groups import hsets_up_to_iso, lattice_of
from transys.indexing import (
    AdmissibleClass,
    IndexingSystem,
    admissible_class_of_transfer,
    generated_transfer,
)
from transys.operads import SymmetricSequence, free_model, symseq_transfer
from transys.transfer import (
    TransferSystemError,
    enumerate_transfer_systems,
    generate_columns,
    generate_pairs,
)

ADMITS_GROUPS = ("C4", "K4", "S3", "D4", "C6", "C2xC4")
UNION_GROUPS = ("C4", "K4", "S3")
#: the groups whose lattices the benchmark's `lattice` workload enumerates
REL_GROUPS = ("C8", "C9", "C16", "C6", "C12", "C18", "K4", "S3", "D5",
              "C3xC3", "C2xC4", "D4")


def old_admits(t, H, T):
    h_id = t.lattice.id_of(H)
    return all(t.has(k, h_id) for k in T.stabilizer_ids)


def old_rel(t):
    n = range(t.lattice.count)
    return tuple(tuple(t.has(i, j) for j in n) for i in n)


def old_symseq_transfer(S):
    lat = lattice_of(S.group)
    pairs = set()
    for T in S.orbits:
        h_id = lat.id_of(T.subgroup)
        pairs.update((k_id, h_id) for k_id in T.stabilizer_ids)
    return generate_pairs(lat, pairs)


def old_generated_transfer(cls):
    return generate_pairs(cls.lattice, {(k_id, h_id)
                                        for h_id, key in cls.entries
                                        for k_id in key})


@pytest.mark.parametrize("name", ADMITS_GROUPS)
def test_columns_match_has(name):
    lat = lattice_of(group_by_name(name))
    for t in enumerate_transfer_systems(lat.group):
        assert t.columns == tuple(
            sum(1 << k for k in range(lat.count) if t.has(k, h))
            for h in range(lat.count))


@pytest.mark.parametrize("name", REL_GROUPS)
def test_rel_rows_from_the_mask_match_has(name):
    """Every system: the matrix read row by row from the mask, against
    one `has` call per entry."""
    for t in enumerate_transfer_systems(group_by_name(name)):
        rel = t.rel
        assert rel == old_rel(t)
        assert all(type(x) is bool for row in rel for x in row)


@pytest.mark.parametrize("name", ADMITS_GROUPS)
def test_admits_matches_pairwise_oracle(name):
    """Every H-set of at most 4 points of every subgroup, against every
    system of the group."""
    lat = lattice_of(group_by_name(name))
    sets = [(H, T) for H in lat.subgroups for n in range(5)
            for T in hsets_up_to_iso(H, n)]
    for t in enumerate_transfer_systems(lat.group):
        ind = IndexingSystem(t)
        got = [ind.admits(H, T) for H, T in sets]
        assert got == [old_admits(t, H, T) for H, T in sets], t


@pytest.mark.parametrize("name", UNION_GROUPS)
def test_symseq_transfer_matches_pair_set_oracle(name):
    """Every free model and every pairwise union of two."""
    models = [free_model(t)
              for t in enumerate_transfer_systems(group_by_name(name))]
    for S in models:
        assert symseq_transfer(S) == old_symseq_transfer(S)
        for T in models:
            U = SymmetricSequence(S.group, S.orbits + T.orbits)
            assert symseq_transfer(U) == old_symseq_transfer(U)


@pytest.mark.parametrize("name", ADMITS_GROUPS)
def test_generated_transfer_matches_pair_set_oracle(name):
    for t in enumerate_transfer_systems(group_by_name(name)):
        cls = admissible_class_of_transfer(t)
        assert generated_transfer(cls) == old_generated_transfer(cls) == t


def test_generate_columns_rejects_a_stabilizer_outside_h():
    C4 = group_by_name("C4")
    lat = lattice_of(C4)
    full, trivial = lat.count - 1, lat.trivial_id
    columns = [0] * lat.count
    # a column may hold H itself, and then generates nothing
    columns[full] = 1 << full
    assert generate_columns(lat, columns).pairs() == []
    columns[trivial] = 1 << full
    with pytest.raises(TransferSystemError) as err:
        generate_columns(lat, columns)
    assert err.value.violation.kind == "refinement"
    assert err.value.violation.witness == {"K": full, "H": trivial}
    bad = AdmissibleClass(lat, frozenset({(trivial, (full,))}))
    with pytest.raises(TransferSystemError):
        generated_transfer(bad)
