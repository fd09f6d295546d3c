"""Admissible-set calculus: the dictionary between transfer systems and
indexing systems, and admissibility for orbit-presented symmetric sequences.

Indexing systems are never materialized as classes of sets; the transfer
system is the canonical encoding.  Membership is one mask test: the H-set's
mask of orbit stabilizer ids against the system's column of H.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .groups import (
    FiniteGSet,
    GroupError,
    Subgroup,
    SubgroupLattice,
    id_mask,
    lattice_of,
)
from .transfer import TransferSystem, generate_columns


@dataclass(frozen=True)
class IndexingSystem:
    """An indexing system, encoded by its transfer system."""

    transfer: TransferSystem

    @property
    def group(self):
        return self.transfer.group

    def admits(self, H: Subgroup, T: FiniteGSet) -> bool:
        """Whether every orbit of the H-set T is an admissible transfer:
        T's stabilizer mask lies inside the column of H, the ids K -> H."""
        if T.subgroup is not H and T.subgroup != H:
            raise GroupError("T must be an H-set")
        t = self.transfer
        if H.group is not t.group and H.group != t.group:
            raise GroupError("H is not a subgroup of the indexing system's group")
        return not T.stabilizer_mask & ~t.columns[t.lattice.id_of(H)]


@dataclass(frozen=True)
class AdmissibleClass:
    """A finite set of admissible (H, T) pairs, T recorded by its orbit types.

    Each entry is ``(H id, iso_key(T))``: per orbit of T, the minimal
    subgroup id among the H-conjugates of the orbit stabilizer, sorted.
    That key identifies T up to isomorphism of H-sets.
    """

    lattice: SubgroupLattice = field(compare=False, repr=False, hash=False)
    entries: frozenset[tuple[int, tuple[int, ...]]] = frozenset()


def admissible_sets_of_symseq(symseq) -> AdmissibleClass:
    """All (L, T) admitted by an orbit-presented symmetric sequence.

    The sequence admits the L-set T when the graph of T is subconjugate to
    one of its orbits Gamma(H, T_H): for some g in G, L <= gHg^-1 and T is
    the restriction of the conjugated set c_g T_H.  Each orbit gHg^-1/K' of
    c_g T_H restricts to L by the double-coset formula, one orbit
    L/(L & rK'r^-1) per r in L\\gHg^-1/K', so T is known by its orbit
    types without building an action table.  A size that no orbit has
    admits nothing.
    """
    lat = lattice_of(symseq.group)
    entries = set()
    for T_H in symseq.orbits:
        h_id = lat.id_of(T_H.subgroup)
        stabs = T_H.stabilizer_ids
        for gh, gks in {(c[h_id], tuple(c[k] for k in stabs))
                        for c in lat.conj_table}:
            for l_id in lat.ids_below(gh):
                entries.add((l_id, tuple(sorted(
                    lat.hclass_rep(l_id, k)
                    for k in lat.restricted_stabilizers(gh, l_id, gks)))))
    return AdmissibleClass(lat, frozenset(entries))


def generated_transfer(cls: AdmissibleClass) -> TransferSystem:
    """Transfer system of the indexing system generated by the class:
    generate from the column (H, orbit stabilizers) of each entry."""
    columns = [0] * cls.lattice.count
    for h_id, key in cls.entries:
        columns[h_id] |= id_mask(key)
    return generate_columns(cls.lattice, columns)


def admissible_class_of_transfer(t: TransferSystem) -> AdmissibleClass:
    """The admissible H-sets of a transfer system with at most |G| points.

    Decided on the lattice's table of orbit types, each by one mask test
    against a column.
    """
    lat, cols = t.lattice, t.columns
    return AdmissibleClass(lat, frozenset(
        (h_id, key) for h_id, types in enumerate(lat.orbit_type_masks)
        for key, mask in types if not mask & ~cols[h_id]))
