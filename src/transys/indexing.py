"""Admissible-set calculus: the dictionary between transfer systems and
indexing systems, and admissibility for orbit-presented symmetric sequences.

Indexing systems are never materialized as classes of sets; the transfer
system is the canonical encoding and membership is decided orbitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .groups import (
    FiniteGSet,
    GroupError,
    Subgroup,
    SubgroupLattice,
    graph_subgroup,
    hsets_up_to_iso,
    is_subconjugate,
    iso_key,
    lattice_of,
    orbit_types,
)
from .transfer import TransferSystem, generate_pairs


@dataclass(frozen=True)
class IndexingSystem:
    """An indexing system, encoded by its transfer system."""

    transfer: TransferSystem

    @property
    def group(self):
        return self.transfer.group

    def admits(self, H: Subgroup, T: FiniteGSet) -> bool:
        """Whether every orbit of the H-set T is an admissible transfer."""
        if T.subgroup != H:
            raise GroupError("T must be an H-set")
        lat = self.transfer.lattice
        if H.group != self.group:
            raise GroupError("H is not a subgroup of the indexing system's group")
        h_id = lat.id_of(H)
        return all(self.transfer.has(k, h_id) for k in T.stabilizer_ids)


@dataclass(frozen=True)
class AdmissibleClass:
    """A finite set of admissible (H, T) pairs, T recorded by its orbit types.

    Each entry is ``(H id, iso_key(T))``: per orbit of T, the minimal
    subgroup id among the H-conjugates of the orbit stabilizer, sorted.
    That key identifies T up to isomorphism of H-sets.
    """

    lattice: SubgroupLattice = field(compare=False, repr=False, hash=False)
    entries: frozenset[tuple[int, tuple[int, ...]]] = frozenset()

    def to_json(self) -> list:
        return [{"H": h, "orbits": list(orbits)}
                for h, orbits in sorted(self.entries)]


def hset_entry(lat: SubgroupLattice, H: Subgroup, T: FiniteGSet
               ) -> tuple[int, tuple[int, ...]]:
    return (lat.id_of(H), iso_key(T))


def admissible_sets_of_symseq(symseq, window: Optional[Iterable[int]] = None
                              ) -> AdmissibleClass:
    """All (H, T) admitted by an orbit-presented symmetric sequence.

    A level admits T when the graph subgroup of T is subconjugate to the
    stabilizer of one of the level's orbits.  Levels absent from the
    sequence admit nothing, so the window defaults to the materialized
    arities.
    """
    G = symseq.group
    lat = lattice_of(G)
    arities = sorted(symseq.levels)
    if window is not None:
        window = set(window)
        missing = window - set(arities)
        if missing:
            raise GroupError(
                f"window requests arities {sorted(missing)} outside the "
                f"materialized levels {arities}")
        arities = sorted(window)
    entries = set()
    for n in arities:
        orbits = symseq.levels[n]
        for H in lat.subgroups:
            for T in hsets_up_to_iso(H, n):
                gamma = graph_subgroup(G, H, T)
                if any(is_subconjugate(gamma, orb) for orb in orbits):
                    entries.add(hset_entry(lat, H, T))
    return AdmissibleClass(lat, frozenset(entries))


def orbit_pairs_of_entry(entry: tuple[int, tuple[int, ...]]
                         ) -> list[tuple[int, int]]:
    h_id, orbits = entry
    return [(k_id, h_id) for k_id in orbits]


def generated_transfer(cls: AdmissibleClass) -> TransferSystem:
    """Transfer system of the indexing system generated by the class:
    generate from one pair (orbit stabilizer, H) per orbit of each entry."""
    pairs = set()
    for entry in cls.entries:
        pairs.update(orbit_pairs_of_entry(entry))
    return generate_pairs(cls.lattice, pairs)


def admissible_class_of_transfer(t: TransferSystem,
                                 max_size: Optional[int] = None
                                 ) -> AdmissibleClass:
    """The admissible H-sets of a transfer system up to a size bound.

    Decided on orbit types alone; the bound defaults to the group order.
    """
    lat = t.lattice
    bound = max_size if max_size is not None else lat.group.order
    entries = {(h_id, key)
               for h_id in range(lat.count) for n in range(bound + 1)
               for key in orbit_types(lat, h_id, n)
               if all(t.has(k, h_id) for k in key)}
    return AdmissibleClass(lat, frozenset(entries))
