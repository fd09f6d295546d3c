"""Discrete operads presented by generators, and change-of-group on them.

Free (marked) operads are never materialized: a symmetric sequence of free
orbits, each given by the H-set whose graph is its stabilizer, determines
the transfer system, and that is all admissibility needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .functors import LawReport, image_L, image_R, preimage_L
from .groups import (
    FiniteGSet,
    Group,
    GroupError,
    Homomorphism,
    Perm,
    Subgroup,
    coset_action,
    coset_hset,
    double_cosets,
    full_subgroup,
    generators,
    identity_perm,
    inclusion_hom,
    lattice_of,
    reach,
    right_coset_gset,
    trivial_subgroup,
)
from .transfer import (
    TransferSystem,
    discrete,
    generate_columns,
    join,
    meet,
    rel_from_pairs,
    validate,
)


@dataclass(frozen=True)
class SymmetricSequence:
    """Graded family of free orbits, each an n-point H-set T of level
    n = T.size, stably sorted by level.

    Each T stands for the free orbit (G x Sigma_n)/Gamma_T on its graph
    Gamma_T = {(h, sigma_T(h))}.
    """

    group: Group
    orbits: tuple[FiniteGSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "orbits",
                           tuple(sorted(self.orbits, key=lambda T: T.size)))
        if any(T.group != self.group for T in self.orbits):
            raise GroupError("orbit lives over another group")

    # the orbits are immutable, so hash them once (as the dataclass would)
    @cached_property
    def _hash(self) -> int:
        return hash((self.group, self.orbits))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """Per subgroup id H, the mask of the stabilizers of the orbits
        over H (H's own bit only if some orbit is H/H)."""
        lat = lattice_of(self.group)
        columns = [0] * lat.count
        for T in self.orbits:
            columns[lat.id_of(T.subgroup)] |= T.stabilizer_mask
        return tuple(columns)

    @cached_property
    def transfer_system(self) -> TransferSystem:
        """Transfer system generated by the columns: that of the free
        marked operad on this sequence.  Closed once, on first use."""
        return generate_columns(lattice_of(self.group), self.columns)


def free_model(t: TransferSystem) -> SymmetricSequence:
    """Free marked presentation of a transfer system: one free orbit
    Gamma(H/K) per nontrivial related pair K -> H, the H-set H/K being
    the one the lattice shares."""
    lat = t.lattice
    return SymmetricSequence(t.group, tuple(
        lat.coset_hset(h_id, k_id) for k_id, h_id in t.pairs()))


def symseq_transfer(S: SymmetricSequence) -> TransferSystem:
    """Transfer system generated by the column (H, orbit stabilizers) of
    each generator witness; equals the transfer system of the free marked
    operad on S.  It is the sequence's cached `transfer_system`."""
    return S.transfer_system


def coproduct_join_check(S: SymmetricSequence, T: SymmetricSequence) -> LawReport:
    """Generator-level content of 'coproducts realize joins'.

    S u T has the orbits of both, so its columns are the OR of the two
    sides' cached columns, and the sum is never built.  That OR is closed
    once; each side's own system is closed once per sequence."""
    if S.group != T.group:
        raise GroupError("symmetric sequences live over different groups")
    lat = lattice_of(S.group)
    combined = generate_columns(lat, [a | b for a, b in zip(S.columns,
                                                            T.columns)])
    expected = join(S.transfer_system, T.transfer_system)
    report = LawReport("transfer(S u T) = transfer(S) v transfer(T)", 1)
    if combined != expected:
        report.counterexample = {"combined": combined.pairs(),
                                 "join": expected.pairs()}
    return report


# ---------------------------------------------------------------------------
# coinduced associativity operads


@dataclass(frozen=True)
class CoindAsOperad:
    """The operad of maps from a nonempty G-set into the associativity
    operad; level n is all functions X -> Sigma_n."""

    xset: FiniteGSet

    def __post_init__(self) -> None:
        if self.xset.size == 0:
            raise GroupError("coinduced operads need a nonempty G-set")
        if self.xset.subgroup.order != self.xset.group.order:
            raise GroupError("the whole group must act")

    @property
    def group(self) -> Group:
        return self.xset.group

    def admits(self, H: Subgroup, T: FiniteGSet) -> bool:
        """Direct criterion: every element of H fixing a point of X must
        act as the identity on T."""
        if T.subgroup != H:
            raise GroupError("T must be an H-set")
        fixing = [h for h in H.members
                  if any(i == x for x, i in enumerate(self.xset.act_of(h)))]
        return all(T.act_of(h) == identity_perm(T.size) for h in fixing)

    def transfer(self) -> TransferSystem:
        """Transfer system read off the criterion over all orbit pairs."""
        lat = lattice_of(self.group)
        pairs = [(k_id, h_id) for h_id in range(lat.count)
                 for k_id in lat.ids_below(h_id) if k_id != h_id
                 and self.admits(lat.subgroups[h_id], lat.coset_hset(h_id, k_id))]
        return validate(lat, rel_from_pairs(lat.count, pairs))


def coind_as_product_check(X: FiniteGSet, Y: FiniteGSet) -> LawReport:
    """Products realize meets, checked through the admits criterion."""
    op_x, op_y = CoindAsOperad(X), CoindAsOperad(Y)
    op_xy = CoindAsOperad(X.disjoint_union(Y))
    lat = lattice_of(X.group)
    checked = 0
    for h_id, H in enumerate(lat.subgroups):
        for k_id in lat.ids_below(h_id):
            T = lat.coset_hset(h_id, k_id)
            checked += 1
            if op_xy.admits(H, T) != (op_x.admits(H, T) and op_y.admits(H, T)):
                return LawReport("admits(X u Y) = admits(X) and admits(Y)",
                                 checked, {"H": h_id, "K": k_id})
    t_xy = op_xy.transfer()
    expected = meet(op_x.transfer(), op_y.transfer())
    report = LawReport("transfer(Set(X u Y, As)) = meet", checked)
    if t_xy != expected:
        report.counterexample = {"combined": t_xy.pairs(),
                                 "meet": expected.pairs()}
    return report


# ---------------------------------------------------------------------------
# restriction and induction of generator sequences


def _pullback_orbit(f: Homomorphism, r: int, T: FiniteGSet) -> FiniteGSet:
    """Predicted summand for double-coset representative r: the
    conjugated witness pulled back along f to L = f^-1(rHr^-1)."""
    conj = T.conjugate(r)                  # rHr^-1 acting
    L = lattice_of(f.source).subgroups[
        f.preimage_ids[lattice_of(f.target).id_of(conj.subgroup)]]
    return FiniteGSet(L, conj.size,
                      tuple(conj.act_of(f.map[g]) for g in L.members))


def restrict_symseq_predicted(f: Homomorphism, S: SymmetricSequence
                              ) -> SymmetricSequence:
    """Levelwise pullback along f, decomposed by the double-coset formula:
    one summand per representative of im(f)\\G'/H."""
    if S.group != f.target:
        raise GroupError("sequence lives on the wrong group for restriction")
    imf = lattice_of(f.target).subgroups[f.image_ids[-1]]
    return SymmetricSequence(f.source, tuple(
        _pullback_orbit(f, r, T) for T in S.orbits
        for r in double_cosets(f.target, imf, T.subgroup)))


def _pullback_label(f: Homomorphism, r: int, T: FiniteGSet):
    """Graph label of `_pullback_orbit(f, r, T)`, read off the lattices by
    the double-coset formula: T restricted to M = f(G) & rHr^-1 through
    conjugation by r, pulled back along f to L = f^-1(rHr^-1).  An orbit
    of stabilizer M & sKs^-1 pulls back to one of stabilizer f^-1(sKs^-1)."""
    lat, pre = lattice_of(f.target), f.preimage_ids
    conj = lat.conj_table[r]
    hr = conj[lat.id_of(T.subgroup)]
    stabs = lat.restricted_stabilizers(hr, lat.meet_table[f.image_ids[-1]][hr],
                                       [conj[k] for k in T.stabilizer_ids])
    return lattice_of(f.source).graph_label(T.size, pre[hr],
                                            [pre[k] for k in stabs])


def _predicted_labels(f: Homomorphism, T: FiniteGSet) -> list:
    """The summand labels of one free orbit, one per r in im(f)\\G'/H."""
    imf = lattice_of(f.target).subgroups[f.image_ids[-1]]
    return sorted(_pullback_label(f, r, T)
                  for r in double_cosets(f.target, imf, T.subgroup))


def _direct_pullback_labels(f: Homomorphism, T: FiniteGSet) -> list:
    """Orbit graph labels of the direct pullback of one free orbit.

    Lets G x Sigma_n act on (G' x Sigma_n)/Gamma through f x id, splits
    it into orbits, and reads off each representative's stabilizer
    exactly.

    Each point has a member (b_i, pi) with b_i the least element of a
    coset of G'/H, as (b_i h, pi)Gamma = (b_i, pi . sigma_h^-1)Gamma.
    Sigma_n multiplies pi on the left, so it is transitive on each block
    i, and a generator g of G moves block i to block j where
    f(g) b_i = b_j h.  The orbits are therefore those of f(G) on G'/H,
    and each is read at (b_i, identity) for its least i: the g with
    f(g) b_i = b_i h, paired with sigma_h.  Their ids, and those of the
    point stabilizers of that action on T, are read from the rows.
    """
    G, n = f.source, T.size
    lat = lattice_of(G)
    reps, table = coset_action(f.target, f.target.elements(), T.subgroup)
    gen_rows = [table[f.map[g]] for g in generators(G)]
    seen: set[int] = set()
    labels = []
    for i in range(len(reps)):
        if i in seen:
            continue
        seen.update(reach(i, lambda p: [row[p][0] for row in gen_rows]))
        rows = [(g, T.act_of(h)) for g in G.elements()
                for j, h in [table[f.map[g]][i]] if j == i]
        stabs, covered = [], set()
        for x in range(n):
            if x not in covered:
                covered.update([row[x] for _, row in rows])
                stabs.append(lat.id_of_members(
                    [g for g, row in rows if row[x] == x]))
        labels.append(lat.graph_label(
            n, lat.id_of_members([g for g, _ in rows]), stabs))
    return sorted(labels)


def double_coset_check(f: Homomorphism, S: SymmetricSequence) -> LawReport:
    """Predicted summand stabilizers versus the direct pullback, orbit by
    orbit, compared up to conjugacy in G x Sigma_n."""
    if S.group != f.target:
        raise GroupError("sequence lives on the wrong group for restriction")
    for checked, T in enumerate(S.orbits, 1):
        predicted = _predicted_labels(f, T)
        direct = _direct_pullback_labels(f, T)
        if predicted != direct:
            return LawReport("double-coset decomposition", checked,
                             {"level": T.size,
                              "predicted": [str(p) for p in predicted],
                              "direct": [str(d) for d in direct]})
    return LawReport("double-coset decomposition", len(S.orbits))


def induce_symseq(m: Homomorphism, S: SymmetricSequence) -> SymmetricSequence:
    """Levelwise induction along an injective homomorphism: each free orbit
    keeps its graph, now inside the bigger product group."""
    if not m.is_injective:
        raise GroupError(
            "induction of generator sequences requires an injective map; "
            "see noninjective_induction_counterexample for why")
    if S.group != m.source:
        raise GroupError("sequence lives on the wrong group for induction")
    back = {m.map[a]: a for a in m.source.elements()}
    return SymmetricSequence(m.target, tuple(
        FiniteGSet(image, T.size, [T.act_of(back[a]) for a in image.members])
        for T in S.orbits for image in [m.image_subgroup(T.subgroup)]))


@dataclass
class NonInjectiveWitness:
    """Certificate that induction along a noninjective map destroys
    Sigma-freeness."""

    kernel_element: int
    permutation: Perm
    induced_pairs: frozenset
    verified: bool

    def to_json(self) -> dict:
        return {"kernel_element": self.kernel_element,
                "permutation": list(self.permutation),
                "verified": self.verified}


def is_sigma_free_pairs(pairs: Iterable[tuple[int, Perm]]) -> bool:
    """An orbit with this stabilizer is Sigma-free iff no nonidentity
    permutation is paired with the group identity."""
    return not any(g == 0 and s != identity_perm(len(s)) for g, s in pairs)


def noninjective_induction_counterexample(f: Homomorphism) -> NonInjectiveWitness:
    """Induce the free orbit on the regular representation along f x id and
    exhibit a nontrivial permutation fixing the identity class."""
    if f.is_injective:
        raise GroupError("f must be noninjective to produce the obstruction")
    G = f.source
    T = coset_hset(full_subgroup(G), trivial_subgroup(G))
    graph = frozenset(zip(G.elements(), T.act))
    induced_pairs = frozenset((f.map[g], sigma) for g, sigma in graph)
    k = next(a for a in G.elements() if a != 0 and f.map[a] == 0)
    perm = T.act_of(k)
    verified = (
        perm != identity_perm(G.order)
        and (0, perm) in induced_pairs
        and is_sigma_free_pairs(graph)
        and not is_sigma_free_pairs(induced_pairs)
    )
    return NonInjectiveWitness(k, perm, induced_pairs, verified)


# ---------------------------------------------------------------------------
# the three change-of-group consistency checks


def _realizes_check(law: str, systems: Sequence[TransferSystem], move,
                    functor) -> LawReport:
    """Moving each system's free model realizes the functor on it."""
    for checked, t in enumerate(systems, 1):
        got, want = symseq_transfer(move(free_model(t))), functor(t)
        if got != want:
            return LawReport(law, checked, {"t": t.pairs(), "got": got.pairs(),
                                            "want": want.pairs()})
    return LawReport(law, len(systems))


def theoremB_res_check(f: Homomorphism,
                       target_systems: Sequence[TransferSystem]) -> LawReport:
    """Restricting a free model realizes the left inverse image."""
    return _realizes_check("transfer(res of free model) = finvL",
                           target_systems,
                           lambda S: restrict_symseq_predicted(f, S),
                           lambda t: preimage_L(f, t))


def theoremB_ind_check(m: Homomorphism,
                       source_systems: Sequence[TransferSystem]) -> LawReport:
    """Inducing a free model along an injective map realizes the left image."""
    return _realizes_check("transfer(ind of free model) = fL", source_systems,
                           lambda S: induce_symseq(m, S),
                           lambda t: image_L(m, t))


def theoremB_coind_check(G: Group) -> LawReport:
    """For every subgroup H, the coinduced associativity operad on H\\G has
    the transfer system of the right image of the discrete system on H."""
    lat = lattice_of(G)
    checked = 0
    for H in lat.subgroups:
        checked += 1
        op = CoindAsOperad(right_coset_gset(G, H))
        got = op.transfer()
        incl = inclusion_hom(H)
        want = image_R(incl, discrete(incl.source))
        if got != want:
            return LawReport("transfer(Set(H\\G, As)) = iR(discrete)", checked,
                             {"H": list(H.members), "got": got.pairs(),
                              "want": want.pairs()})
    return LawReport("transfer(Set(H\\G, As)) = iR(discrete)", checked)
