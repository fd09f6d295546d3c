"""Discrete operads presented by generators, and change-of-group on them.

Free (marked) operads are never materialized: a symmetric sequence of free
orbits, each given by the H-set whose graph is its stabilizer, determines
the transfer system, and that is all admissibility needs.  Only the direct
pullback that checks the double-coset formula materializes a level, under
DEFAULT_LEVEL_GUARD.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .functors import LawReport, image_L, image_R, preimage_L
from .groups import (
    FiniteGSet,
    Group,
    GroupError,
    Homomorphism,
    Perm,
    Subgroup,
    compose,
    coset_action,
    coset_hset,
    double_cosets,
    full_subgroup,
    generators,
    graph_conjugacy_label,
    identity_perm,
    invert,
    lattice_of,
    trivial_subgroup,
)
from .transfer import TransferSystem, discrete, generate_columns, meet

DEFAULT_LEVEL_GUARD = 200_000


class MaterializationError(RuntimeError):
    """A level was too large to materialize under DEFAULT_LEVEL_GUARD."""


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

    def union(self, other: "SymmetricSequence") -> "SymmetricSequence":
        if self.group != other.group:
            raise GroupError("symmetric sequences live over different groups")
        return SymmetricSequence(self.group, self.orbits + other.orbits)


def free_model(t: TransferSystem) -> SymmetricSequence:
    """Free marked presentation of a transfer system: one free orbit
    Gamma(H/K) per nontrivial related pair K -> H."""
    lat = t.lattice
    return SymmetricSequence(t.group, tuple(
        coset_hset(lat.subgroups[h_id], lat.subgroups[k_id])
        for k_id, h_id in t.pairs()))


def symseq_transfer(S: SymmetricSequence) -> TransferSystem:
    """Transfer system generated by the column (H, orbit stabilizers) of
    each generator witness; equals the transfer system of the free marked
    operad on S."""
    lat = lattice_of(S.group)
    columns = [0] * lat.count
    for T in S.orbits:
        columns[lat.id_of(T.subgroup)] |= T.stabilizer_mask
    return generate_columns(lat, columns)


def coproduct_join_check(S: SymmetricSequence, T: SymmetricSequence) -> LawReport:
    """Generator-level content of 'coproducts realize joins'."""
    from .transfer import join
    combined = symseq_transfer(S.union(T))
    expected = join(symseq_transfer(S), symseq_transfer(T))
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
        n = T.size
        for h in H.members:
            row = self.xset.act_of(h)
            if any(row[x] == x for x in range(self.xset.size)):
                if T.act_of(h) != identity_perm(n):
                    return False
        return True

    def transfer(self) -> TransferSystem:
        """Transfer system read off the criterion over all orbit pairs."""
        from .transfer import rel_from_pairs, validate
        lat = lattice_of(self.group)
        pairs = []
        for h_id in range(lat.count):
            H = lat.subgroups[h_id]
            for k_id in lat.ids_below(h_id):
                if k_id == h_id:
                    continue
                if self.admits(H, coset_hset(H, lat.subgroups[k_id])):
                    pairs.append((k_id, h_id))
        return validate(lat, rel_from_pairs(lat.count, pairs))


def coind_as_product_check(X: FiniteGSet, Y: FiniteGSet) -> LawReport:
    """Products realize meets, checked through the admits criterion."""
    op_x = CoindAsOperad(X)
    op_y = CoindAsOperad(Y)
    op_xy = CoindAsOperad(X.disjoint_union(Y))
    lat = lattice_of(X.group)
    checked = 0
    for h_id in range(lat.count):
        H = lat.subgroups[h_id]
        for k_id in lat.ids_below(h_id):
            T = coset_hset(H, lat.subgroups[k_id])
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
    conjugated, restricted witness pulled back along f."""
    G = f.source
    conj = T.conjugate(r)                  # rHr^-1 acting
    Hr = conj.subgroup
    L_members = [g for g in G.elements() if f.map[g] in Hr.member_set]
    L = Subgroup(G, tuple(L_members))
    rows = tuple(conj.act_of(f.map[g]) for g in L.members)
    return FiniteGSet(L, conj.size, rows)


def restrict_symseq_predicted(f: Homomorphism, S: SymmetricSequence
                              ) -> SymmetricSequence:
    """Levelwise pullback along f, decomposed by the double-coset formula:
    one summand per representative of im(f)\\G'/H."""
    G = f.source
    Gp = f.target
    if S.group != Gp:
        raise GroupError("sequence lives on the wrong group for restriction")
    imf = f.image()
    return SymmetricSequence(G, tuple(
        _pullback_orbit(f, r, T) for T in S.orbits
        for r in double_cosets(Gp, imf, T.subgroup)))


def _direct_pullback_labels(f: Homomorphism, T: FiniteGSet) -> list:
    """Orbit stabilizer labels of the direct pullback of one free orbit.

    Materializes (G' x Sigma_n)/Gamma, lets G x Sigma_n act through
    f x id, decomposes into orbits by breadth-first search, and reads off
    each representative's stabilizer exactly.

    Each coset has one member (b_i, pi) with b_i the least element of a
    coset of G'/H, as (b_i h, pi)Gamma = (b_i, pi . sigma_h^-1)Gamma; it is
    coded as the int i * n! + rank(pi), pi ranked lexicographically, so
    every int below |G'/H| * n! is a point.  A generator g of G moves
    (b_i, pi) to (b_j, pi . sigma_h^-1) where f(g) b_i = b_j h, and the
    swap and the cycle of Sigma_n multiply pi on the left; each of these
    moves is a rank table.
    """
    G, Gp, n = f.source, f.target, T.size
    H = T.subgroup
    size = math.factorial(n)
    total = Gp.order // H.order * size
    if total > DEFAULT_LEVEL_GUARD:
        raise MaterializationError(
            f"pullback of a level-{n} orbit needs {total} elements, "
            f"over the limit of {DEFAULT_LEVEL_GUARD}")
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
    moves: list[list] = [[] for _ in reps]
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


def double_coset_check(f: Homomorphism, S: SymmetricSequence) -> LawReport:
    """Predicted summand stabilizers versus the direct pullback, orbit by
    orbit, compared up to conjugacy in G x Sigma_n."""
    checked = 0
    imf = f.image()
    for T in S.orbits:
        checked += 1
        predicted = sorted(
            graph_conjugacy_label(_pullback_orbit(f, r, T))
            for r in double_cosets(f.target, imf, T.subgroup))
        direct = _direct_pullback_labels(f, T)
        if predicted != direct:
            return LawReport("double-coset decomposition", checked,
                             {"level": T.size,
                              "predicted": [str(p) for p in predicted],
                              "direct": [str(d) for d in direct]})
    return LawReport("double-coset decomposition", checked)


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
    induced = []
    for T in S.orbits:
        image = m.image_subgroup(T.subgroup)
        rows = tuple(T.act_of(back[a]) for a in image.members)
        induced.append(FiniteGSet(image, T.size, rows))
    return SymmetricSequence(m.target, tuple(induced))


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
    return not any(g == 0 and any(s[i] != i for i in range(len(s)))
                   for g, s in pairs)


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


def theoremB_res_check(f: Homomorphism,
                       target_systems: Sequence[TransferSystem]) -> LawReport:
    """Restricting a free model realizes the left inverse image."""
    checked = 0
    for t in target_systems:
        checked += 1
        restricted = restrict_symseq_predicted(f, free_model(t))
        got = symseq_transfer(restricted)
        want = preimage_L(f, t)
        if got != want:
            return LawReport("transfer(res of free model) = finvL", checked,
                             {"t": t.pairs(), "got": got.pairs(),
                              "want": want.pairs()})
    return LawReport("transfer(res of free model) = finvL", checked)


def theoremB_ind_check(m: Homomorphism,
                       source_systems: Sequence[TransferSystem]) -> LawReport:
    """Inducing a free model along an injective map realizes the left image."""
    checked = 0
    for t in source_systems:
        checked += 1
        induced = induce_symseq(m, free_model(t))
        got = symseq_transfer(induced)
        want = image_L(m, t)
        if got != want:
            return LawReport("transfer(ind of free model) = fL", checked,
                             {"t": t.pairs(), "got": got.pairs(),
                              "want": want.pairs()})
    return LawReport("transfer(ind of free model) = fL", checked)


def theoremB_coind_check(G: Group) -> LawReport:
    """For every subgroup H, the coinduced associativity operad on H\\G has
    the transfer system of the right image of the discrete system on H."""
    from .groups import inclusion_hom, right_coset_gset

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
