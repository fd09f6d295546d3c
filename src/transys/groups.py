"""Finite groups as Cayley tables, subgroups, homomorphisms, and finite actions.

Conventions used throughout the package:

* group elements are the indices ``0..order-1`` and the identity is index 0;
* permutations of ``n`` points are tuples ``p`` with ``p[i]`` the image of
  ``i``, and ``compose(p, q)`` applies ``q`` first;
* the symmetric group catalog entry lists permutations in lexicographic
  order, so the identity permutation is element 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

MAX_ORDER = 24

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Composite permutation applying q first, then p."""
    return tuple([p[i] for i in q])


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


class GroupError(ValueError):
    pass


def _require_order(order: int) -> None:
    """Reject an order over MAX_ORDER; constructors call this before they
    build a table, which grows as the square of the order."""
    if order > MAX_ORDER:
        raise GroupError(f"order {order} exceeds supported maximum {MAX_ORDER}")


@dataclass(frozen=True)
class Group:
    """Finite group given by its full multiplication table.

    Element ``mul[a][b]`` is the product ``a*b``.  Tables are validated on
    construction: closure, associativity, identity at index 0, inverses.
    Orders above MAX_ORDER are rejected; everything downstream assumes
    exhaustive verification is affordable.
    """

    mul: tuple[tuple[int, ...], ...]
    name: str = field(compare=False, default="G")

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.mul)
        object.__setattr__(self, "mul", rows)
        # the table is immutable, so hash it once (as the dataclass would)
        object.__setattr__(self, "_hash", hash((rows,)))
        n = len(rows)
        if n == 0:
            raise GroupError("group must be nonempty")
        _require_order(n)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise GroupError(f"row {i} has length {len(row)}, expected {n}")
            for x in row:
                if type(x) is not int or not 0 <= x < n:
                    raise GroupError(f"entry {x!r} in row {i} is not an "
                                     f"element id in range({n})")
        for a in range(n):
            if rows[0][a] != a or rows[a][0] != a:
                raise GroupError("identity must sit at index 0")
        for a in range(n):
            if 0 not in rows[a]:
                raise GroupError(f"element {a} has no inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                        raise GroupError(f"associativity fails at ({a},{b},{c})")

    def __hash__(self) -> int:
        return self._hash

    @property
    def order(self) -> int:
        return len(self.mul)

    @cached_property
    def inv(self) -> tuple[int, ...]:
        out = [0] * self.order
        for a in range(self.order):
            out[a] = self.mul[a].index(0)
        return tuple(out)

    def conj(self, g: int, a: int) -> int:
        """g a g^-1."""
        return self.mul[self.mul[g][a]][self.inv[g]]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.mul[x][a]
            k += 1
        return k

    def __repr__(self) -> str:
        return f"Group({self.name}, order={self.order})"


def _table_group(name: str, elems: Sequence, op) -> Group:
    index = {e: i for i, e in enumerate(elems)}
    rows = [[index[op(a, b)] for b in elems] for a in elems]
    return Group(tuple(tuple(r) for r in rows), name=name)


def cyclic_group(n: int) -> Group:
    if n <= 0:
        raise GroupError(f"cyclic order must be positive, got {n}")
    _require_order(n)
    rows = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return Group(rows, name=f"C{n}")


def symmetric_group(n: int) -> Group:
    """Sigma_n on points 0..n-1, permutations listed lexicographically."""
    if n < 0:
        raise GroupError("symmetric degree must be nonnegative")
    if n > 4:  # n! > MAX_ORDER, named without computing n!
        raise GroupError(f"order {n}! exceeds supported maximum {MAX_ORDER}")
    elems = sorted(itertools.permutations(range(n)))
    return _table_group(f"S{n}", elems, compose)


def klein_four_group() -> Group:
    rows = tuple(tuple(a ^ b for b in range(4)) for a in range(4))
    return Group(rows, name="K4")


def dihedral_group(n: int) -> Group:
    """Symmetries of the n-gon, order 2n; element (s, i) encodes s^s r^i."""
    if n <= 0:
        raise GroupError(f"dihedral parameter must be positive, got {n}")
    _require_order(2 * n)
    elems = [(s, i) for s in range(2) for i in range(n)]

    def op(a, b):
        s1, i1 = a
        s2, i2 = b
        # r^i s = s r^{-i}, so (s^s1 r^i1)(s^s2 r^i2) folds left-to-right
        if s2 == 0:
            return (s1, (i1 + i2) % n)
        return (1 - s1, (i2 - i1) % n)

    return _table_group(f"D{n}", elems, op)


def direct_product(g: Group, h: Group, name: Optional[str] = None) -> Group:
    _require_order(g.order * h.order)
    elems = [(a, b) for a in g.elements() for b in h.elements()]

    def op(x, y):
        return (g.mul[x[0]][y[0]], h.mul[x[1]][y[1]])

    return _table_group(name or f"{g.name}x{h.name}", elems, op)


def make_group(kind: str, n: Optional[int] = None,
               factors: Optional[tuple[Group, Group]] = None) -> Group:
    """Catalog constructor covering the groups the test plan runs on."""
    if kind == "klein_four":
        return klein_four_group()
    if kind == "direct_product":
        if not factors or len(factors) != 2:
            raise GroupError("direct_product requires two factor groups")
        return direct_product(*factors)
    build = {"cyclic": cyclic_group, "symmetric": symmetric_group,
             "dihedral": dihedral_group}.get(kind)
    if build is None:
        raise GroupError(f"unknown group kind {kind!r}")
    if n is None:
        raise GroupError(f"{kind} requires n")
    return build(n)


# ---------------------------------------------------------------------------
# subgroups


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a Group, stored as the sorted tuple of its members."""

    group: Group
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))
        mul = self.group.mul
        mem = set(self.members)
        if 0 not in mem:
            raise GroupError("subgroup must contain the identity")
        for a in self.members:
            if self.group.inv[a] not in mem:
                raise GroupError(f"subgroup not closed under inverse at {a}")
            for b in self.members:
                if mul[a][b] not in mem:
                    raise GroupError(f"subgroup not closed under product at ({a},{b})")

    @property
    def order(self) -> int:
        return len(self.members)

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    @cached_property
    def position(self) -> dict[int, int]:
        return {g: i for i, g in enumerate(self.members)}

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set: each member not in the span of the ones
        before it, in ascending order; empty for the trivial subgroup."""
        gens: list[int] = []
        span = {0}
        for g in self.members:
            if g not in span:
                gens.append(g)
                span = generated_subgroup(self.group, gens).member_set
        return tuple(gens)

    def __contains__(self, g: int) -> bool:
        return g in self.member_set

    def contains(self, other: "Subgroup") -> bool:
        return other.member_set <= self.member_set

    def conjugate(self, g: int) -> "Subgroup":
        G = self.group
        return Subgroup(G, tuple(G.conj(g, a) for a in self.members))

    def as_group(self) -> Group:
        """This subgroup as a standalone Group; element i is members[i]."""
        pos = self.position
        mul = self.group.mul
        rows = tuple(
            tuple(pos[mul[a][b]] for b in self.members) for a in self.members
        )
        return Group(rows, name=f"{self.group.name}[{','.join(map(str, self.members))}]")

    def __repr__(self) -> str:
        return f"Subgroup({self.group.name}:{list(self.members)})"


def trivial_subgroup(G: Group) -> Subgroup:
    return Subgroup(G, (0,))


def full_subgroup(G: Group) -> Subgroup:
    return Subgroup(G, tuple(G.elements()))


def reach(start, step) -> list:
    """The points reachable from ``start``, in breadth-first discovery
    order; ``step(p)`` gives the points one step from p."""
    found = [start]
    seen = {start}
    for p in found:  # the list grows while it is read: a queue
        for q in step(p):
            if q not in seen:
                seen.add(q)
                found.append(q)
    return found


def _span(G: Group, gens: Sequence[int]) -> tuple[int, ...]:
    """Sorted members of the subgroup that gens generate: the walk from 0
    under right multiplication by gens.  In a finite group the products
    of the generators already include every inverse."""
    mul = G.mul
    return tuple(sorted(reach(0, lambda a: [mul[a][g] for g in gens])))


def generated_subgroup(G: Group, gens: Iterable[int]) -> Subgroup:
    return Subgroup(G, _span(G, tuple(gens)))


def generators(G: Group) -> tuple[int, ...]:
    """A generating set of G, that of its full subgroup in the lattice."""
    return lattice_of(G).subgroups[-1].generators


def all_subgroups(G: Group) -> tuple[Subgroup, ...]:
    """Every subgroup exactly once, ordered by (size, member tuple).

    The position in this tuple is the stable subgroup id used by the
    transfer-system machinery.  The walk runs over sorted member tuples,
    a step adding one element and taking the span; only the subgroups
    found become validated Subgroups.  As x and xk (k in m) span the same
    subgroup with m, a step spans one x per left coset of m.
    """
    mul = G.mul

    def step(m: tuple[int, ...]) -> list[tuple[int, ...]]:
        spans, covered = [], set(m)
        for x in G.elements():
            if x not in covered:
                spans.append(_span(G, m + (x,)))
                covered.update([mul[x][k] for k in m])
        return spans

    found = reach((0,), step)
    return tuple(Subgroup(G, m)
                 for m in sorted(found, key=lambda m: (len(m), m)))


class SubgroupLattice:
    """Cached subgroup data for a fixed group: ids, containment, meets, the
    conjugation action and, filled on first use, the coset H-sets H/K, the
    H-class representatives and the orbit types of H-sets."""

    def __init__(self, group: Group):
        self.group = group
        self.subgroups = all_subgroups(group)
        self.count = len(self.subgroups)
        self.index = {s.members: i for i, s in enumerate(self.subgroups)}
        self.leq = tuple(
            tuple(self.subgroups[i].member_set <= self.subgroups[j].member_set
                  for j in range(self.count))
            for i in range(self.count)
        )
        self.meet_table = tuple(
            tuple(self.index[tuple(sorted(self.subgroups[i].member_set
                                          & self.subgroups[j].member_set))]
                  for j in range(self.count))
            for i in range(self.count)
        )
        # conjugates of subgroups are subgroups: look up their members
        # rather than validating each one as a Subgroup
        self.conj_table = tuple(
            tuple(self.index[tuple(sorted([group.conj(g, a)
                                           for a in s.members]))]
                  for s in self.subgroups)
            for g in group.elements()
        )
        self.trivial_id = self.index[(0,)]
        self._cosets: dict[int, FiniteGSet] = {}

    def coset_hset(self, h_id: int, k_id: int) -> "FiniteGSet":
        """The transitive H-set H/K for subgroup ids K <= H, built on first
        use and then shared, so every reader of it (free models, the
        coinduced criterion) sees one object, whose stabilizer ids and
        mask are worked out once."""
        key = h_id * self.count + k_id
        T = self._cosets.get(key)
        if T is None:
            T = self._cosets[key] = coset_hset(self.subgroups[h_id],
                                               self.subgroups[k_id])
        return T

    def id_of(self, s: Subgroup) -> int:
        return self.index[s.members]

    def id_of_members(self, members: Iterable[int]) -> int:
        return self.index[tuple(sorted(set(members)))]

    def ids_below(self, j: int) -> list[int]:
        return [i for i in range(self.count) if self.leq[i][j]]

    @cached_property
    def hclass_reps(self) -> tuple[tuple[int, ...], ...]:
        """Per pair of ids (h, s), the least id over the conjugates of s by
        the elements of h; built on first use."""
        conj = self.conj_table
        return tuple(tuple(map(min, zip(*[conj[g] for g in H.members])))
                     for H in self.subgroups)

    def hclass_rep(self, h_id: int, s_id: int) -> int:
        """Min id over the conjugates of subgroup s by elements of subgroup h."""
        return self.hclass_reps[h_id][s_id]

    @cached_property
    def conj_actions(self) -> tuple[tuple[int, ...], ...]:
        """The distinct rows of conj_table, one per conjugation action."""
        return tuple(dict.fromkeys(self.conj_table))

    def graph_label(self, n: int, h_id: int, stabs: Sequence[int]):
        """Canonical label, up to conjugacy in G x Sigma_n, of the graph
        {(h, sigma_T(h))} of an n-point H-set T with these orbit stabilizer
        ids: the least (id of H^g, orbit type of T^g) over g in G, since the
        stabilizers of T^g are those of T conjugated by g."""
        reps = self.hclass_reps
        return (n, min((c[h_id], tuple(sorted([reps[c[h_id]][c[k]]
                                                for k in stabs])))
                       for c in self.conj_actions))

    def restricted_stabilizers(self, x: int, m: int, ks: Iterable[int]
                               ) -> list[int]:
        """Orbit stabilizer ids of the X-set X/K_1 + X/K_2 + ... restricted
        to M <= X, by the double-coset formula: one M & sKs^-1 per K and
        per s in M\\X/K."""
        mul, M = self.group.mul, self.subgroups[m].members
        out = []
        for k in ks:
            K, covered = self.subgroups[k].members, set()
            for s in self.subgroups[x].members:
                if s not in covered:
                    covered.update([mul[mul[a][s]][b] for a in M for b in K])
                    out.append(self.meet_table[m][self.conj_table[s][k]])
        return out

    @cached_property
    def orbit_type_masks(self) -> tuple[tuple[tuple[tuple, int], ...], ...]:
        """Per subgroup id H, each orbit type of H-sets of at most |G|
        points with the mask of its stabilizer ids; built on first use."""
        return tuple(tuple((key, id_mask(key))
                           for n in range(self.group.order + 1)
                           for key in orbit_types(self, h_id, n))
                     for h_id in range(self.count))


@lru_cache(maxsize=None)
def lattice_of(G: Group) -> SubgroupLattice:
    return SubgroupLattice(G)


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class Homomorphism:
    source: Group
    target: Group
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "map", tuple(self.map))
        if len(self.map) != self.source.order:
            raise GroupError("map table must cover every source element")
        for x in self.map:
            if type(x) is not int or not 0 <= x < self.target.order:
                raise GroupError(f"map value {x!r} is not a target element id")
        if self.map[0] != 0:
            raise GroupError("map must send identity to identity")
        for a in self.source.elements():
            for b in self.source.elements():
                lhs = self.map[self.source.mul[a][b]]
                rhs = self.target.mul[self.map[a]][self.map[b]]
                if lhs != rhs:
                    raise GroupError(
                        f"map is not multiplicative at pair ({a},{b}): "
                        f"f(ab)={lhs} but f(a)f(b)={rhs}")

    def __call__(self, a: int) -> int:
        return self.map[a]

    @cached_property
    def is_injective(self) -> bool:
        return len(set(self.map)) == self.source.order

    @cached_property
    def image_ids(self) -> tuple[int, ...]:
        """Subgroup id of f(K) for each subgroup id K of the source."""
        lat = lattice_of(self.target)
        return tuple(lat.id_of_members(self.map[a] for a in K.members)
                     for K in lattice_of(self.source).subgroups)

    @cached_property
    def preimage_ids(self) -> tuple[int, ...]:
        """Subgroup id of f^-1(H) for each subgroup id H of the target."""
        lat = lattice_of(self.source)
        return tuple(lat.id_of_members(a for a in self.source.elements()
                                       if self.map[a] in H.member_set)
                     for H in lattice_of(self.target).subgroups)

    def image_subgroup(self, H: Subgroup) -> Subgroup:
        if H.group != self.source:
            raise GroupError("subgroup not in the source group")
        return Subgroup(self.target, tuple({self.map[a] for a in H.members}))

    def kernel(self) -> Subgroup:
        return Subgroup(self.source,
                        tuple(a for a in self.source.elements() if self.map[a] == 0))

    def __repr__(self) -> str:
        return f"Hom({self.source.name}->{self.target.name})"


def identity_hom(G: Group) -> Homomorphism:
    return Homomorphism(G, G, tuple(G.elements()))


def bang_hom(G: Group) -> Homomorphism:
    """The unique map to the trivial group."""
    return Homomorphism(G, cyclic_group(1), (0,) * G.order)


def inclusion_hom(H: Subgroup) -> Homomorphism:
    """H viewed as a standalone group, included into its ambient group."""
    return Homomorphism(H.as_group(), H.group, H.members)


def compose_homs(k: Homomorphism, h: Homomorphism) -> Homomorphism:
    if h.target != k.source:
        raise GroupError("homomorphisms are not composable")
    return Homomorphism(h.source, k.target, tuple(k.map[x] for x in h.map))


def cyclic_hom(source: Group, target: Group, gen_image: int) -> Homomorphism:
    """Homomorphism from a cyclic group determined by the image of element 1."""
    mapping = [0] * source.order
    x = 0
    for i in range(1, source.order):
        x = target.mul[x][gen_image]
        mapping[i] = x
    return Homomorphism(source, target, tuple(mapping))


# ---------------------------------------------------------------------------
# double cosets


def double_cosets(G: Group, A: Subgroup, B: Subgroup) -> tuple[int, ...]:
    """One representative per double coset A\\G/B, each minimal in its coset."""
    reps = []
    covered = [False] * G.order
    for g in G.elements():
        if covered[g]:
            continue
        reps.append(g)
        for a in A.members:
            ag = G.mul[a][g]
            for b in B.members:
                covered[G.mul[ag][b]] = True
    return tuple(reps)


# ---------------------------------------------------------------------------
# finite actions


@dataclass(frozen=True)
class FiniteGSet:
    """Finite set with a left action of a subgroup H of an ambient group.

    ``act`` holds one permutation row per member of H in sorted member
    order.
    """

    subgroup: Subgroup
    size: int
    act: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "act", tuple(map(tuple, self.act)))
        H = self.subgroup
        if len(self.act) != H.order:
            raise GroupError("need one action row per subgroup member")
        points = list(range(self.size))
        for row in self.act:
            if sorted(row) != points or not set(map(type, row)) <= {int}:
                raise GroupError(
                    "action rows must be permutations of the points, as ints")
        if self.act[0] != identity_perm(self.size):
            raise GroupError("identity must act trivially")
        mul = H.group.mul
        pos = H.position
        for a in H.members:
            for b in H.members:
                if self.act[pos[mul[a][b]]] != compose(self.act[pos[a]],
                                                       self.act[pos[b]]):
                    raise GroupError(f"action law fails at ({a},{b})")

    @property
    def group(self) -> Group:
        return self.subgroup.group

    def act_of(self, g: int) -> Perm:
        """Permutation row for an ambient-group element g in the subgroup."""
        return self.act[self.subgroup.position[g]]

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """The orbits, each sorted, ordered by least point.  ``act`` holds
        a row for every member of H, so x's orbit is its column."""
        seen: set[int] = set()
        out = []
        for x in range(self.size):
            if x not in seen:
                orbit = tuple(sorted({row[x] for row in self.act}))
                seen.update(orbit)
                out.append(orbit)
        return tuple(out)

    def conjugate(self, g: int) -> "FiniteGSet":
        """The same points with gHg^-1 acting through h -> g^-1 h g."""
        G = self.group
        Hg = self.subgroup.conjugate(g)
        ginv = G.inv[g]
        rows = tuple(self.act_of(G.conj(ginv, a)) for a in Hg.members)
        return FiniteGSet(Hg, self.size, rows)

    def disjoint_union(self, other: "FiniteGSet") -> "FiniteGSet":
        if self.subgroup != other.subgroup:
            raise GroupError("disjoint union needs matching actions")
        n = self.size
        rows = tuple(
            row_a + tuple(x + n for x in row_b)
            for row_a, row_b in zip(self.act, other.act)
        )
        return FiniteGSet(self.subgroup, n + other.size, rows)

    @cached_property
    def stabilizer_ids(self) -> tuple[int, ...]:
        """Lattice id of the stabilizer of each orbit's least point."""
        lat = lattice_of(self.group)
        return tuple(lat.id_of_members(g for g in self.subgroup.members
                                       if self.act_of(g)[orbit[0]] == orbit[0])
                     for orbit in self.orbits())

    @cached_property
    def stabilizer_mask(self) -> int:
        """The stabilizer ids as one mask over subgroup ids."""
        return id_mask(self.stabilizer_ids)


def id_mask(ids: Iterable[int]) -> int:
    """The OR of ``1 << k`` over the subgroup ids k."""
    mask = 0
    for k in ids:
        mask |= 1 << k
    return mask


def coset_action(G: Group, elems: Sequence[int], K: Subgroup
                 ) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """How the group listed by ``elems``, in ascending order, acts on its
    left cosets aK.

    Returns the least element b_i of each coset, ascending, and for each g
    of ``elems`` a row with one pair (j, k) per coset i, such that
    g b_i = b_j k with k in K.
    """
    mul = G.mul
    reps: list[int] = []
    where: list = [None] * G.order  # x = b_j k  ->  (j, k)
    for a in elems:
        if where[a] is None:
            for k in K.members:
                where[mul[a][k]] = (len(reps), k)
            reps.append(a)
    rows = [[where[mul[g][b]] for b in reps] for g in elems]
    return reps, rows


def hset_of_orbits(H: Subgroup, parts: Iterable[Subgroup]) -> FiniteGSet:
    """The left H-set H/K_1 + H/K_2 + ..., one block per part in the given
    order, the points of each block being its cosets by least element."""
    rows: list[list[int]] = [[] for _ in H.members]
    size = 0
    for K in parts:
        if not H.contains(K):
            raise GroupError("coset space needs K <= H")
        reps, table = coset_action(H.group, H.members, K)
        for row, moves in zip(rows, table):
            row.extend([size + j for j, _ in moves])
        size += len(reps)
    return FiniteGSet(H, size, rows)


def coset_hset(H: Subgroup, K: Subgroup) -> FiniteGSet:
    """The transitive left H-set H/K; cosets ordered by least element."""
    return hset_of_orbits(H, (K,))


def right_coset_gset(G: Group, H: Subgroup) -> FiniteGSet:
    """The right G-set H\\G as the isomorphic left G-set G/H, through
    Hg -> g^-1 H; an element fixes Hg iff it fixes g^-1 H."""
    return coset_hset(full_subgroup(G), H)


def induce_hset(H: Subgroup, T: FiniteGSet) -> FiniteGSet:
    """The induced H-set H x_K T, with points ordered (coset block, T point):
    h moves (b_i, x) to (b_j, k x) where h b_i = b_j k.

    Uses the minimal-element coset section, so the realization is canonical.
    """
    K = T.subgroup
    if not H.contains(K):
        raise GroupError("induction needs the acting subgroup inside H")
    reps, table = coset_action(H.group, H.members, K)
    m = T.size
    rows = [[j * m + x for j, k in moves for x in T.act_of(k)]
            for moves in table]
    return FiniteGSet(H, len(reps) * m, rows)


# ---------------------------------------------------------------------------
# isomorphism classification of H-sets


def iso_key(T: FiniteGSet) -> tuple[int, ...]:
    """Orbit type of an H-set: the sorted H-conjugacy class representatives
    (least subgroup ids) of its orbit stabilizers.  Two H-sets are
    isomorphic iff their keys match.
    """
    lat = lattice_of(T.group)
    h_id = lat.id_of(T.subgroup)
    return tuple(sorted(lat.hclass_rep(h_id, k) for k in T.stabilizer_ids))


def orbit_types(lat: SubgroupLattice, h_id: int, n: int
                ) -> list[tuple[int, ...]]:
    """The orbit types of n-point H-sets, one per isomorphism class.

    Each is a sorted tuple of H-conjugacy class representatives K with the
    indices |H:K| summing to n, i.e. the iso_key of the H-set.
    """
    if n < 0:
        raise GroupError("size must be nonnegative")
    # not read from hclass_reps, which a set of H-sets leaves unbuilt
    members = lat.subgroups[h_id].members
    reps = sorted({min(lat.conj_table[g][i] for g in members)
                   for i in lat.ids_below(h_id)})
    # keys[m]: the types of m points over the classes taken so far; the
    # last class is taken first, so the count of the first varies slowest
    keys = [[()]] + [[] for _ in range(n)]
    for k in reversed(reps):
        size = len(members) // lat.subgroups[k].order
        for m in range(size, n + 1):
            keys[m] += [(k,) + key for key in keys[m - size]]
    return keys[n]


def hsets_up_to_iso(H: Subgroup, n: int) -> tuple[FiniteGSet, ...]:
    """One representative per isomorphism class of n-point H-sets: the
    disjoint union of the coset spaces H/K of each orbit type."""
    lat = lattice_of(H.group)
    return tuple(hset_of_orbits(H, [lat.subgroups[k] for k in key])
                 for key in orbit_types(lat, lat.id_of(H), n))
