"""Transfer systems on a fixed finite group.

A transfer system is a mask over the pairs K < H of subgroup ids: pair
(K, H) is bit ``K * n + H``, its place in the row-major relation matrix.
Every lattice operation runs on masks (`_Core`, built once per lattice),
and so does a change of group (`_along`, built once per map of ids).
A boolean matrix is only the input form, which `validate` scans for exact
witnesses; `TransferSystem.rel` is a view derived from the mask.  So is
`TransferSystem.columns`, one mask over subgroup ids per H: those K with
K -> H.  Admissibility reads columns, and `generate_columns` closes them,
so no other module needs the pair-bit layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterable, Optional, Sequence

from .catalog import group_from_json, group_to_json, json_field, json_keys
from .groups import Group, SubgroupLattice, lattice_of

Rel = tuple[tuple[bool, ...], ...]

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration has computed its budget of closures (a
    candidate skipped without a closure costs none); ``closures`` and
    ``found`` say how far it got."""

    def __init__(self, message: str, closures: int, found: int):
        super().__init__(message)
        self.closures, self.found = closures, found


@dataclass
class Violation:
    """First failed transfer-system axiom, with subgroup-id witnesses."""

    # subgroup id | strict pair | same group | refinement | reflexivity
    # | transitivity | conjugation | restriction
    kind: str
    witness: dict

    def describe(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.witness.items())
        return f"{self.kind} violated at {parts}"


class TransferSystemError(ValueError):
    def __init__(self, violation: Violation):
        super().__init__(violation.describe())
        self.violation = violation


def rel_from_pairs(count: int, pairs: Iterable[tuple[int, int]]) -> Rel:
    """Reflexive relation matrix of a pair list; ids must be ints in
    range(count)."""
    m = [[i == j for j in range(count)] for i in range(count)]
    for pair in pairs:
        try:
            i, j = pair
        except (TypeError, ValueError):
            raise TransferSystemError(
                Violation("subgroup id", {"pair": pair})) from None
        for x in (i, j):
            if type(x) is not int or not 0 <= x < count:
                raise TransferSystemError(
                    Violation("subgroup id", {"id": x, "count": count}))
        m[i][j] = True
    return tuple(tuple(row) for row in m)


def rel_pairs(rel: Rel, nontrivial: bool = True) -> list[tuple[int, int]]:
    return [(i, j) for i, row in enumerate(rel) for j, v in enumerate(row)
            if v and (i != j or not nontrivial)]


def _check_refinement(lat: SubgroupLattice, rel: Rel) -> Optional[Violation]:
    for i, j in rel_pairs(rel, nontrivial=False):
        if not lat.leq[i][j]:
            return Violation("refinement", {"K": i, "H": j})
    return None


def _check_reflexive(rel: Rel) -> Optional[Violation]:
    for i, row in enumerate(rel):
        if not row[i]:
            return Violation("reflexivity", {"K": i})
    return None


def _check_transitive(rel: Rel) -> Optional[Violation]:
    for i, j in rel_pairs(rel, nontrivial=False):
        for k, v in enumerate(rel[j]):
            if v and not rel[i][k]:
                return Violation("transitivity", {"K": i, "J": j, "H": k})
    return None


def _check_axioms(lat: SubgroupLattice, rel: Rel) -> Optional[Violation]:
    bad = _check_reflexive(rel)
    if bad is not None:
        return bad
    for i, j in rel_pairs(rel):
        for g in lat.group.elements():
            if not rel[lat.conj_table[g][i]][lat.conj_table[g][j]]:
                return Violation("conjugation", {"K": i, "H": j, "g": g})
        for l in lat.ids_below(j):
            if not rel[lat.meet_table[l][i]][l]:
                return Violation("restriction", {"K": i, "H": j, "L": l})
    return _check_transitive(rel)


@dataclass(frozen=True)
class TransferSystem:
    """A validated transfer system, stored as its mask of pairs K < H
    (bit ``K * n + H``); equality and hashing use the group and the mask."""

    group: Group
    mask: int
    lattice: SubgroupLattice = field(compare=False, repr=False, hash=False)

    def pairs(self) -> list[tuple[int, int]]:
        """The pairs K < H, in row-major order."""
        n, mask, out = self.lattice.count, self.mask, []
        while mask:
            low = mask & -mask
            mask ^= low
            out.append(divmod(low.bit_length() - 1, n))
        return out

    def has(self, i: int, j: int) -> bool:
        return i == j or bool(self.mask >> (i * self.lattice.count + j) & 1)

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """For each subgroup id H, the mask over the ids K with K -> H,
        H's own bit included."""
        cols = [1 << h for h in range(self.lattice.count)]
        for k, h in self.pairs():
            cols[h] |= 1 << k
        return tuple(cols)

    def refines(self, other: "TransferSystem") -> bool:
        _require_same_group(self, other)
        return not self.mask & ~other.mask

    @property
    def rel(self) -> Rel:
        """The reflexive relation matrix, derived from the mask."""
        n = range(self.lattice.count)
        return tuple(tuple(self.has(i, j) for j in n) for i in n)

    def __repr__(self) -> str:
        return f"TransferSystem({self.group.name}, {self.pairs()})"


def _require_same_group(s: TransferSystem, t: TransferSystem) -> None:
    if s.group != t.group:
        raise TransferSystemError(
            Violation("same group",
                      {"left": repr(s.group), "right": repr(t.group)}))


def _mask_of_pairs(lat: SubgroupLattice,
                   pairs: Iterable[tuple[int, int]]) -> int:
    """Raises a refinement violation at the first pair not K <= H."""
    m = 0
    for i, j in pairs:
        if not lat.leq[i][j]:
            raise TransferSystemError(
                Violation("refinement", {"K": i, "H": j}))
        if i != j:
            m |= 1 << (i * lat.count + j)
    return m


def find_violation(lat: SubgroupLattice, rel: Rel) -> Optional[Violation]:
    return _check_refinement(lat, rel) or _check_axioms(lat, rel)


def validate(lat: SubgroupLattice, rel: Rel) -> TransferSystem:
    """Validate a relation matrix, raising with the first failed axiom."""
    bad = find_violation(lat, rel)
    if bad is not None:
        raise TransferSystemError(bad)
    return TransferSystem(lat.group, _mask_of_pairs(lat, rel_pairs(rel)), lat)


def discrete(G: Group) -> TransferSystem:
    return TransferSystem(G, 0, lattice_of(G))


def complete(G: Group) -> TransferSystem:
    lat = lattice_of(G)
    return TransferSystem(G, _mask_of_pairs(lat, rel_pairs(lat.leq)), lat)


class _Core:
    """What closing a mask of pairs K < H needs to know of one lattice.

    Pair (K, H) is bit ``K * n + H``, its place in the row-major relation
    matrix, so comparing two masks from the lowest bit up compares the
    systems in row-major relation-matrix order.  The diagonal is implicit.
    """

    def __init__(self, lat: SubgroupLattice):
        self.lat = lat
        n = self.n = lat.count
        leq, meet_table = lat.leq, lat.meet_table
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if i != j and leq[i][j]]
        self.ids = [i * n + j for i, j in pairs]
        self.below = [sum(1 << k for k in range(n) if leq[k][j])
                      for j in range(n)]
        into = [sum(1 << (k * n + i) for k in range(i) if leq[k][i])
                for i in range(n)]
        out_of = [sum(1 << (j * n + l) for l in range(j + 1, n) if leq[j][l])
                  for j in range(n)]
        # (K, H) implies by conjugation and restriction exactly the pairs
        # (gKg^-1 n L, L) with L inside gHg^-1: conjugates of restrictions
        # are restrictions of conjugates, so no further round adds any.
        self.step: list = [None] * (n * n)
        for (i, j), p in zip(pairs, self.ids):
            implied = 0
            for ci, cj in {(c[i], c[j]) for c in lat.conj_table}:
                for l in range(cj + 1):
                    k = meet_table[ci][l]
                    if leq[l][cj] and k != l:
                        implied |= 1 << (k * n + l)
            self.step[p] = (implied, into[i], j - i, out_of[j], (j - i) * n)

    def close(self, mask: int, closed: int = 0) -> int:
        """The least transfer system containing a mask and ``closed``, which
        must itself be a transfer system, as a mask.

        Each pair taken off the worklist adds what it implies and its
        composites with the pairs already present, which the in-mask of
        its bottom and the out-mask of its top pick out.  The pairs of
        ``closed`` already hold theirs, so only the rest of the mask is
        worked through.
        """
        step = self.step
        todo = mask & ~closed
        while todo:
            low = todo & -todo
            todo ^= low
            closed |= low
            implied, into, up, out_of, down = step[low.bit_length() - 1]
            new = (implied | (closed & into) << up
                   | (closed & out_of) >> down) & ~closed
            closed |= new
            todo |= new
        return closed

    def interior(self, mask: int) -> int:
        """The largest transfer system inside a mask of pairs: those whose
        implications, the pair itself among them, all lie in it."""
        step, kept, todo = self.step, 0, mask
        while todo:
            low = todo & -todo
            todo ^= low
            if not step[low.bit_length() - 1][0] & ~mask:
                kept |= low
        return kept

    def system(self, mask: int) -> TransferSystem:
        return TransferSystem(self.lat.group, mask, self.lat)


@cache
def _core(lat: SubgroupLattice) -> _Core:
    """Built on first use, not with the lattice."""
    return _Core(lat)


def generate(lat: SubgroupLattice, rel: Rel) -> TransferSystem:
    """Least transfer system containing a relation that refines inclusion."""
    return generate_pairs(lat, rel_pairs(rel))


def generate_pairs(lat: SubgroupLattice,
                   pairs: Iterable[tuple[int, int]]) -> TransferSystem:
    """Least transfer system containing pairs (K, H) with K inside H."""
    core = _core(lat)
    return core.system(core.close(_mask_of_pairs(lat, pairs)))


def generate_columns(lat: SubgroupLattice,
                     columns: Sequence[int]) -> TransferSystem:
    """Least transfer system holding (K, H) for every id K in the mask
    ``columns[H]``, one mask over subgroup ids per id H.  H's own bit is
    dropped; a K outside H raises a refinement violation."""
    core = _core(lat)
    n, below, mask = core.n, core.below, 0
    for h, ks in enumerate(columns):
        if ks & ~below[h]:
            raise TransferSystemError(Violation(
                "refinement",
                {"K": (ks & ~below[h]).bit_length() - 1, "H": h}))
        ks &= ~(1 << h)
        while ks:
            low = ks & -ks
            ks ^= low
            mask |= 1 << ((low.bit_length() - 1) * n + h)
    return core.system(core.close(mask))


def cogenerate(lat: SubgroupLattice, rel: Rel) -> TransferSystem:
    """Largest transfer system contained in a partial order refining inclusion.

    Keeps (K, H) iff everything it implies, the pairs (gKg^-1 n L, L) for
    every g and every L inside gHg^-1, already lies in the input order.
    """
    bad = (_check_refinement(lat, rel) or _check_reflexive(rel)
           or _check_transitive(rel))
    if bad is not None:
        raise TransferSystemError(bad)
    core = _core(lat)
    return core.system(core.interior(_mask_of_pairs(lat, rel_pairs(rel))))


@cache
def _along(src: SubgroupLattice, dst: SubgroupLattice, ids: tuple[int, ...]):
    """How the pairs of ``src`` map to those of ``dst`` along ``ids``, a map
    of subgroup ids that preserves inclusion: the bit of each pair's image
    (0 when both ends land on one subgroup), the mask of the pairs so sent
    onto the diagonal, and the mask of the pairs over each pair bit of
    ``dst`` (its fibre)."""
    n, m = src.count, dst.count
    image, diagonal, fibre = [0] * (n * n), 0, [0] * (m * m)
    for p in _core(src).ids:
        i, j = divmod(p, n)
        if ids[i] == ids[j]:
            diagonal |= 1 << p
        else:
            q = ids[i] * m + ids[j]
            image[p] = 1 << q
            fibre[q] |= 1 << p
    return tuple(image), diagonal, tuple(fibre)


def _gather(table: tuple[int, ...], mask: int) -> int:
    """The OR of ``table[p]`` over the set bits p of a mask."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= table[low.bit_length() - 1]
    return out


def generate_along(t: TransferSystem, ids: tuple[int, ...],
                   lat: SubgroupLattice) -> TransferSystem:
    """Least transfer system on ``lat`` holding (ids[K], ids[H]) for every
    pair K < H of t; ``ids`` maps t's subgroup ids into ``lat``."""
    image, _, _ = _along(t.lattice, lat, ids)
    core = _core(lat)
    return core.system(core.close(_gather(image, t.mask)))


def cogenerate_along(t: TransferSystem, ids: tuple[int, ...],
                     lat: SubgroupLattice) -> TransferSystem:
    """Largest transfer system on ``lat`` inside the pullback of t: the
    pairs K <= H of ``lat`` with (ids[K], ids[H]) in t.  ``ids`` maps the
    subgroup ids of ``lat`` into t's."""
    _, diagonal, fibre = _along(lat, t.lattice, ids)
    core = _core(lat)
    return core.system(core.interior(diagonal | _gather(fibre, t.mask)))


def meet(s: TransferSystem, t: TransferSystem) -> TransferSystem:
    """Greatest lower bound: the intersection, no closure needed."""
    _require_same_group(s, t)
    return TransferSystem(s.group, s.mask & t.mask, s.lattice)


def join(s: TransferSystem, t: TransferSystem) -> TransferSystem:
    """Least upper bound: the closure of the union.  s is already closed,
    so the closure starts from it and works through t's other pairs only."""
    _require_same_group(s, t)
    return TransferSystem(s.group, _core(s.lattice).close(t.mask, s.mask),
                          s.lattice)


def enumerate_transfer_systems(G: Group,
                               budget: int = DEFAULT_BUDGET
                               ) -> tuple[TransferSystem, ...]:
    """All transfer systems on G in canonical (row-major relation-matrix)
    order.

    Transfer systems are the closed sets of `generate`, listed by Fast
    Close-by-One (Outrata and Vychodil, Inf. Sci. 185, 2012).  A system A
    made by adding pair bit j0 tries each bit j above j0 that it lacks,
    from the highest down: B = close(j, A) is a child of A iff it adds no
    bit below j.  A failed B is handed down, and a descendant that lacks
    one of B's bits below j skips j without a closure.  The tree is walked
    in pre-order with an explicit stack, children in descending j, which
    is the lectic order over the pair bits; the bits run in row-major
    matrix order, so that is the row-major relation-matrix order.
    ``budget`` caps the closures computed; a skipped candidate costs none.
    """
    if budget < 0:
        raise ValueError(f"budget must be a non-negative number of "
                         f"closures, got {budget}")
    core = _core(lattice_of(G))
    close, bits = core.close, [1 << p for p in core.ids]
    found = []
    closures = 0
    # nodes (system, index of its lowest candidate bit, failures handed
    # down: per candidate, the bits below it that its closure added); the
    # failures list is shared by siblings, so a node copies it to write
    stack = [(0, 0, [0] * len(bits))]
    while stack:
        current, start, failed = stack.pop()
        found.append(current)
        children, handed = [], failed
        for i in range(len(bits) - 1, start - 1, -1):
            bit = bits[i]
            if current & bit or failed[i] & ~current:
                continue
            if closures >= budget:
                raise BudgetExceededError(
                    f"enumeration budget of {budget} closures spent on "
                    f"{G.name}; systems found so far: {len(found)}",
                    closures, len(found))
            closures += 1
            nxt = close(bit, current)
            added = nxt & (bit - 1) & ~current
            if not added:
                children.append((nxt, i + 1))
            else:
                if handed is failed:
                    handed = failed.copy()
                handed[i] = added
        stack.extend((m, s, handed) for m, s in reversed(children))
    return tuple(core.system(m) for m in found)


def hasse(systems: Sequence[TransferSystem]) -> list[tuple[int, int]]:
    """Cover relation of a family of systems on one group: the sorted index
    pairs (a, b) where a refines b and no member lies strictly between.

    The up-set of a member is a bitmask over the family, the AND of the
    holders of its pairs.  Ranked by pair count, the lowest member of a set
    is minimal in it, so the upper covers of a come out one at a time: the
    lowest member of up(a) - {a}, then drop everything above it.
    """
    if not systems:
        return []
    for t in systems:
        _require_same_group(systems[0], t)
    core = _core(systems[0].lattice)
    masks = [t.mask for t in systems]
    order = sorted(range(len(systems)), key=lambda a: masks[a].bit_count())
    holders = [0] * (core.n * core.n)     # pair bit -> ranks holding it
    for r, a in enumerate(order):
        for p in core.ids:
            if masks[a] >> p & 1:
                holders[p] |= 1 << r
    ups = []
    for a in order:
        up = (1 << len(systems)) - 1
        for p in core.ids:
            if masks[a] >> p & 1:
                up &= holders[p]
        ups.append(up)
    covers = []
    for r, up in enumerate(ups):
        rest = up ^ 1 << r
        while rest:
            c = (rest & -rest).bit_length() - 1
            covers.append((order[r], order[c]))
            rest &= ~ups[c]
    covers.sort()
    return covers


# ---------------------------------------------------------------------------
# wire formats


def ts_to_json(t: TransferSystem) -> dict:
    return {"group": group_to_json(t.group), "pairs": [list(p) for p in t.pairs()]}


def _relation_from_json(data) -> tuple[Group, SubgroupLattice, Rel]:
    G = group_from_json(json_field(data, "group", "transfer system"))
    # "valid" is what `ts validate` adds, so its output reads back
    json_keys(data, ("group", "pairs", "valid"), "transfer system")
    lat = lattice_of(G)
    pairs = json_field(data, "pairs", "transfer system", list)
    rel = rel_from_pairs(lat.count, pairs)
    for i, j in pairs:
        if i == j:
            raise TransferSystemError(Violation("strict pair", {"pair": [i, j]}))
    return G, lat, rel


def rel_from_json(data) -> tuple[SubgroupLattice, Rel]:
    """A {"group", "pairs"} object as its lattice and raw relation matrix,
    unvalidated but for ids and strict pairs (no [i, i])."""
    _, lat, rel = _relation_from_json(data)
    return lat, rel


def ts_from_json(data) -> TransferSystem:
    """A validated system on the group it was read with.  Lattices are
    cached per equal group, and equality ignores the name, so the
    lattice's group may carry the name of another equal group."""
    G, lat, rel = _relation_from_json(data)
    return TransferSystem(G, validate(lat, rel).mask, lat)


def hasse_dot(systems: Sequence[TransferSystem]) -> str:
    """DOT rendering of the lattice; edges point up the refinement order."""
    lines = ["digraph transfer_lattice {", "  rankdir=BT;"]
    for i, t in enumerate(systems):
        label = ",".join(f"{a}<{b}" for a, b in t.pairs()) or "discrete"
        lines.append(f'  n{i} [label="{label}"];')
    for a, b in hasse(systems):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines)
