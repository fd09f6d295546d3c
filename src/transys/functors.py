"""Image and inverse-image functors on transfer systems along a homomorphism.

Four constructions for f : G -> G': the left images/preimages generate
along the subgroup image or preimage ids, the right ones cogenerate along
the other map (`transfer.generate_along`, `transfer.cogenerate_along`).
Their adjointness and functoriality are verified by the report operations
below rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .groups import GroupError, Homomorphism, compose_homs, lattice_of
from .transfer import TransferSystem, cogenerate_along, generate_along

KINDS = ("fL", "finvL", "fR", "finvR")


def image_L(f: Homomorphism, t: TransferSystem) -> TransferSystem:
    """f_L: the least transfer system on the target holding every (fK, fH)."""
    if t.group != f.source:
        raise GroupError("transfer system lives on the wrong group for f_L")
    return generate_along(t, f.image_ids, lattice_of(f.target))


def preimage_L(f: Homomorphism, t: TransferSystem) -> TransferSystem:
    """f^-1_L: the least transfer system on the source holding every
    (f^-1 K, f^-1 H)."""
    if t.group != f.target:
        raise GroupError("transfer system lives on the wrong group for f^-1_L")
    return generate_along(t, f.preimage_ids, lattice_of(f.source))


def image_R(f: Homomorphism, t: TransferSystem) -> TransferSystem:
    """f_R: cogeneration of the relation pulled back along subgroup preimage."""
    if t.group != f.source:
        raise GroupError("transfer system lives on the wrong group for f_R")
    return cogenerate_along(t, f.preimage_ids, lattice_of(f.target))


def preimage_R(f: Homomorphism, t: TransferSystem) -> TransferSystem:
    """f^-1_R: cogeneration of the relation pulled back along subgroup image."""
    if t.group != f.target:
        raise GroupError("transfer system lives on the wrong group for f^-1_R")
    return cogenerate_along(t, f.image_ids, lattice_of(f.source))


def apply_functor(kind: str, f: Homomorphism, t: TransferSystem) -> TransferSystem:
    if kind == "fL":
        return image_L(f, t)
    if kind == "finvL":
        return preimage_L(f, t)
    if kind == "fR":
        return image_R(f, t)
    if kind == "finvR":
        return preimage_R(f, t)
    raise GroupError(f"unknown functor kind {kind!r}; expected one of {KINDS}")


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class LawReport:
    law: str
    checked: int
    counterexample: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


GALOIS_PAIRINGS = {("fL", "finvR"), ("finvL", "fR")}

_FORWARD = {"fL", "fR"}        # Tr(source) -> Tr(target)


def check_galois(f: Homomorphism, lower: str, upper: str,
                 source_systems: Sequence[TransferSystem],
                 target_systems: Sequence[TransferSystem]) -> LawReport:
    """Verify lower(x) <= y iff x <= upper(y) over the two full lattices.

    For (fL, finvR) the lower map goes Tr(source) -> Tr(target); for
    (finvL, fR) it goes the other way, so the roles of the two lattices
    swap accordingly.  Pairings outside GALOIS_PAIRINGS are rejected.
    Each adjoint is applied once per system: upper before the loop, lower
    once per x.
    """
    if (lower, upper) not in GALOIS_PAIRINGS:
        raise GroupError(
            f"({lower}, {upper}) is not an adjoint pairing; "
            f"expected one of {sorted(GALOIS_PAIRINGS)}")
    if lower in _FORWARD:
        xs, ys = source_systems, target_systems
    else:
        xs, ys = target_systems, source_systems
    uppers = [apply_functor(upper, f, y) for y in ys]
    checked = 0
    for x in xs:
        lx = apply_functor(lower, f, x)
        for y, uy in zip(ys, uppers):
            checked += 1
            if lx.refines(y) != x.refines(uy):
                return LawReport(
                    f"{lower} -| {upper}", checked,
                    {"x": x.pairs(), "y": y.pairs(),
                     "lower(x)": lx.pairs(), "upper(y)": uy.pairs()})
    return LawReport(f"{lower} -| {upper}", checked)


def verify_functoriality(h: Homomorphism, k: Homomorphism,
                         systems_G: Sequence[TransferSystem],
                         systems_Gpp: Sequence[TransferSystem]) -> list[LawReport]:
    """The four composite equalities for a chain G -h-> G' -k-> G''."""
    if h.target != k.source:
        raise GroupError("homomorphisms are not composable")
    kh = compose_homs(k, h)
    reports = []
    for law, functor, direct, systems in (
            ("(kh)_L = k_L h_L", lambda t: image_L(k, image_L(h, t)),
             lambda t: image_L(kh, t), systems_G),
            ("(kh)_R = k_R h_R", lambda t: image_R(k, image_R(h, t)),
             lambda t: image_R(kh, t), systems_G),
            ("(kh)^-1_L = h^-1_L k^-1_L",
             lambda t: preimage_L(h, preimage_L(k, t)),
             lambda t: preimage_L(kh, t), systems_Gpp),
            ("(kh)^-1_R = h^-1_R k^-1_R",
             lambda t: preimage_R(h, preimage_R(k, t)),
             lambda t: preimage_R(kh, t), systems_Gpp)):
        counter = None
        checked = 0
        for t in systems:
            checked += 1
            if functor(t) != direct(t):
                counter = {"t": t.pairs(),
                           "composite": functor(t).pairs(),
                           "direct": direct(t).pairs()}
                break
        reports.append(LawReport(law, checked, counter))
    return reports


def check_pointwise_order(f: Homomorphism,
                          target_systems: Sequence[TransferSystem]) -> LawReport:
    """f^-1_L <= f^-1_R pointwise; strict with witness (1, ker f) when f
    is not injective."""
    lat_src = lattice_of(f.source)
    ker_id = lat_src.id_of(f.kernel())
    checked = 0
    for t in target_systems:
        left = preimage_L(f, t)
        right = preimage_R(f, t)
        checked += 1
        if not left.refines(right):
            return LawReport("finvL <= finvR", checked,
                             {"t": t.pairs(), "left": left.pairs(),
                              "right": right.pairs()})
        if f.is_injective:
            if left != right:
                return LawReport("injective collapse", checked,
                                 {"t": t.pairs(), "left": left.pairs(),
                                  "right": right.pairs()})
        else:
            strict = (right.has(lat_src.trivial_id, ker_id)
                      and not left.has(lat_src.trivial_id, ker_id))
            if not strict:
                return LawReport("strict containment witness (1, ker f)",
                                 checked,
                                 {"t": t.pairs(), "left": left.pairs(),
                                  "right": right.pairs(),
                                  "kernel": ker_id})
    law = "finvL = finvR (injective)" if f.is_injective \
        else "finvL < finvR with witness (1, ker f)"
    return LawReport(law, checked)
