"""Built-in group and homomorphism catalogs plus the JSON wire formats."""

from __future__ import annotations

import functools
import re
from typing import Optional

from .groups import (
    Group,
    GroupError,
    Homomorphism,
    all_subgroups,
    bang_hom,
    cyclic_group,
    cyclic_hom,
    direct_product,
    identity_hom,
    inclusion_hom,
    klein_four_group,
    make_group,
    symmetric_group,
)

#: Cn, Sn and Dn, by the letter before the number
_NAMED_RE = re.compile(r"([CSD])(\d+)$")
_NAMED_KINDS = {"C": "cyclic", "S": "symmetric", "D": "dihedral"}

#: groups the verification suites range over by default
ACCEPTANCE_GROUPS = ("C4", "C8", "K4", "S3")


def group_by_name(name: str) -> Group:
    """Resolve catalog names: Cn, Sn, Dn (order 2n), K4, and AxB products."""
    name = name.strip()
    if "x" in name:
        parts = name.split("x")
        grp = group_by_name(parts[0])
        for part in parts[1:]:
            grp = direct_product(grp, group_by_name(part))
        return grp
    if name == "K4":
        return klein_four_group()
    m = _NAMED_RE.fullmatch(name)
    if m:
        return make_group(_NAMED_KINDS[m.group(1)], int(m.group(2)))
    raise GroupError(f"unknown group name {name!r}")


def group_to_json(G: Group) -> dict:
    return {"name": G.name, "order": G.order, "mul": [list(row) for row in G.mul]}


def json_field(data, key: str, what: str, kind: Optional[type] = None):
    """``data[key]`` of a wire-format object; a GroupError naming the key
    when the key is missing, the payload is not an object, or the value is
    not of the given type."""
    if not isinstance(data, dict):
        raise GroupError(f"{what} must be a JSON object with key {key!r}, "
                         f"got {type(data).__name__}")
    if key not in data:
        raise GroupError(f"{what} is missing the key {key!r}")
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise GroupError(f"{what} key {key!r} must be a {kind.__name__}, "
                         f"got {type(value).__name__}")
    return value


def json_keys(data: dict, allowed: tuple[str, ...], what: str) -> None:
    """Reject a wire-format object with a key outside ``allowed``."""
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise GroupError(f"{what} has unknown keys {unknown}; "
                         f"it takes {list(allowed)}")


def group_from_json(data) -> Group:
    if isinstance(data, str):
        return group_by_name(data)
    if isinstance(data, dict) and "kind" in data:
        kind = data["kind"]
        takes = ("factors",) if kind == "direct_product" else (
            () if kind == "klein_four" else ("n",))
        json_keys(data, ("kind",) + takes, f"group of kind {kind!r}")
        if kind == "direct_product":
            factors = tuple(group_from_json(f)
                            for f in json_field(data, "factors", "group", list))
            return make_group(kind, factors=factors)
        n = data.get("n")
        if n is not None and type(n) is not int:
            raise GroupError(f"group key 'n' must be an int, got {n!r}")
        return make_group(kind, n)
    rows = json_field(data, "mul", "group", list)
    json_keys(data, ("mul", "name", "order"), "group")
    if not all(isinstance(row, list) for row in rows):
        raise GroupError("group key 'mul' must be a list of rows, each a list")
    name = json_field(data, "name", "group", str) if "name" in data else "G"
    order = data.get("order", len(rows))
    if type(order) is not int or order != len(rows):
        raise GroupError(f"group key 'order' is {order!r}, but 'mul' has "
                         f"{len(rows)} rows")
    return Group(tuple(map(tuple, rows)), name=name)


def hom_from_json(data) -> Homomorphism:
    source = group_from_json(json_field(data, "source", "hom"))
    json_keys(data, ("source", "target", "map"), "hom")
    return Homomorphism(source,
                        group_from_json(json_field(data, "target", "hom")),
                        tuple(json_field(data, "map", "hom", list)))


def _transposition(S3: Group) -> int:
    return next(g for g in S3.elements() if S3.element_order(g) == 2)


def catalog_homs() -> dict[str, Homomorphism]:
    """The named homomorphisms the verification matrix runs on.

    Covers the running examples (C2 into C4 and C8, the quotient C4 -> C2,
    C4 -> S3 sending the generator to a transposition, the collapse maps
    to the trivial group) together with every subgroup inclusion of the
    acceptance groups.  The homs are built once; each call returns a new
    dict of them, which the caller may change.
    """
    return dict(_catalog())


@functools.cache
def _catalog() -> dict[str, Homomorphism]:
    C2 = cyclic_group(2)
    C4 = cyclic_group(4)
    C8 = cyclic_group(8)
    S3 = symmetric_group(3)
    homs: dict[str, Homomorphism] = {
        "C2_into_C4": cyclic_hom(C2, C4, 2),
        "C2_into_C8": cyclic_hom(C2, C8, 4),
        "C4_into_C8": cyclic_hom(C4, C8, 2),
        "C4_onto_C2": cyclic_hom(C4, C2, 1),
        "C8_onto_C4": cyclic_hom(C8, C4, 1),
        "C4_to_S3": cyclic_hom(C4, S3, _transposition(S3)),
    }
    for name in ACCEPTANCE_GROUPS:
        G = group_by_name(name)
        homs[f"id_{name}"] = identity_hom(G)
        homs[f"bang_{name}"] = bang_hom(G)
        for i, H in enumerate(all_subgroups(G)):
            homs[f"{name}_sub{i}_incl"] = inclusion_hom(H)
    homs["bang_C2"] = bang_hom(C2)
    return homs


def catalog_hom(name: str) -> Homomorphism:
    homs = _catalog()
    if name not in homs:
        raise GroupError(f"unknown hom {name!r}; known: {sorted(homs)}")
    return homs[name]

