"""Command-line interface: catalog lookups, transfer-system computations,
change-of-group functors, and the theorem verification suites.

Exit codes: 0 success, 1 check failed or invalid input, 2 budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import suites
from .catalog import (
    catalog_hom,
    catalog_homs,
    group_by_name,
    group_to_json,
    hom_from_json,
)
from .functors import apply_functor
from .groups import Group, GroupError, all_subgroups, lattice_of
from .transfer import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    TransferSystemError,
    enumerate_transfer_systems,
    generate,
    cogenerate,
    hasse_dot,
    join,
    meet,
    rel_from_json,
    ts_from_json,
    ts_to_json,
    validate,
)

PASS, FAIL, BUDGET = 0, 1, 2

BUDGET_HELP = ("closures each transfer-system enumeration may compute "
               "(default %(default)s); exit 2 once spent")


def _read_json(path: Optional[str], arg: str = "input"):
    if path is None:
        raise ValueError(f"missing the JSON file argument {arg!r}")
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _group_arg(args) -> Group:
    if args.group is None:
        raise ValueError(f"{args.command} {args.action} needs --group")
    return group_by_name(args.group)


def _emit(data) -> None:
    json.dump(data, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def cmd_group(args) -> int:
    if args.action == "list":
        _emit({"patterns": ["Cn (n <= 24)", "Sn (n <= 4)",
                            "Dn (order 2n <= 24)", "K4", "AxB products"],
               "homs": sorted(catalog_homs())})
        return PASS
    G = _group_arg(args)
    if args.action == "show":
        _emit(group_to_json(G))
        return PASS
    if args.action == "subgroups":
        subs = all_subgroups(G)
        _emit({"group": G.name,
               "subgroups": [{"id": i, "order": s.order,
                              "members": list(s.members)}
                             for i, s in enumerate(subs)]})
        return PASS
    raise GroupError(f"unknown group action {args.action!r}")


def cmd_ts(args) -> int:
    if args.action == "enumerate":
        G = _group_arg(args)
        systems = enumerate_transfer_systems(G, args.budget)
        if args.dot:
            sys.stdout.write(hasse_dot(systems) + "\n")
        else:
            _emit({"group": G.name, "count": len(systems),
                   "systems": [[list(p) for p in t.pairs()] for t in systems]})
        return PASS
    if args.action == "validate":
        lat, rel = rel_from_json(_read_json(args.input))
        try:
            t = validate(lat, rel)
        except TransferSystemError as err:
            _emit({"valid": False, "violation": {
                "axiom": err.violation.kind, "witness": err.violation.witness}})
            return FAIL
        _emit({"valid": True, **ts_to_json(t)})
        return PASS
    if args.action == "generate":
        lat, rel = rel_from_json(_read_json(args.input))
        _emit(ts_to_json(generate(lat, rel)))
        return PASS
    if args.action == "cogenerate":
        lat, rel = rel_from_json(_read_json(args.input))
        _emit(ts_to_json(cogenerate(lat, rel)))
        return PASS
    if args.action in ("meet", "join"):
        a = ts_from_json(_read_json(args.input))
        b = ts_from_json(_read_json(args.other, "other"))
        op = meet if args.action == "meet" else join
        _emit(ts_to_json(op(a, b)))
        return PASS
    raise GroupError(f"unknown ts action {args.action!r}")


def cmd_functor(args) -> int:
    if args.hom_file:
        f = hom_from_json(_read_json(args.hom_file))
    elif args.hom is None:
        raise ValueError("functor apply needs --hom or --hom-file")
    else:
        f = catalog_hom(args.hom)
    side = f.source if args.kind in ("fL", "fR") else f.target
    # lattices are cached per equal group: build the side's first, so that
    # an equal group read from the input maps onto it and does not lend
    # its name to the output
    lattice_of(side)
    lat, rel = rel_from_json(_read_json(args.input or "-"))
    if lat.group != side:
        raise GroupError(
            f"{args.kind} reads a transfer system on {side.name} "
            f"(order {side.order}), but the input is on {lat.group.name} "
            f"(order {lat.group.order})")
    t = validate(lat, rel)
    if args.kind == "fL" and not f.is_injective:
        sys.stderr.write(
            "warning: fL along a noninjective map is a lattice-level "
            "construction only; no operadic induction realizes it\n")
    _emit(ts_to_json(apply_functor(args.kind, f, t)))
    return PASS


def cmd_verify(args) -> int:
    options = {k: v for k, v in vars(args).items()
               if k not in ("command", "run", "suite")}
    try:
        report = suites.run_suite(args.suite, **options)
    except BudgetExceededError as err:
        _emit({"suite": args.suite, "outcome": "budget-exceeded",
               "detail": str(err)})
        return BUDGET
    payload = report.to_json()
    payload["seed"] = args.seed
    _emit(payload)
    return PASS if report.passed else FAIL


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (invalid input), leaving 2 to a spent budget."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(FAIL, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="transys",
        description="transfer systems, change-of-group functors, and "
                    "operadic verification on finite groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="catalog groups")
    p_group.add_argument("action", choices=["list", "show", "subgroups"])
    p_group.add_argument("--group", help="catalog name, e.g. C4, K4, S3")
    p_group.set_defaults(run=cmd_group)

    p_ts = sub.add_parser("ts", help="transfer-system computations")
    p_ts.add_argument("action", choices=["enumerate", "validate", "generate",
                                         "cogenerate", "meet", "join"])
    p_ts.add_argument("input", nargs="?", help="JSON file ('-' for stdin)")
    p_ts.add_argument("other", nargs="?", help="second JSON file for meet/join")
    p_ts.add_argument("--group", help="group name for enumerate")
    p_ts.add_argument("--dot", action="store_true",
                      help="emit the Hasse diagram as DOT")
    p_ts.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                      help=BUDGET_HELP)
    p_ts.set_defaults(run=cmd_ts)

    p_fun = sub.add_parser("functor", help="apply a change-of-group functor")
    p_fun.add_argument("action", choices=["apply"])
    p_fun.add_argument("--kind", required=True,
                       choices=["fL", "finvL", "fR", "finvR"])
    p_fun.add_argument("--hom", help="catalog hom name")
    p_fun.add_argument("--hom-file", help="hom JSON file")
    p_fun.add_argument("--input", help="transfer-system JSON file")
    p_fun.set_defaults(run=cmd_functor)

    # an option left out is absent from the parsed arguments, so the suite
    # falls back on its own default
    p_ver = sub.add_parser("verify", help="run a verification suite",
                           argument_default=argparse.SUPPRESS)
    p_ver.add_argument("suite", choices=list(suites.SUITES))
    p_ver.add_argument("--hom", help="restrict to one catalog hom")
    p_ver.add_argument("--group", help="restrict to one catalog group")
    p_ver.add_argument("--mode", choices=["tensor", "coproduct"],
                       help="rewrite mode for rewrite-criteria")
    # every report echoes the seed, whichever suite it comes from
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--count", type=int,
                       help="fuzz count for rewrite-criteria")
    p_ver.add_argument("--window", type=int,
                       help="fuzz term-size window (max_symbols) for "
                            "rewrite-criteria")
    p_ver.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help=BUDGET_HELP)
    p_ver.set_defaults(run=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except BudgetExceededError as err:
        sys.stderr.write(f"budget exceeded: {err}\n")
        return BUDGET
    except (GroupError, TransferSystemError, ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return FAIL


if __name__ == "__main__":
    raise SystemExit(main())
