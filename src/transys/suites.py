"""Named verification suites: each one mechanically re-checks a lattice or
operad identity over the built-in catalog and reports machine-readable
results.  The CLI `verify` command and the CI matrix both run these."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import functors, operads, rewrite, transfer
from .catalog import ACCEPTANCE_GROUPS, catalog_hom, catalog_homs, group_by_name
from .groups import Homomorphism, lattice_of, right_coset_gset
from .transfer import enumerate_transfer_systems

#: composable chains exercised by the functoriality suite
DEFAULT_CHAINS = (
    ("C2_into_C4", "C4_to_S3"),
    ("C2_into_C4", "C4_onto_C2"),
    ("C4_onto_C2", "C2_into_C8"),
    ("C4_onto_C2", "C2_into_C4"),
    ("C4_into_C8", "C8_onto_C4"),
    ("id_C4", "C4_to_S3"),
)

SUITES = (
    "galois",
    "functoriality",
    "injective-collapse",
    "thmA-meet",
    "thmA-join",
    "thmA-tensor",
    "thmB-res",
    "thmB-ind",
    "thmB-coind",
    "rewrite-criteria",
    "double-coset",
    "noninj-ind",
)


@dataclass
class SuiteReport:
    suite: str
    config: dict
    cases: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def absorb(self, law_report, context: Optional[dict] = None) -> None:
        self.cases += law_report.checked
        if not law_report.passed:
            entry = {"law": getattr(law_report, "law", None)
                     or getattr(law_report, "name", "check"),
                     "counterexample": law_report.counterexample}
            if context:
                entry.update(context)
            self.failures.append(entry)

    def to_json(self) -> dict:
        return {"suite": self.suite, "config": self.config,
                "cases": self.cases, "passed": self.passed,
                "failures": self.failures, "notes": self.notes}


def _lattices(f: Homomorphism, budget: int):
    return (enumerate_transfer_systems(f.source, budget),
            enumerate_transfer_systems(f.target, budget))


def _resolve_homs(hom: Optional[str]) -> dict[str, Homomorphism]:
    if hom is not None:
        return {hom: catalog_hom(hom)}
    return catalog_homs()


def suite_galois(hom: Optional[str] = None,
                 budget: int = transfer.DEFAULT_BUDGET) -> SuiteReport:
    report = SuiteReport("galois", {"hom": hom or "catalog"})
    for name, f in _resolve_homs(hom).items():
        src, tgt = _lattices(f, budget)
        report.absorb(functors.check_galois(f, "fL", "finvR", src, tgt),
                      {"hom": name})
        report.absorb(functors.check_galois(f, "finvL", "fR", src, tgt),
                      {"hom": name})
    return report


def suite_functoriality(chains: Sequence[tuple[str, str]] = DEFAULT_CHAINS,
                        budget: int = transfer.DEFAULT_BUDGET) -> SuiteReport:
    report = SuiteReport("functoriality", {"chains": [list(c) for c in chains]})
    for name_h, name_k in chains:
        h, k = catalog_hom(name_h), catalog_hom(name_k)
        systems_G = enumerate_transfer_systems(h.source, budget)
        systems_Gpp = enumerate_transfer_systems(k.target, budget)
        for law in functors.verify_functoriality(h, k, systems_G, systems_Gpp):
            report.absorb(law, {"chain": [name_h, name_k]})
    return report


def suite_injective_collapse(hom: Optional[str] = None,
                             budget: int = transfer.DEFAULT_BUDGET
                             ) -> SuiteReport:
    report = SuiteReport("injective-collapse", {"hom": hom or "catalog"})
    for name, f in _resolve_homs(hom).items():
        systems = enumerate_transfer_systems(f.target, budget)
        report.absorb(functors.check_pointwise_order(f, systems), {"hom": name})
    return report


def suite_thmA_meet(groups: Sequence[str] = ("C4", "K4", "S3")) -> SuiteReport:
    report = SuiteReport("thmA-meet", {"groups": list(groups)})
    for name in groups:
        G = group_by_name(name)
        lat = lattice_of(G)
        xsets = [right_coset_gset(G, H) for H in lat.subgroups]
        for i, X in enumerate(xsets):
            for Y in xsets[i:]:
                report.absorb(operads.coind_as_product_check(X, Y),
                              {"group": name})
    return report


def suite_thmA_join(group: str = "C4",
                    budget: int = transfer.DEFAULT_BUDGET) -> SuiteReport:
    report = SuiteReport("thmA-join", {"group": group})
    G = group_by_name(group)
    systems = enumerate_transfer_systems(G, budget)
    models = [operads.free_model(s) for s in systems]
    for s, S in zip(systems, models):
        for t, T in zip(systems, models):
            report.absorb(operads.coproduct_join_check(S, T),
                          {"group": group, "s": s.pairs(), "t": t.pairs()})
    return report


def suite_thmA_tensor(group: str = "C4",
                      budget: int = transfer.DEFAULT_BUDGET) -> SuiteReport:
    """Join pairs realized by fixed terms whose coproduct- and tensor-mode
    normal forms stay fixed."""
    report = SuiteReport("thmA-tensor", {"group": group})
    G = group_by_name(group)
    systems = enumerate_transfer_systems(G, budget)
    models = [operads.free_model(s) for s in systems]
    for s, S in zip(systems, models):
        for t, T in zip(systems, models):
            factory = rewrite.WitnessFactory(S, T)
            for k_id, h_id in factory.join.pairs():
                for mode in (rewrite.COPRODUCT, rewrite.TENSOR):
                    w = factory.witness(k_id, h_id, mode)
                    report.cases += 1
                    if not w.verified:
                        report.failures.append(
                            {"pair": [k_id, h_id], "mode": mode.kind,
                             "s": s.pairs(), "t": t.pairs(),
                             "witness": rewrite.format_term(w.term)})
    return report


def suite_thmB_res(hom: Optional[str] = None,
                   budget: int = transfer.DEFAULT_BUDGET) -> SuiteReport:
    homs = {hom: catalog_hom(hom)} if hom else {
        "C4_to_S3": catalog_hom("C4_to_S3"),
        "C2_into_C4": catalog_hom("C2_into_C4"),
        "C4_onto_C2": catalog_hom("C4_onto_C2"),
    }
    report = SuiteReport("thmB-res", {"hom": list(homs)})
    for name, f in homs.items():
        systems = enumerate_transfer_systems(f.target, budget)
        report.absorb(operads.theoremB_res_check(f, systems), {"hom": name})
    return report


def suite_thmB_ind(hom: Optional[str] = None,
                   budget: int = transfer.DEFAULT_BUDGET) -> SuiteReport:
    homs = {hom: catalog_hom(hom)} if hom else {
        "C2_into_C4": catalog_hom("C2_into_C4"),
        "C2_into_C8": catalog_hom("C2_into_C8"),
        "C4_into_C8": catalog_hom("C4_into_C8"),
    }
    report = SuiteReport("thmB-ind", {"hom": list(homs)})
    for name, m in homs.items():
        systems = enumerate_transfer_systems(m.source, budget)
        report.absorb(operads.theoremB_ind_check(m, systems), {"hom": name})
    return report


def suite_thmB_coind(group: Optional[str] = None) -> SuiteReport:
    groups = [group] if group else list(ACCEPTANCE_GROUPS)
    report = SuiteReport("thmB-coind", {"groups": groups})
    for name in groups:
        report.absorb(operads.theoremB_coind_check(group_by_name(name)),
                      {"group": name})
    return report


def suite_rewrite_criteria(mode: str = "tensor", seed: int = 0,
                           count: int = 500, max_symbols: int = 12
                           ) -> SuiteReport:
    report = SuiteReport("rewrite-criteria",
                         {"mode": mode, "seed": seed, "count": count,
                          "max_symbols": max_symbols})
    C2 = group_by_name("C2")
    rmode = rewrite.RewriteMode(mode)
    if mode == "tensor":
        top = enumerate_transfer_systems(C2)[-1]
        S = operads.free_model(top)
        pool, _, _ = rewrite.pool_from_free_models(S, S)
        symbols = None
    else:
        pool = rewrite.as_pool(C2, 4 * max_symbols)
        symbols = [s for s in pool.symbols if s.arity <= 3]
    crit = rewrite.check_criteria(pool, rmode, count=count, seed=seed,
                                  max_symbols=max_symbols, symbols=symbols)
    for sub in crit.reports:
        report.absorb(sub, {"mode": mode})
    return report


def suite_double_coset(hom: Optional[str] = None,
                       budget: int = transfer.DEFAULT_BUDGET) -> SuiteReport:
    homs = {hom: catalog_hom(hom)} if hom else {
        "C4_to_S3": catalog_hom("C4_to_S3"),
        "C2_into_C4": catalog_hom("C2_into_C4"),
        "C4_onto_C2": catalog_hom("C4_onto_C2"),
    }
    report = SuiteReport("double-coset", {"hom": list(homs)})
    for name, f in homs.items():
        for t in enumerate_transfer_systems(f.target, budget):
            report.absorb(
                operads.double_coset_check(f, operads.free_model(t)),
                {"hom": name, "t": t.pairs()})
    return report


def suite_noninj_ind(hom: Optional[str] = None) -> SuiteReport:
    homs = {hom: catalog_hom(hom)} if hom else {
        "C4_onto_C2": catalog_hom("C4_onto_C2"),
        "bang_C2": catalog_hom("bang_C2"),
    }
    report = SuiteReport("noninj-ind", {"hom": list(homs)})
    for name, f in homs.items():
        witness = operads.noninjective_induction_counterexample(f)
        report.cases += 1
        report.notes.append({"hom": name, **witness.to_json()})
        if not witness.verified:
            report.failures.append({"hom": name, **witness.to_json()})
    return report


def run_suite(suite: str, *, hom: Optional[str] = None,
              group: Optional[str] = None, mode: str = "tensor",
              seed: int = 0, count: int = 500, window: int = 12,
              budget: int = transfer.DEFAULT_BUDGET) -> SuiteReport:
    if suite == "galois":
        return suite_galois(hom, budget)
    if suite == "functoriality":
        return suite_functoriality(budget=budget)
    if suite == "injective-collapse":
        return suite_injective_collapse(hom, budget)
    if suite == "thmA-meet":
        return suite_thmA_meet((group,) if group else ("C4", "K4", "S3"))
    if suite == "thmA-join":
        return suite_thmA_join(group or "C4", budget)
    if suite == "thmA-tensor":
        return suite_thmA_tensor(group or "C4", budget)
    if suite == "thmB-res":
        return suite_thmB_res(hom, budget)
    if suite == "thmB-ind":
        return suite_thmB_ind(hom, budget)
    if suite == "thmB-coind":
        return suite_thmB_coind(group)
    if suite == "rewrite-criteria":
        return suite_rewrite_criteria(mode, seed, count, max_symbols=window)
    if suite == "double-coset":
        return suite_double_coset(hom, budget)
    if suite == "noninj-ind":
        return suite_noninj_ind(hom)
    raise ValueError(f"unknown suite {suite!r}; known: {SUITES}")
