"""Named verification suites: each one mechanically re-checks a lattice or
operad identity over the built-in catalog and reports machine-readable
results.  The CLI `verify` command runs these, and the tests pin each
suite's report at its defaults."""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from . import functors, operads, rewrite, transfer
from .catalog import ACCEPTANCE_GROUPS, catalog_hom, catalog_homs, group_by_name
from .groups import Homomorphism, lattice_of, right_coset_gset
from .transfer import enumerate_transfer_systems

#: composable chains exercised by the functoriality suite
CHAINS = (
    ("C2_into_C4", "C4_to_S3"),
    ("C2_into_C4", "C4_onto_C2"),
    ("C4_onto_C2", "C2_into_C8"),
    ("C4_onto_C2", "C2_into_C4"),
    ("C4_into_C8", "C8_onto_C4"),
    ("id_C4", "C4_to_S3"),
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

    def absorb(self, law_report,
               context: Union[dict, Callable[[], dict], None] = None) -> None:
        """Count a report's cases and record it if it failed; a callable
        context is built only then."""
        self.cases += law_report.checked
        if not law_report.passed:
            entry = {"law": getattr(law_report, "law", None)
                     or getattr(law_report, "name", "check"),
                     "counterexample": law_report.counterexample}
            if callable(context):
                context = context()
            if context:
                entry.update(context)
            self.failures.append(entry)

    def to_json(self) -> dict:
        return {"suite": self.suite, "config": self.config,
                "cases": self.cases, "passed": self.passed,
                "failures": self.failures, "notes": self.notes}


def _homs(hom: Optional[str], defaults: Optional[Sequence[str]] = None
          ) -> dict[str, Homomorphism]:
    """The catalog hom named `hom`; without one, those named in `defaults`,
    or the whole catalog."""
    if hom is not None:
        return {hom: catalog_hom(hom)}
    homs = catalog_homs()
    return homs if defaults is None else {name: homs[name] for name in defaults}


def _model_pairs(group: str, budget: int):
    """(s, S, t, T) for every ordered pair of transfer systems s, t on
    `group`, with S and T their free models."""
    systems = enumerate_transfer_systems(group_by_name(group), budget)
    models = [operads.free_model(s) for s in systems]
    for s, S in zip(systems, models):
        for t, T in zip(systems, models):
            yield s, S, t, T


def suite_galois(hom: Optional[str] = None,
                 budget: int = transfer.DEFAULT_BUDGET) -> SuiteReport:
    report = SuiteReport("galois", {"hom": hom or "catalog"})
    for name, f in _homs(hom).items():
        src = enumerate_transfer_systems(f.source, budget)
        tgt = enumerate_transfer_systems(f.target, budget)
        report.absorb(functors.check_galois(f, "fL", "finvR", src, tgt),
                      {"hom": name})
        report.absorb(functors.check_galois(f, "finvL", "fR", src, tgt),
                      {"hom": name})
    return report


def suite_functoriality(budget: int = transfer.DEFAULT_BUDGET) -> SuiteReport:
    report = SuiteReport("functoriality", {"chains": [list(c) for c in CHAINS]})
    for name_h, name_k in CHAINS:
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
    for name, f in _homs(hom).items():
        systems = enumerate_transfer_systems(f.target, budget)
        report.absorb(functors.check_pointwise_order(f, systems), {"hom": name})
    return report


def suite_thmA_meet(group: Optional[str] = None) -> SuiteReport:
    groups = [group] if group is not None else ["C4", "K4", "S3"]
    report = SuiteReport("thmA-meet", {"groups": groups})
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
    for s, S, t, T in _model_pairs(group, budget):
        report.absorb(operads.coproduct_join_check(S, T),
                      lambda: {"group": group, "s": s.pairs(), "t": t.pairs()})
    return report


def suite_thmA_tensor(group: str = "C4",
                      budget: int = transfer.DEFAULT_BUDGET) -> SuiteReport:
    """Join pairs realized by fixed terms whose coproduct- and tensor-mode
    normal forms stay fixed, two cases per pair of s v t.  The X table
    serves the pairs of s and the Y table those of t - s.  When their
    verified masks cover those pairs in both modes, only the pairs outside
    s u t are walked; otherwise every pair is, deciding the verdicts."""
    report = SuiteReport("thmA-tensor", {"group": group})
    for s, S, t, T in _model_pairs(group, budget):
        j = transfer.join(s, t)
        report.cases += 2 * j.mask.bit_count()
        x = rewrite.factor_part(S, "X").table.masks
        y = rewrite.factor_part(T, "Y").table.masks
        passed = 0 if any(s.mask & ~x[kind] | t.mask & ~s.mask & ~y[kind]
                          for kind in x) else s.mask | t.mask
        if not j.mask & ~passed:
            continue
        factory = rewrite.WitnessFactory(S, T)
        for k_id, h_id in factory.join.pairs():
            if passed >> (k_id * s.lattice.count + h_id) & 1:
                continue
            for mode in (rewrite.COPRODUCT, rewrite.TENSOR):
                w = factory.witness(k_id, h_id, mode)
                if not w.verified:
                    report.failures.append(
                        {"pair": [k_id, h_id], "mode": mode.kind,
                         "s": s.pairs(), "t": t.pairs(),
                         "witness": rewrite.format_term(w.term)})
    return report


def suite_thmB_res(hom: Optional[str] = None,
                   budget: int = transfer.DEFAULT_BUDGET) -> SuiteReport:
    homs = _homs(hom, ("C4_to_S3", "C2_into_C4", "C4_onto_C2"))
    report = SuiteReport("thmB-res", {"hom": list(homs)})
    for name, f in homs.items():
        systems = enumerate_transfer_systems(f.target, budget)
        report.absorb(operads.theoremB_res_check(f, systems), {"hom": name})
    return report


def suite_thmB_ind(hom: Optional[str] = None,
                   budget: int = transfer.DEFAULT_BUDGET) -> SuiteReport:
    homs = _homs(hom, ("C2_into_C4", "C2_into_C8", "C4_into_C8"))
    report = SuiteReport("thmB-ind", {"hom": list(homs)})
    for name, m in homs.items():
        systems = enumerate_transfer_systems(m.source, budget)
        report.absorb(operads.theoremB_ind_check(m, systems), {"hom": name})
    return report


def suite_thmB_coind(group: Optional[str] = None) -> SuiteReport:
    groups = [group] if group is not None else list(ACCEPTANCE_GROUPS)
    report = SuiteReport("thmB-coind", {"groups": groups})
    for name in groups:
        report.absorb(operads.theoremB_coind_check(group_by_name(name)),
                      {"group": name})
    return report


def suite_rewrite_criteria(mode: str = "tensor", seed: int = 0,
                           count: int = 500, window: int = 12) -> SuiteReport:
    """Fuzzed local confluence and termination; `window` bounds the size
    (`max_symbols`) of each fuzzed term."""
    report = SuiteReport("rewrite-criteria",
                         {"mode": mode, "seed": seed, "count": count,
                          "max_symbols": window})
    C2 = group_by_name("C2")
    rmode = rewrite.RewriteMode(mode)
    if mode == "tensor":
        top = enumerate_transfer_systems(C2)[-1]
        S = operads.free_model(top)
        pool, _, _ = rewrite.pool_from_free_models(S, S)
        symbols = None
    else:
        pool = rewrite.as_pool(C2, 4 * window)
        symbols = [s for s in pool.symbols if s.arity <= 3]
    crit = rewrite.check_criteria(pool, rmode, count=count, seed=seed,
                                  max_symbols=window, symbols=symbols)
    for sub in crit.reports:
        report.absorb(sub, {"mode": mode})
    return report


def suite_double_coset(hom: Optional[str] = None,
                       budget: int = transfer.DEFAULT_BUDGET) -> SuiteReport:
    homs = _homs(hom, ("C4_to_S3", "C2_into_C4", "C4_onto_C2"))
    report = SuiteReport("double-coset", {"hom": list(homs)})
    for name, f in homs.items():
        for t in enumerate_transfer_systems(f.target, budget):
            report.absorb(
                operads.double_coset_check(f, operads.free_model(t)),
                lambda: {"hom": name, "t": t.pairs()})
    return report


def suite_noninj_ind(hom: Optional[str] = None) -> SuiteReport:
    homs = _homs(hom, ("C4_onto_C2", "bang_C2"))
    report = SuiteReport("noninj-ind", {"hom": list(homs)})
    for name, f in homs.items():
        witness = operads.noninjective_induction_counterexample(f)
        report.cases += 1
        report.notes.append({"hom": name, **witness.to_json()})
        if not witness.verified:
            report.failures.append({"hom": name, **witness.to_json()})
    return report


#: `transys verify` name -> suite, in the order the CLI lists them
SUITES = {
    "galois": suite_galois,
    "functoriality": suite_functoriality,
    "injective-collapse": suite_injective_collapse,
    "thmA-meet": suite_thmA_meet,
    "thmA-join": suite_thmA_join,
    "thmA-tensor": suite_thmA_tensor,
    "thmB-res": suite_thmB_res,
    "thmB-ind": suite_thmB_ind,
    "thmB-coind": suite_thmB_coind,
    "rewrite-criteria": suite_rewrite_criteria,
    "double-coset": suite_double_coset,
    "noninj-ind": suite_noninj_ind,
}


def run_suite(suite: str, **options) -> SuiteReport:
    """Run `suite` on `options`.  A `seed` or `budget` its function does
    not name is dropped, since every report echoes the seed and `verify`
    always passes a budget; any other option it does not name is an
    error, not a silent run of the defaults."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; known: {tuple(SUITES)}")
    run = SUITES[suite]
    names = inspect.signature(run).parameters
    extra = [f"--{k}" for k in options
             if k not in names and k not in ("seed", "budget")]
    if extra:
        raise ValueError(f"verify {suite} takes no {', '.join(extra)}")
    return run(**{k: v for k, v in options.items() if k in names})
