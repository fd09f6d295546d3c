"""Spans around the public functions of each transys layer, from outside.

The library itself is not instrumented.  `Tracer.install` replaces each
target function in every loaded transys module that binds it (so names
re-imported elsewhere, such as `functors.cogenerate`, are wrapped too and
cross-layer calls nest) and each target method on its class;
`Tracer.uninstall` puts the originals back.  A span is
`[name, start, end, parent index, job id]`; spans stay in memory until the
pass is aggregated.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from time import perf_counter

#: layers that get rows; `suites`, `catalog` and `cli` are orchestration
LAYERS = ("groups", "transfer", "functors", "indexing", "operads", "rewrite")

#: (span name, module, function)
FUNCTION_SPANS = (
    ("groups.hsets", "groups", "hsets_up_to_iso"),
    ("groups.hsets", "groups", "coset_hset"),
    ("groups.hsets", "groups", "right_coset_gset"),
    ("groups.hsets", "groups", "induce_hset"),
    ("transfer.enumerate", "transfer", "enumerate_transfer_systems"),
    ("transfer.hasse", "transfer", "hasse"),
    ("transfer.cogenerate", "transfer", "cogenerate"),
    ("transfer.generate", "transfer", "generate"),
    ("transfer.generate", "transfer", "generate_pairs"),
    ("transfer.join", "transfer", "join"),
    ("transfer.meet", "transfer", "meet"),
    ("functors.fL", "functors", "image_L"),
    ("functors.finvL", "functors", "preimage_L"),
    ("functors.fR", "functors", "image_R"),
    ("functors.finvR", "functors", "preimage_R"),
    ("functors.law", "functors", "check_galois"),
    ("functors.law", "functors", "verify_functoriality"),
    ("functors.law", "functors", "check_pointwise_order"),
    ("indexing.admissible_class", "indexing", "admissible_class_of_transfer"),
    ("indexing.generated", "indexing", "generated_transfer"),
    ("operads.free_model", "operads", "free_model"),
    ("operads.symseq_transfer", "operads", "symseq_transfer"),
    ("operads.checks", "operads", "coproduct_join_check"),
    ("operads.checks", "operads", "double_coset_check"),
    ("rewrite.one_step_reducts", "rewrite", "one_step_reducts"),
    ("rewrite.complexity", "rewrite", "complexity"),
    ("rewrite.reduce_term", "rewrite", "reduce_term"),
    ("rewrite.criteria", "rewrite", "check_criteria"),
    ("rewrite.fuzz", "rewrite", "fuzz_term"),
)

#: (span name, module, class, method)
METHOD_SPANS = (
    ("transfer.refines", "transfer", "TransferSystem", "refines"),
    ("indexing.admits", "indexing", "IndexingSystem", "admits"),
    ("rewrite.witness", "rewrite", "WitnessFactory", "witness"),
    ("rewrite.witness_factory", "rewrite", "WitnessFactory", "__init__"),
)


def _law_cases(result) -> int:
    if isinstance(result, list):          # verify_functoriality
        return sum(r.checked for r in result)
    return result.checked


#: span name -> (counter name, amount read from the call's result)
RESULT_COUNTERS = {
    "transfer.enumerate": ("transfer.enumerate.systems", len),
    "transfer.hasse": ("transfer.hasse.covers", len),
    "functors.law": ("functors.law_cases", _law_cases),
    "rewrite.reduce_term": ("rewrite.reduce_term.steps", lambda r: len(r[1])),
    "rewrite.criteria": ("rewrite.join_pairs", lambda r: r.reports[0].checked),
}


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules            # short name -> transys module
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.counters: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        counted = RESULT_COUNTERS.get(name)
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0,
                    stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if counted is not None:
                counters[counted[0]] += counted[1](result)
            return result

        return traced

    def _count_gset_builds(self, post_init):
        counters = self.counters

        def counted(obj):
            counters["groups.gset_builds"] += 1
            return post_init(obj)

        return counted

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = list(self.modules.values())
        for name, mod_name, attr in FUNCTION_SPANS:
            original = getattr(self.modules[mod_name], attr)
            wrapper = self._wrap(name, original)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
        for name, mod_name, cls_name, attr in METHOD_SPANS:
            cls = getattr(self.modules[mod_name], cls_name)
            self._replace(cls, attr, self._wrap(name, vars(cls)[attr]))
        gset = self.modules["groups"].FiniteGSet
        self._replace(gset, "__post_init__",
                      self._count_gset_builds(vars(gset)["__post_init__"]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counters = self.spans[:], dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def aggregate(spans: list[list]) -> dict:
    """Per span name: calls and self seconds; plus the layer totals, the
    time covered by root spans and the two wasted-work tallies."""
    n = len(spans)
    child = [0.0] * n
    in_reduce = [False] * n
    in_law = [False] * n
    rows: dict[str, list] = defaultdict(lambda: [0, 0.0])
    rooted = 0.0
    free_reducts = 0
    law_applications = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        if parent < 0:
            rooted += dur
        else:
            child[parent] += dur
            pname = spans[parent][0]
            in_reduce[i] = in_reduce[parent] or pname == "rewrite.reduce_term"
            in_law[i] = in_law[parent] or pname == "functors.law"
        if name == "rewrite.one_step_reducts" and not in_reduce[i]:
            free_reducts += 1
        if in_law[i] and name in ("functors.fL", "functors.finvL",
                                  "functors.fR", "functors.finvR"):
            law_applications += 1
    for i, (name, start, end, _, _) in enumerate(spans):
        row = rows[name]
        row[0] += 1
        row[1] += end - start - child[i]
    layers = {layer: 0.0 for layer in LAYERS}
    for name, (_, self_s) in rows.items():
        layers[name.split(".", 1)[0]] += self_s
    return {"rows": dict(rows), "layers": layers, "rooted_s": rooted,
            "free_reducts": free_reducts,
            "law_applications": law_applications}


def write_spans(path, spans: list[list]) -> None:
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt") as out:
        for name, start, end, parent, job in spans:
            out.write(json.dumps([name, start, end, parent, job]) + "\n")
