"""The four workloads.  Each one drives one transys module through its
public functions.

`setup(mods, smoke)` builds what the library needs before the first job
(lattices, homs, pools) and is timed as `setup_s`.  `jobs(mods, state,
seed, smoke)` turns the seed into the fixed job list; it is not timed.  A job is
`(job id, fn)` and `fn(check)` records each verified answer through
`check(ok, what)`.  The list is made of chains: the jobs of one chain run in
order, and the runner shuffles the chains afresh for every pass.
"""

from __future__ import annotations

import random

from reference import LATTICE_GROUPS, TRANSFER_COUNTS


def expect_count(check, name: str, systems, covers=None) -> None:
    ref = TRANSFER_COUNTS.get(name)
    if ref is None:
        return
    check(len(systems) == ref[0],
          f"{name}: {len(systems)} systems, reference {ref[0]}")
    if covers is not None and ref[1] is not None:
        check(len(covers) == ref[1],
              f"{name}: {len(covers)} covers, reference {ref[1]}")


# ---------------------------------------------------------------------------
# lattice: transfer search (enumerate) and the cubic cover scan (hasse)


class Lattice:
    name = "lattice"

    def setup(self, mods, smoke):
        names = LATTICE_GROUPS[:4] if smoke else LATTICE_GROUPS
        groups = {n: mods["catalog"].group_by_name(n) for n in names}
        for G in groups.values():
            mods["groups"].lattice_of(G)
        return groups

    def jobs(self, mods, groups, seed, smoke):
        transfer = mods["transfer"]
        found = {}
        out = []
        for name in sorted(groups):
            G = groups[name]

            def enum(check, name=name, G=G):
                found[name] = transfer.enumerate_transfer_systems(G)
                expect_count(check, name, found[name])

            def cover(check, name=name):
                covers = transfer.hasse(found[name])
                expect_count(check, name, found[name], covers)

            out.append([(f"enumerate {name}", enum), (f"hasse {name}", cover)])
        return out


# ---------------------------------------------------------------------------
# functors: the Galois, functoriality and injective-collapse law checks


#: extra homs into or out of larger groups, with the law checks run on
#: each.  The omitted checks take seconds each at the seed (e.g. the
#: (finvL, fR) Galois check along C4 -> D4 takes ~1 s, both Galois checks
#: along C24 -> C12 take 12-33 s).
EXTRA_HOM_LAWS = {
    "C2_into_D4": ("galois fL-finvR", "galois finvL-fR", "pointwise"),
    "C4_into_D4": ("galois fL-finvR", "pointwise"),
    "1_into_C24": ("galois fL-finvR", "galois finvL-fR", "pointwise"),
    "bang_D4": ("galois fL-finvR", "galois finvL-fR", "pointwise"),
    "bang_C24": ("galois finvL-fR", "pointwise"),
    "C24_onto_C12": ("pointwise",),
    "C6_into_C12": ("galois fL-finvR", "galois finvL-fR", "pointwise"),
}

CHAINS = (
    ("C2_into_C4", "C4_to_S3"),
    ("C2_into_C4", "C4_onto_C2"),
    ("C4_onto_C2", "C2_into_C8"),
    ("C4_onto_C2", "C2_into_C4"),
    ("C4_into_C8", "C8_onto_C4"),
    ("id_C4", "C4_to_S3"),
    ("C2_into_C4", "C4_into_D4"),
)


class Functors:
    name = "functors"

    def setup(self, mods, smoke):
        catalog, groups = mods["catalog"], mods["groups"]
        homs = catalog.catalog_homs()
        laws = {name: ("galois fL-finvR", "galois finvL-fR", "pointwise")
                for name in homs}
        if not smoke:
            G = catalog.group_by_name
            D4, C24, C12 = G("D4"), G("C24"), G("C12")
            subs = groups.all_subgroups(D4)
            c2 = next(H for H in subs if H.order == 2)
            c4 = next(H for H in subs if H.order == 4
                      and any(D4.element_order(g) == 4 for g in H.members))
            homs.update({
                "C2_into_D4": groups.inclusion_hom(c2),
                "C4_into_D4": groups.inclusion_hom(c4),
                "1_into_C24": groups.inclusion_hom(groups.trivial_subgroup(C24)),
                "bang_D4": groups.bang_hom(D4),
                "bang_C24": groups.bang_hom(C24),
                "C24_onto_C12": groups.cyclic_hom(C24, C12, 1),
                "C6_into_C12": groups.cyclic_hom(G("C6"), C12, 2),
            })
            laws.update(EXTRA_HOM_LAWS)
        systems = {}
        for f in homs.values():
            for H in (f.source, f.target):
                if H not in systems:
                    systems[H] = mods["transfer"].enumerate_transfer_systems(H)
        return homs, laws, systems

    def jobs(self, mods, state, seed, smoke):
        homs, laws, systems = state
        functors = mods["functors"]
        out = []
        for name, kinds in laws.items():
            f = homs[name]
            for kind in kinds:
                def law(check, f=f, kind=kind, name=name):
                    src, tgt = systems[f.source], systems[f.target]
                    if kind == "pointwise":
                        reports = [functors.check_pointwise_order(f, tgt)]
                    else:
                        lower, upper = kind.split()[1].split("-")
                        reports = [functors.check_galois(f, lower, upper,
                                                         src, tgt)]
                    for r in reports:
                        check(r.passed, f"{kind} on {name}: {r.counterexample}")
                out.append([(f"{kind} {name}", law)])
        for name_h, name_k in (CHAINS[:2] if smoke else CHAINS):
            h, k = homs[name_h], homs[name_k]

            def chain(check, h=h, k=k, label=f"{name_h} {name_k}"):
                for r in functors.verify_functoriality(
                        h, k, systems[h.source], systems[k.target]):
                    check(r.passed, f"{r.law} on {label}: {r.counterexample}")
            out.append([(f"functoriality {name_h} {name_k}", chain)])
        return out


# ---------------------------------------------------------------------------
# rewrite: fuzzed criteria checks and strategy independence


MAX_SYMBOLS = 12
RANDOM_STRATEGY_SEEDS = 3

#: Terms per symbol count 0..12, per mode.  The seeded fuzz stream is
#: filtered to these quotas so that every seed has the same size profile:
#: joinability cost grows ~1.7x per symbol, and unstratified streams of a
#: few hundred terms differ by >20% in total work from seed to seed.
#: Coproduct terms stop at 8 symbols (~16 ms each at the seed commit).
#: From 9 to 12 symbols they take 30-400 ms each, varying ~40% within one
#: size, so a few of them would decide the total on their own.  Most terms
#: have 5-8 symbols (2-5 ms per job at the seed commit), so that the median
#: job falls where jobs are dense and moves little from seed to seed; 60
#: coproduct terms of 8 symbols do the same for the tail.  A pass takes
#: ~2 s at the seed commit, so that every job is timed ~10 times in a 24 s
#: run.
QUOTAS = {
    "tensor": (8, 8, 8, 10, 15, 25, 30, 30, 25, 20, 15, 12, 10),
    "coproduct": (8, 8, 8, 10, 15, 25, 30, 30, 60, 0, 0, 0, 0),
}
SMOKE_QUOTAS = {"tensor": (1, 1, 1) + (0,) * 10,
                "coproduct": (1, 1, 1) + (0,) * 10}


class Rewrite:
    name = "rewrite"

    def setup(self, mods, smoke):
        operads, rewrite = mods["operads"], mods["rewrite"]
        C2 = mods["catalog"].group_by_name("C2")
        top = mods["transfer"].enumerate_transfer_systems(C2)[-1]
        S = operads.free_model(top)
        free_pool, _, _ = rewrite.pool_from_free_models(S, S)
        as_p = rewrite.as_pool(C2, 40)
        gens = [s for s in as_p.symbols if s.arity <= 3]
        return {"tensor": (free_pool, rewrite.TENSOR, None),
                "coproduct": (as_p, rewrite.COPRODUCT, gens)}

    def jobs(self, mods, configs, seed, smoke):
        rewrite = mods["rewrite"]
        rng = random.Random(seed)
        out = []
        for label, quota in (SMOKE_QUOTAS if smoke else QUOTAS).items():
            pool, mode, symbols = configs[label]
            left = list(quota)
            while any(left):
                job_seed = rng.getrandbits(32)
                term = rewrite.fuzz_term(pool, random.Random(job_seed),
                                         MAX_SYMBOLS, symbols)
                size = rewrite.symbol_count(term)
                if left[size] == 0:
                    continue
                left[size] -= 1

                def job(check, pool=pool, mode=mode, symbols=symbols,
                        job_seed=job_seed, term=term, label=label):
                    crit = rewrite.check_criteria(
                        pool, mode, count=1, seed=job_seed,
                        max_symbols=MAX_SYMBOLS, symbols=symbols)
                    for r in crit.reports:
                        check(r.passed, f"{label} {r.name}: {r.counterexample}")
                    budget = rewrite.complexity(pool, term, mode)
                    nf, trace = rewrite.reduce_term(pool, term, mode)
                    check(len(trace) <= budget,
                          f"{label}: {len(trace)} steps > complexity {budget}")
                    for s in range(RANDOM_STRATEGY_SEEDS):
                        got, _ = rewrite.reduce_term(
                            pool, term, mode, strategy="random",
                            seed=job_seed + s)
                        check(got == nf, f"{label}: strategy-dependent "
                              f"normal form of {rewrite.format_term(term)}")
                out.append([(f"{label} {len(out)} {job_seed}", job)])
        return out


# ---------------------------------------------------------------------------
# operads: H-sets, admissibility, free models, witnesses, double cosets


OPERAD_GROUPS = ("C4", "K4", "S3")
#: groups whose pairs also build a WitnessFactory.  K4's 361 factories
#: take ~1.2 s and would make `rewrite` the largest layer here, which the
#: `rewrite` workload already covers.
WITNESS_GROUPS = ("C4", "S3")
RES_HOMS = ("C4_to_S3", "C2_into_C4", "C4_onto_C2")
HSET_MAX = 3


class Operads:
    name = "operads"

    def setup(self, mods, smoke):
        catalog, groups = mods["catalog"], mods["groups"]
        enumerate_systems = mods["transfer"].enumerate_transfer_systems
        names = OPERAD_GROUPS[:1] if smoke else OPERAD_GROUPS
        lattices = {}
        for name in names:
            G = catalog.group_by_name(name)
            lat = groups.lattice_of(G)
            sets = [(H, T) for H in lat.subgroups for n in range(HSET_MAX + 1)
                    for T in groups.hsets_up_to_iso(H, n)]
            lattices[name] = (lat, enumerate_systems(G), sets)
        homs = {name: catalog.catalog_hom(name) for name in RES_HOMS}
        targets = {name: enumerate_systems(f.target)
                   for name, f in homs.items()}
        return lattices, homs, targets

    def jobs(self, mods, state, seed, smoke):
        lattices, homs, targets = state
        transfer, indexing = mods["transfer"], mods["indexing"]
        operads, rewrite = mods["operads"], mods["rewrite"]
        out = []
        for gname, (lat, systems, sets) in lattices.items():
            expect = TRANSFER_COUNTS[gname][0]
            # the pair jobs start from these, so that no job depends on
            # another having run first
            found = [(indexing.admissible_class_of_transfer(s),
                      operads.free_model(s)) for s in systems]
            for i, s in enumerate(systems):
                def system(check, key=(gname, i), s=s, first=(i == 0),
                           systems=systems, expect=expect):
                    if first:
                        check(len(systems) == expect,
                              f"{key[0]}: {len(systems)} systems, "
                              f"reference {expect}")
                    cls = indexing.admissible_class_of_transfer(s)
                    check(indexing.generated_transfer(cls).rel == s.rel,
                          f"{key}: admissible class does not generate s")
                    S = operads.free_model(s)
                    check(operads.symseq_transfer(S).rel == s.rel,
                          f"{key}: free model does not realize s")
                out.append([(f"system {gname} {i}", system)])
            for i, s in enumerate(systems):
                for j, t in enumerate(systems):
                    def pair(check, gname=gname, i=i, j=j, s=s, t=t,
                             lat=lat, sets=sets, found=found):
                        both = indexing.IndexingSystem(transfer.meet(s, t))
                        i_s = indexing.IndexingSystem(s)
                        i_t = indexing.IndexingSystem(t)
                        check(all(both.admits(H, T) == (i_s.admits(H, T)
                                                        and i_t.admits(H, T))
                                  for H, T in sets),
                              f"{gname} ({i},{j}): meet admits the wrong sets")
                        (cls_s, S), (cls_t, T_) = found[i], found[j]
                        join = transfer.join(s, t)
                        union = indexing.AdmissibleClass(
                            lat, cls_s.entries | cls_t.entries)
                        check(indexing.generated_transfer(union).rel == join.rel,
                              f"{gname} ({i},{j}): union does not generate the join")
                        r = operads.coproduct_join_check(S, T_)
                        check(r.passed, f"{gname} ({i},{j}): {r.counterexample}")
                        if gname not in WITNESS_GROUPS:
                            return
                        factory = rewrite.WitnessFactory(S, T_)
                        for k_id, h_id in factory.join.pairs():
                            for mode in (rewrite.COPRODUCT, rewrite.TENSOR):
                                w = factory.witness(k_id, h_id, mode)
                                check(w.verified, f"{gname} ({i},{j}): witness "
                                      f"for ({k_id},{h_id}) in {mode.kind}")
                    out.append([(f"pair {gname} {i} {j}", pair)])
        for name, f in homs.items():
            for i, t in enumerate(targets[name]):
                def coset(check, f=f, t=t, label=f"{name} {i}"):
                    r = operads.double_coset_check(f, operads.free_model(t))
                    check(r.passed, f"double coset {label}: {r.counterexample}")
                out.append([(f"double-coset {name} {i}", coset)])
        return out


WORKLOADS = {w.name: w for w in (Lattice(), Functors(), Rewrite(), Operads())}
