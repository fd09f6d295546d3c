"""The redex walk and normal-form joinability against the seed rewriting
code, kept here as oracles: the pre-order redex list ranked by
`_pick_leftmost_innermost`, the normalizer built on it, and joinability by
intersecting full descendant sets (`_descendants`)."""

import functools
import random
from collections import Counter

import pytest

from transys.catalog import group_by_name
from transys.operads import free_model
from transys.rewrite import (
    COPRODUCT,
    TENSOR,
    App,
    OpSymbol,
    RewriteError,
    Step,
    SymbolPool,
    _local_coproduct,
    _local_tensor,
    as_pool,
    check_criteria,
    complexity,
    fuzz_term,
    one_step_reducts,
    parse_term,
    pool_from_free_models,
    reduce_term,
    replace_at,
)
from transys.groups import identity_perm
from transys.transfer import enumerate_transfer_systems

TERMS_PER_MODE = 1000


# ---------------------------------------------------------------------------
# seed code


def seed_one_step_reducts(pool, t, mode):
    local = _local_coproduct if mode.kind == "coproduct" else _local_tensor
    out = []

    def walk(s, path):
        for reduct, rule in local(pool, s):
            out.append((replace_at(t, path, reduct), rule, path))
        if isinstance(s, App):
            for i, c in enumerate(s.children):
                walk(c, path + (i,))

    walk(t, ())
    return out


def _pick_leftmost_innermost(reducts):
    paths = [r[2] for r in reducts]
    best = None
    for i, p in enumerate(paths):
        inner = not any(q != p and q[:len(p)] == p for q in paths)
        if inner and (best is None or p < paths[best]):
            best = i
    return best


def seed_reduce_term(pool, t, mode):
    budget = complexity(pool, t, mode)
    trace = []
    current = t
    for _ in range(budget + 1):
        reducts = seed_one_step_reducts(pool, current, mode)
        if not reducts:
            return current, trace
        after, rule, path = reducts[_pick_leftmost_innermost(reducts)]
        if complexity(pool, after, mode) >= complexity(pool, current, mode):
            raise RewriteError(
                f"rule {rule} failed to decrease complexity at {path}")
        trace.append(Step(rule, path, current, after))
        current = after
    raise RewriteError("step budget exceeded; descent is broken")


def _descendants(pool, t, mode, cache):
    if t in cache:
        return cache[t]
    seen = {t}
    for reduct, _, _ in seed_one_step_reducts(pool, t, mode):
        seen |= _descendants(pool, reduct, mode, cache)
    out = frozenset(seen)
    cache[t] = out
    return out


# ---------------------------------------------------------------------------
# seeded term streams


def _tensor_config():
    C2 = group_by_name("C2")
    S = free_model(enumerate_transfer_systems(C2)[-1])
    pool, _, _ = pool_from_free_models(S, S)
    return pool, TENSOR, None, 12


def _coproduct_config():
    pool = as_pool(group_by_name("C2"), 40)
    return pool, COPRODUCT, [s for s in pool.symbols if s.arity <= 3], 8


CONFIGS = {"tensor": _tensor_config, "coproduct": _coproduct_config}


@functools.cache
def _terms(label):
    pool, mode, symbols, max_symbols = CONFIGS[label]()
    rng = random.Random(0)
    terms = [fuzz_term(pool, rng, max_symbols, symbols)
             for _ in range(TERMS_PER_MODE)]
    return pool, mode, terms


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_walk_matches_seed_redexes_and_normalizer(label):
    pool, mode, terms = _terms(label)
    steps = 0
    for t in terms:
        assert (Counter(one_step_reducts(pool, t, mode))
                == Counter(seed_one_step_reducts(pool, t, mode)))
        nf, trace = reduce_term(pool, t, mode)
        seed_nf, seed_trace = seed_reduce_term(pool, t, mode)
        assert nf == seed_nf
        assert trace == seed_trace  # rule, path, before, after at each step
        steps += len(trace)
    assert steps > 200  # the stream does exercise reduction


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_normal_form_joinability_matches_descendants(label):
    pool, mode, terms = _terms(label)
    cache: dict = {}
    pairs = 0
    for t in terms:
        reducts = one_step_reducts(pool, t, mode)
        for a in range(len(reducts)):
            for b in range(a + 1, len(reducts)):
                left, right = reducts[a][0], reducts[b][0]
                by_normal_form = (reduce_term(pool, left, mode)[0]
                                  == reduce_term(pool, right, mode)[0])
                by_descendants = bool(_descendants(pool, left, mode, cache)
                                      & _descendants(pool, right, mode, cache))
                assert by_normal_form == by_descendants, (t, left, right)
                pairs += 1
    assert pairs > 200


def test_local_joinability_can_fail():
    """h(h(x, y), z) -> a(x, y, z) and h(x, h(y, z)) -> b(x, y, z) with a
    and b distinct ternary symbols: the overlap has two normal forms."""
    h, a, b = OpSymbol("X", 0, 2), OpSymbol("X", 1, 3), OpSymbol("X", 2, 3)
    pool = SymbolPool(group_by_name("C1"), [h, a, b],
                      {(s, 0): (s, identity_perm(s.arity)) for s in (h, a, b)},
                      compose_table={(h, 1, h): (a, identity_perm(3)),
                                     (h, 2, h): (b, identity_perm(3))})
    rep = check_criteria(pool, COPRODUCT, count=50, seed=1, max_symbols=6,
                         symbols=[h])
    joins = rep.reports[0]
    assert joins.name == "local joinability"
    assert not rep.passed and not joins.passed
    left = parse_term(joins.counterexample["left"], pool)
    right = parse_term(joins.counterexample["right"], pool)
    assert (reduce_term(pool, left, COPRODUCT)[0]
            != reduce_term(pool, right, COPRODUCT)[0])
    cache: dict = {}
    assert not (_descendants(pool, left, COPRODUCT, cache)
                & _descendants(pool, right, COPRODUCT, cache))
