"""Exportable CEC verdict cache (``("cec", <miter digest>)`` entries).

The pairs below are *structurally different* implementations of the same
(or almost the same) function — built via different ADD associativity —
so the miter never folds to a constant during construction and the
verdict genuinely comes from the SAT solver (the only rung the cache is
allowed to memoize).
"""

from __future__ import annotations

from repro.core.cache import ResultCache
from repro.equiv.cec import check_equivalence
from repro.ir.builder import Circuit
from repro.ir.signals import SigSpec


def _sum_module(shape: str):
    """``(a+b)+d`` vs ``a+(b+d)``: equivalent, structurally distinct."""
    c = Circuit("m")
    a, b, d = c.input("a", 4), c.input("b", 4), c.input("d", 4)
    if shape == "left":
        y = c.add(c.add(a, b), d)
    elif shape == "right":
        y = c.add(a, c.add(b, d))
    elif shape == "aliased":
        # same as "right" but routed through a named internal alias:
        # the miter digest must not see internal wire names
        t = c.module.add_wire("internal_alias_name", 4)
        c.module.connect(SigSpec.from_wire(t), c.add(b, d))
        y = c.add(a, SigSpec.from_wire(t))
    else:  # "wrong": off by an OR — refutable, still SAT-shaped
        y = c.add(c.or_(a, b), d)
    c.output("y", y)
    return c.module


def test_sat_verdict_cached_and_replayed():
    cache = ResultCache()
    gold, gate = _sum_module("left"), _sum_module("right")
    first = check_equivalence(gold, gate, random_vectors=0, cache=cache)
    assert first.equivalent and first.method == "sat"
    second = check_equivalence(gold, gate, random_vectors=0, cache=cache)
    assert second.equivalent and second.method == "cached"
    assert cache.counters["cec_hits"] == 1
    assert cache.counters["cec_misses"] == 1


def test_refutation_cached_without_counterexample():
    cache = ResultCache()
    gold, gate = _sum_module("left"), _sum_module("wrong")
    first = check_equivalence(gold, gate, random_vectors=0, cache=cache)
    assert not first.equivalent and first.method == "sat"
    assert first.counterexample
    second = check_equivalence(gold, gate, random_vectors=0, cache=cache)
    assert not second.equivalent and second.method == "cached"
    assert not second.counterexample  # a cached refutation has no cex


def test_sim_and_fold_verdicts_not_cached():
    cache = ResultCache()
    gold, gate = _sum_module("left"), _sum_module("wrong")
    result = check_equivalence(gold, gate, cache=cache)  # sim finds it
    assert result.method == "sim"
    # identical clones fold during construction; also never cached
    fold = check_equivalence(gold, gold.clone(), cache=cache)
    assert fold.equivalent and fold.method == "fold"
    assert len(cache) == 0


def test_hit_across_internal_renames():
    """The digest is name-free below the ports: an implementation routed
    through differently-named internal aliases replays the verdict."""
    cache = ResultCache()
    gold = _sum_module("left")
    check_equivalence(gold, _sum_module("right"), random_vectors=0,
                      cache=cache)
    result = check_equivalence(gold, _sum_module("aliased"),
                               random_vectors=0, cache=cache)
    assert result.equivalent and result.method == "cached"


def test_verdicts_survive_export_merge():
    warm = ResultCache()
    gold, gate = _sum_module("left"), _sum_module("right")
    check_equivalence(gold, gate, random_vectors=0, cache=warm)

    cold = ResultCache()
    assert cold.merge(warm.export()) >= 1
    replay = check_equivalence(gold, gate, random_vectors=0, cache=cold)
    assert replay.equivalent and replay.method == "cached"


def test_budget_outcome_not_cached():
    cache = ResultCache()
    gold, gate = _sum_module("left"), _sum_module("right")
    result = check_equivalence(
        gold, gate, random_vectors=0, max_conflicts=0, cache=cache
    )
    if result.undecided:  # tiny miters may still solve within 0 conflicts
        assert len(cache) == 0
        again = check_equivalence(gold, gate, random_vectors=0, cache=cache)
        assert again.method == "sat"


def test_session_check_populates_cec_cache():
    from repro.api import Session
    from repro.equiv.differential import random_module

    module = random_module(431, width=4, n_units=3)
    session = Session(module)
    session.run("smartly", check=True)
    counters = session._result_cache.counters
    assert counters.get("cec_misses", 0) >= 1
