"""Regression: path facts must never leak into shared muxes.

Found by hypothesis (seed 19687): after restructuring, an ADD node (or any
fanout->1 mux) can drive a muxtree data operand *and* other logic.  The
traversal used to keep walking into it after a bypass with the path's
facts, and a later "decided" control then rewired the shared mux globally
— changing its other observers.  The fix: only the bypassed mux's former
exclusive child inherits the edge and the walk.
"""

from repro.api import Session
from repro.core import SatRedundancy, MuxtreeRestructure
from repro.equiv import assert_equivalent
from repro.ir import Circuit
from repro.opt import OptClean, OptMuxtree
from tests.conftest import random_circuit


def _shared_after_chain():
    """root(S) -> A-chain of one bypassable mux -> shared mux.

    The inner mux's control is the same S, so under the A-branch fact
    (S = 0) it is "decided".  Its A operand is a *shared* mux (also feeding
    output z) whose control is S as well: deciding it under the path fact
    would corrupt z.
    """
    c = Circuit("regression")
    a, b, d, e = (c.input(n, 4) for n in "abde")
    S = c.input("S")
    shared = c.mux(a, b, S)          # observable at z AND inside the tree
    c.output("z", shared)
    inner = c.mux(shared, d, S)      # S ? d : shared — bypassable when S=0
    c.output("y", c.mux(inner, e, S))
    return c.module


def test_baseline_keeps_shared_mux_correct():
    m = _shared_after_chain()
    gold = m.clone()
    OptMuxtree().run(m)
    OptClean().run(m)
    assert_equivalent(gold, m)
    # the shared mux must survive: z still needs it
    assert any(cell.is_mux for cell in m.cells.values())


def test_sat_pass_keeps_shared_mux_correct():
    m = _shared_after_chain()
    gold = m.clone()
    SatRedundancy().run(m)
    OptClean().run(m)
    assert_equivalent(gold, m)


def test_original_falsifying_seed():
    """The exact hypothesis counterexample that exposed the bug."""
    module = random_circuit(19687, n_ops=10, mux_bias=0.6)
    gold = module.clone()
    Session(module).run("smartly")
    assert_equivalent(gold, module)


def test_rebuild_then_sat_composition_on_more_seeds():
    for seed in (19687, 4242, 31337, 55555):
        module = random_circuit(seed, n_ops=12, mux_bias=0.7)
        gold = module.clone()
        MuxtreeRestructure().run(module)
        SatRedundancy().run(module)
        OptClean().run(module)
        assert_equivalent(gold, module)
