"""Oracle contract tests: PASS on healthy inputs, stable labels on
broken ones, and crash capture instead of propagation.

The expensive acceptance path (injected ``opt_merge`` bug shrunk through
the real CEC oracle) is in ``test_injected_bug.py``; here each oracle is
exercised on small inputs with targeted breakage.
"""

from __future__ import annotations

import pytest

from repro.equiv.differential import random_module
from repro.ir.builder import Circuit
from repro.ir.design import Design
from repro.ir.signals import SigSpec
from repro.opt.opt_merge import BREAK_SORT_KEY_ENV, OptMerge
from repro.testing import ORACLE_NAMES, PASS, get_oracle
from repro.testing.oracles import ORACLES, CecOracle


def _healthy_module():
    return random_module(0, width=4, n_units=2)


def _tiny_design() -> Design:
    child_c = Circuit("leaf")
    a = child_c.input("a", 2)
    b = child_c.input("b", 2)
    child_c.output("y", child_c.and_(a, b))
    child = child_c.module

    top_c = Circuit("top")
    x = top_c.input("x", 2)
    z = top_c.input("z", 2)
    y = SigSpec.from_wire(top_c.module.add_wire("u0_y", 2))
    top_c.module.add_instance("leaf", "u0", {"a": x, "b": z, "y": y})
    top_c.output("out", y)

    design = Design(top=top_c.module)
    design.add_module(child)
    return design


@pytest.mark.parametrize("name", [n for n in ORACLE_NAMES])
def test_healthy_input_passes_every_oracle(name):
    oracle = get_oracle(name, flow="smartly")
    target = _tiny_design() if oracle.scope == "design" else _healthy_module()
    assert oracle.probe(target) == PASS


def test_registry_covers_all_five_lanes():
    assert set(ORACLE_NAMES) == {
        "cec", "divergence", "seeded", "roundtrip", "crash", "hier-cec"
    }
    for name, cls in ORACLES.items():
        assert cls.name == name
        assert cls.description


def test_get_oracle_unknown_name():
    with pytest.raises(ValueError, match="unknown oracle"):
        get_oracle("nope")


def test_get_oracle_passes_and_drops_kwargs():
    cec = get_oracle("cec", flow="yosys", max_conflicts=10)
    assert cec.max_conflicts == 10
    # oracles without a SAT check ignore the budget
    div = get_oracle("divergence", flow="yosys", max_conflicts=10)
    assert div.flow == "yosys"


def test_get_oracle_rejects_an_unknown_keyword():
    # a misspelt budget must not yield an unbudgeted check
    with pytest.raises(TypeError, match="max_conflict"):
        get_oracle("cec", flow="yosys", max_conflict=10)


def test_get_oracle_propagates_constructor_errors(monkeypatch):
    class _Budgetless(CecOracle):
        name = "budgetless"

        def __init__(self, flow="smartly", options=None, max_conflicts=None):
            if max_conflicts is not None:
                raise TypeError("no budget here")
            super().__init__(flow, options)

    monkeypatch.setitem(ORACLES, "budgetless", _Budgetless)
    with pytest.raises(TypeError, match="no budget here"):
        get_oracle("budgetless", max_conflicts=10)


def test_cec_oracle_catches_injected_merge_bug(monkeypatch):
    monkeypatch.setenv(BREAK_SORT_KEY_ENV, "1")
    module = random_module(1000, width=4, n_units=3)
    assert get_oracle("cec", flow="yosys").probe(module) == "cec:counterexample"


def test_probe_does_not_mutate_target(monkeypatch):
    from repro.ir.struct_hash import module_signature

    monkeypatch.setenv(BREAK_SORT_KEY_ENV, "1")
    module = random_module(1000, width=4, n_units=3)
    before = module_signature(module)
    get_oracle("cec", flow="yosys").probe(module)
    assert module_signature(module) == before


def test_crash_oracle_captures_exception_type(monkeypatch):
    def boom(self, *args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(OptMerge, "execute", boom)
    monkeypatch.setattr(OptMerge, "execute_incremental", boom)
    label = get_oracle("crash", flow="smartly").probe(_healthy_module())
    assert label == "crash:RuntimeError"


def test_cec_oracle_reports_crashes_not_raises(monkeypatch):
    def boom(self, *args, **kwargs):
        raise KeyError("injected")

    monkeypatch.setattr(OptMerge, "execute", boom)
    monkeypatch.setattr(OptMerge, "execute_incremental", boom)
    label = get_oracle("cec", flow="smartly").probe(_healthy_module())
    assert label == "crash:KeyError"


def test_roundtrip_oracle_labels_exporter_breakage(monkeypatch):
    import repro.ir.json_writer as json_writer

    monkeypatch.setattr(json_writer, "yosys_json_str", lambda target: "{}")
    label = get_oracle("roundtrip").probe(_healthy_module())
    assert label.startswith("roundtrip:")
    assert label != PASS


def test_hier_cec_scope_mismatch_is_reducer_error():
    from repro.testing import reduce_module

    with pytest.raises(ValueError, match="reduces designs"):
        reduce_module(_healthy_module(), get_oracle("hier-cec"))


def test_hier_cec_catches_injected_bug_in_child(monkeypatch):
    from hier_cases import buggy_design

    monkeypatch.setenv(BREAK_SORT_KEY_ENV, "1")
    label = get_oracle("hier-cec", flow="yosys").probe(buggy_design())
    assert label == "cec:counterexample"
