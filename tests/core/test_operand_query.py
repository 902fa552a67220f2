"""One query per data operand: a group's shared sub-graph is each bit's own.

``SatRedundancy`` resolves the undecided bits of a data operand in groups
of bits with one driver and equal neighbour cells, with one extraction
and one inference per group.  These tests are the per-bit oracle: every
member is extracted and inferred on its own, at the moment its group is,
and must match the shared sub-graph (``target`` aside) and the shared
inference.
"""

from typing import List, Tuple

import pytest

from repro.api import Session
from repro.core import SatRedundancy, redundancy
from repro.core.inference import infer
from repro.core.subgraph import SubGraph, extract_subgraph
from repro.equiv import CI_CORPUS, random_module
from repro.ir import Circuit
from repro.workloads import CASE_NAMES, build_case


def _fields_but_target(sub: SubGraph) -> Tuple:
    return (sub.cells, sub.inputs, list(sub.known.items()),
            sub.gates_before, sub.gates_after)


@pytest.fixture
def checked_groups(monkeypatch) -> List[Tuple[int, int]]:
    """Check every member of every data-operand group against its own
    extraction and inference; the returned list holds one
    ``(members, extractions)`` pair per group."""
    real = SatRedundancy._infer_group
    groups: List[Tuple[int, int]] = []

    def checked(self, members, facts):
        outcomes = real(self, members, facts)
        assert list(outcomes) == members
        for cbit, (shared, inference) in outcomes.items():
            own = extract_subgraph(
                self.index, cbit, facts, k=self.data_k,
                max_gates=self.max_gates,
            )
            assert own.target is cbit
            assert _fields_but_target(own) == _fields_but_target(shared)
            alone = infer(own, self.index, own.known)
            assert (alone.contradiction, alone.values) == (
                inference.contradiction, inference.values
            )
        extractions = len({id(sub) for sub, _inf in outcomes.values()})
        groups.append((len(members), extractions))
        return outcomes

    monkeypatch.setattr(SatRedundancy, "_infer_group", checked)
    return groups


def _assert_shared(groups: List[Tuple[int, int]]) -> None:
    assert groups, "the run asked no data operand"
    shared = [members for members, extractions in groups
              if members > 1 and extractions == 1]
    assert shared, "no group shared its sub-graph"


class TestSharedSubGraph:
    @pytest.mark.parametrize("case", CASE_NAMES)
    def test_table2_case(self, checked_groups, case):
        Session(build_case(case)).run("smartly")
        assert checked_groups, "the run asked no data operand"

    def test_table2_cases_share(self, checked_groups):
        """Most Table II cases ask few data operands; together they must
        ask a group that shares."""
        for case in ("wb_conmax", "ac97_ctrl", "riscv"):
            Session(build_case(case), engine="eager").run("smartly-sat")
        _assert_shared(checked_groups)

    def test_fuzz_corpus(self, checked_groups):
        for seed in CI_CORPUS[:12]:
            Session(random_module(seed, width=8, n_units=4)).run("smartly")
        _assert_shared(checked_groups)


def _or_operand(narrow_reader: bool):
    """``y = s ? (a | {8{s}}) : e``: on the B branch ``s = 1`` forces
    every bit of the or operand to 1.  With ``narrow_reader`` a one-bit
    inverter also reads bit 3 of the operand."""
    c = Circuit("t")
    a, e, s = c.input("a", 8), c.input("e", 8), c.input("s")
    d = c.or_(a, s.repeat(8))
    c.output("y", c.mux(e, d, s))
    if narrow_reader:
        c.output("t", c.not_(d[3:4]))
    return c.module


class TestHandBuilt:
    def test_narrow_reader_gets_its_own_query(self, checked_groups):
        """Bit 3 has one more neighbour cell than the other seven bits,
        so it is a group of its own: two extractions decide all eight."""
        result = SatRedundancy().run(_or_operand(narrow_reader=True))
        assert sorted(checked_groups) == [(1, 1), (7, 1)]
        assert result.stats["dataport_bits_substituted"] == 8
        assert result.stats["data_inferred"] == 8
        # every ball holds the or cell, the mux and the inverter
        assert result.stats["subgraph_gates_before"] == 8 * 3

    def test_one_group_without_the_narrow_reader(self, checked_groups):
        result = SatRedundancy().run(_or_operand(narrow_reader=False))
        assert checked_groups == [(8, 1)]
        assert result.stats["data_inferred"] == 8

    def test_capped_ball_falls_back_bit_by_bit(self, checked_groups,
                                               monkeypatch):
        """``max_gates=1`` cuts every ball short, so the bit BFS collects
        it from the target: the group is extracted once per bit."""
        balls = []
        real = extract_subgraph

        def recorded(*args, **kwargs):
            sub = real(*args, **kwargs)
            balls.append(sub.cell_walk)
            return sub

        monkeypatch.setattr(redundancy, "extract_subgraph", recorded)
        result = SatRedundancy(max_gates=1).run(_or_operand(narrow_reader=False))
        assert checked_groups == [(8, 8)]
        assert balls == [False] * 8
        assert result.stats["subgraph_gates_before"] == 8
