"""Property suite for the cell-semantics registry.

Every combinational :class:`~repro.ir.celllib.CellSpec` carries three
independent semantics — Kleene ternary evaluation, bit-parallel mask
evaluation, and a lowering that both the AIG mapper and the SAT encoder
consume.  A registry entry is only correct if all of them agree, so for
each registered spec we build a one-cell module with random shapes and
check them against each other on random vectors.
"""

import random

import pytest

from repro.aig import aig_map
from repro.ir import CellType, Module, SigBit, State
from repro.ir.celllib import all_specs, spec_for, spec_for_yosys
from repro.ir.cells import PortDir
from repro.sat import CircuitEncoder, Solver
from repro.sim import Simulator

COMB_SPECS = [spec for spec in all_specs() if spec.combinational]


def _random_shape(spec, rng):
    """A legal (width, n) for the spec: n is the S width for pmux, the
    shift-amount width for shl/shr, and 1 everywhere else."""
    width = rng.randint(1, 6)
    if spec.ctype is CellType.PMUX:
        return width, rng.randint(2, 4)
    if spec.n_port is not None:
        return width, rng.randint(1, 4)
    return width, 1


def _single_cell_module(spec, width, n):
    module = Module(f"prop_{spec.ctype.name.lower()}")
    ports = {}
    for pname in spec.input_ports:
        pwidth = spec.expected_width(pname, width, n)
        ports[pname] = module.add_wire(f"p_{pname}", pwidth, port_input=True)
    out_width = spec.expected_width(spec.out_port, width, n)
    out = module.add_wire("y", out_width, port_output=True)
    module.add_cell(spec.ctype, "dut", width=width, n=n,
                    **ports, **{spec.out_port: out})
    return module


def _aig_output_masks(aig, source_masks, nvec, mask):
    """Evaluate the AIG on the same source masks the simulator saw."""
    in_masks = []
    for name in aig.input_names:
        wname, idx = name.rsplit("[", 1)
        in_masks.append(source_masks.get((wname, int(idx[:-1])), 0))
    var_masks = aig.eval_masks(in_masks, nvec)

    def lit_mask(lit):
        if lit <= 1:
            return mask if lit else 0
        value = var_masks[lit >> 1]
        return (~value & mask) if lit & 1 else value

    out = {}
    for name, lit in aig.outputs:
        wname, idx = name.rsplit("[", 1)
        out[(wname, int(idx[:-1]))] = lit_mask(lit)
    return out


@pytest.mark.parametrize(
    "spec", COMB_SPECS, ids=[s.ctype.name for s in COMB_SPECS]
)
def test_ternary_mask_and_aig_semantics_agree(spec):
    nvec = 64
    mask = (1 << nvec) - 1
    for trial in range(4):
        rng = random.Random(hash((spec.ctype.name, trial)) & 0xFFFFFFFF)
        width, n = _random_shape(spec, rng)
        module = _single_cell_module(spec, width, n)
        sim = Simulator(module)

        sources = sim.source_bits()
        source_masks = {bit: rng.getrandbits(nvec) for bit in sources}
        named_masks = {
            (bit.wire.name, bit.offset): m for bit, m in source_masks.items()
        }

        # mask semantics
        values = sim.run_masks(source_masks, nvec)
        out_wire = module.wire("y")
        mask_out = [
            values.get(sim.index.sigmap.map_bit(SigBit(out_wire, i)), 0)
            for i in range(out_wire.width)
        ]

        # AIG lowering + AIG simulation
        aig_out = _aig_output_masks(aig_map(module), named_masks, nvec, mask)
        for i in range(out_wire.width):
            assert aig_out[("y", i)] == mask_out[i], (
                f"{spec.ctype}: AIG disagrees with mask eval on y[{i}] "
                f"(width={width}, n={n})"
            )

        # ternary semantics, spot-checked one vector at a time
        for v in rng.sample(range(nvec), 8):
            assignment = {
                bit: State.from_bool((m >> v) & 1 == 1)
                for bit, m in source_masks.items()
            }
            states = sim.run_states(assignment)
            for i in range(out_wire.width):
                got = states[sim.index.sigmap.map_bit(SigBit(out_wire, i))]
                want = State.from_bool((mask_out[i] >> v) & 1 == 1)
                assert got is want, (
                    f"{spec.ctype}: ternary disagrees with mask eval on "
                    f"y[{i}] vector {v} (width={width}, n={n})"
                )


@pytest.mark.parametrize(
    "spec", COMB_SPECS, ids=[s.ctype.name for s in COMB_SPECS]
)
def test_sat_encoding_forces_mask_values(spec):
    """Under input assumptions the Tseitin CNF must force every output bit
    to its mask-evaluated value and refute the opposite value (for pmux
    this includes multi-hot selects, i.e. the priority order)."""
    nvec = 16
    for trial in range(4):
        rng = random.Random(f"{spec.ctype.name}/{trial}")
        width, n = _random_shape(spec, rng)
        module = _single_cell_module(spec, width, n)
        sim = Simulator(module)
        source_masks = {bit: rng.getrandbits(nvec) for bit in sim.source_bits()}
        values = sim.run_masks(source_masks, nvec)

        solver = Solver()
        encoder = CircuitEncoder(solver, sim.index.sigmap)
        encoder.encode_cell(module.cell("dut"))
        out_bits = [
            sim.index.sigmap.map_bit(SigBit(module.wire("y"), i))
            for i in range(module.wire("y").width)
        ]
        for v in rng.sample(range(nvec), 6):
            assumptions = [
                encoder.lit(bit) if (m >> v) & 1 else -encoder.lit(bit)
                for bit, m in source_masks.items()
            ]
            for i, bit in enumerate(out_bits):
                y = encoder.lit(bit)
                if not (values.get(bit, 0) >> v) & 1:
                    y = -y
                where = f"{spec.ctype}: y[{i}] vector {v} (width={width}, n={n})"
                assert solver.solve(assumptions + [y]) is True, where
                assert solver.solve(assumptions + [-y]) is False, where


@pytest.mark.parametrize(
    "spec", COMB_SPECS, ids=[s.ctype.name for s in COMB_SPECS]
)
def test_ternary_eval_handles_all_x_inputs(spec):
    rng = random.Random(len(spec.ctype.name))
    width, n = _random_shape(spec, rng)
    module = _single_cell_module(spec, width, n)
    sim = Simulator(module)
    states = sim.run_states({})  # every source defaults to x
    out_wire = module.wire("y")
    for i in range(out_wire.width):
        assert states[sim.index.sigmap.map_bit(SigBit(out_wire, i))] in (
            State.S0, State.S1, State.Sx,
        )


def test_registry_covers_every_cell_type():
    assert {spec.ctype for spec in all_specs()} == set(CellType)


def test_yosys_types_are_unique_and_resolvable():
    seen = {}
    for spec in all_specs():
        assert spec.yosys_type.startswith("$"), spec.ctype
        assert spec.yosys_type not in seen, (
            f"{spec.ctype} and {seen[spec.yosys_type]} share "
            f"{spec.yosys_type}"
        )
        seen[spec.yosys_type] = spec.ctype
        assert spec_for_yosys(spec.yosys_type) is spec


def test_only_dff_lacks_evaluators():
    for spec in all_specs():
        if spec.ctype is CellType.DFF:
            assert spec.eval_ternary is None
            assert spec.eval_masks is None
            assert spec.lower is None
            assert not spec.combinational
            assert spec.state_ports == ("Q",)
            assert spec.next_state_ports == ("D",)
        else:
            assert spec.eval_ternary is not None, spec.ctype
            assert spec.eval_masks is not None, spec.ctype
            assert spec.lower is not None, spec.ctype
            assert spec.combinational, spec.ctype


def test_specs_expose_single_primary_output():
    for spec in all_specs():
        outs = [p for p, d, _e in spec.ports if d is PortDir.OUT]
        assert outs, spec.ctype
        assert spec.out_port == outs[0]
        assert spec.output_ports == tuple(outs)
        ins = [p for p, d, _e in spec.ports if d is PortDir.IN]
        assert spec.input_ports == tuple(ins)


def test_built_cells_pass_spec_check():
    for spec in COMB_SPECS:
        rng = random.Random(0)
        width, n = _random_shape(spec, rng)
        module = _single_cell_module(spec, width, n)
        assert spec.check(module.cell("dut")) == []


def test_spec_check_reports_unconnected_ports():
    from repro.ir.module import Cell

    # set_port validates widths eagerly, so the reachable misuse is a
    # cell whose ports were never connected (e.g. hand-built records)
    cell = Cell("g", CellType.AND, 4, 1)
    problems = spec_for(CellType.AND).check(cell)
    assert problems
    assert any("unconnected" in p for p in problems), problems


def test_infer_shape_round_trips():
    for spec in COMB_SPECS:
        rng = random.Random(1)
        width, n = _random_shape(spec, rng)
        observed = {spec.width_port: spec.expected_width(
            spec.width_port, width, n)}
        if spec.n_port is not None:
            observed[spec.n_port] = spec.expected_width(spec.n_port, width, n)
        assert spec.infer_shape(observed) == (width, n), spec.ctype


def test_infer_shape_requires_width_port():
    spec = spec_for(CellType.AND)
    with pytest.raises(ValueError):
        spec.infer_shape({})
