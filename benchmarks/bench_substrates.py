"""Substrate micro-benchmarks: SAT solver, aigmap, CEC, frontend.

Not paper tables — these track the performance of the infrastructure the
reproduction is built on, so regressions in the substrates are visible
separately from the optimization results.
"""

import random

import pytest

from repro.aig import aig_map
from repro.api import Session
from repro.equiv import check_equivalence
from repro.frontend import compile_verilog
from repro.sat import Solver
from repro.sim import Simulator

from conftest import get_module


def _pigeonhole_solver(n):
    solver = Solver()
    var = {}
    for p in range(n + 1):
        for h in range(n):
            var[p, h] = solver.new_var()
    for p in range(n + 1):
        solver.add_clause([var[p, h] for h in range(n)])
    for h in range(n):
        for p1 in range(n + 1):
            for p2 in range(p1 + 1, n + 1):
                solver.add_clause([-var[p1, h], -var[p2, h]])
    return solver


def test_sat_pigeonhole(benchmark):
    result = benchmark(lambda: _pigeonhole_solver(6).solve())
    assert result is False


def test_sat_random_3sat(benchmark):
    rng = random.Random(7)
    clauses = []
    n_vars, n_clauses = 60, 250   # under the phase-transition ratio: SAT
    for _ in range(n_clauses):
        clause = []
        while len(clause) < 3:
            lit = rng.choice([1, -1]) * rng.randint(1, n_vars)
            if lit not in clause and -lit not in clause:
                clause.append(lit)
        clauses.append(clause)

    def solve():
        solver = Solver()
        solver.ensure_vars(n_vars)
        for clause in clauses:
            solver.add_clause(clause)
        return solver.solve()

    result = benchmark(solve)
    assert result is not None


def test_aigmap_throughput(benchmark):
    module = get_module("top_cache_axi")
    aig = benchmark(lambda: aig_map(module))
    assert aig.num_ands > 10_000


def test_simulation_throughput(benchmark):
    module = get_module("wb_conmax")
    sim = Simulator(module)

    def run_vectors():
        _masks, values = sim.random_masks(nvec=64, seed=1)
        return values

    values = benchmark(run_vectors)
    assert values


def test_cec_throughput(benchmark):
    module = get_module("ac97_ctrl")
    optimized = module.clone()
    Session(optimized).run("smartly")

    result = benchmark.pedantic(
        lambda: check_equivalence(module, optimized),
        rounds=1,
        iterations=1,
    )
    assert result.equivalent


_DECODER_SRC = """
module decoder(input [4:0] op, input [7:0] a, b, output reg [7:0] y);
  always @* begin
    casez (op)
      5'b00000: y = a + b;
      5'b00001: y = a - b;
      5'b0001z: y = a & b;
      5'b001zz: y = a | b;
      5'b01zzz: y = a ^ b;
      default:  y = a;
    endcase
  end
endmodule
"""


def test_frontend_throughput(benchmark):
    module = benchmark(lambda: compile_verilog(_DECODER_SRC).top)
    assert module.stats()["mux"] >= 5
