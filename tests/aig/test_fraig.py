"""The sweep's cone encoder: AIG literals to solver literals, on demand."""

from repro.aig import AIG, ConeEncoder


def encoder_for(aig: AIG) -> ConeEncoder:
    """An encoder over every AND node of ``aig``."""
    return ConeEncoder({
        var: aig.and_fanins(var)
        for var in range(aig.num_inputs + 1, aig.max_var + 1)
    })


def test_and_node_semantics():
    aig = AIG()
    a, b = aig.add_input(), aig.add_input()
    y = aig.and_(a, b)
    encoder = encoder_for(aig)
    solver = encoder.solver
    y_v = encoder.lit(y)
    a_v, b_v = encoder.lit(a), encoder.lit(b)
    assert solver.solve([a_v, b_v, y_v]) is True
    assert solver.solve([a_v, b_v, -y_v]) is False
    assert solver.solve([-a_v, y_v]) is False


def test_complemented_edges():
    aig = AIG()
    a = aig.add_input()
    b = aig.add_input()
    y = aig.and_(a ^ 1, b)  # ~a & b
    encoder = encoder_for(aig)
    solver = encoder.solver
    y_v = encoder.lit(y)
    a_v, b_v = encoder.lit(a), encoder.lit(b)
    assert encoder.lit(a ^ 1) == -a_v
    assert solver.solve([-a_v, b_v, y_v]) is True
    assert solver.solve([a_v, b_v, y_v]) is False


def test_constant_literal_translation():
    encoder = encoder_for(AIG())
    # AIG literal 1 (true) must be satisfiable, literal 0 must not
    assert encoder.solver.solve([encoder.lit(1)]) is True
    assert encoder.solver.solve([encoder.lit(0)]) is False


def test_xor_function_through_cnf():
    aig = AIG()
    a, b = aig.add_input(), aig.add_input()
    y = aig.xor(a, b)
    encoder = encoder_for(aig)
    solver = encoder.solver
    y_lit = encoder.lit(y)
    a_v, b_v = encoder.lit(a), encoder.lit(b)
    for av in (False, True):
        for bv in (False, True):
            assumptions = [a_v if av else -a_v, b_v if bv else -b_v]
            want = av != bv
            assert solver.solve(assumptions + [y_lit if want else -y_lit]) is True
            assert solver.solve(assumptions + [-y_lit if want else y_lit]) is False


def test_encodes_only_the_queried_cone():
    aig = AIG()
    a, b, c = aig.add_input(), aig.add_input(), aig.add_input()
    left = aig.and_(a, b)
    aig.and_(b, c)  # never queried
    encoder = encoder_for(aig)
    encoder.lit(left)
    # constant + a, b + the queried AND; 3 clauses for the AND
    assert encoder.solver.num_vars == 4
    assert len(encoder.solver.clauses) == 3
    assert set(encoder.var_map) == {0, a >> 1, b >> 1, left >> 1}
    # a second query reuses the encoded cone instead of growing it
    encoder.lit(left ^ 1)
    assert encoder.solver.num_vars == 4
