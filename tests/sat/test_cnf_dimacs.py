"""The CNF container and its brute-force reference checks."""

import pytest

from repro.sat import CNF


def test_cnf_tracks_num_vars():
    cnf = CNF()
    cnf.add_clause([1, -5])
    assert cnf.num_vars == 5
    assert len(cnf) == 1


def test_evaluate():
    cnf = CNF(2)
    cnf.add_clause([1, 2])
    cnf.add_clause([-1, 2])
    assert cnf.evaluate([False, True])
    assert not cnf.evaluate([True, False])


def test_count_models():
    cnf = CNF(2)
    cnf.add_clause([1, 2])
    assert cnf.count_models() == 3


def test_brute_force_guard():
    cnf = CNF(30)
    with pytest.raises(ValueError):
        cnf.brute_force_satisfiable()

