"""Acceptance path: the injected ``opt_merge`` sort-key bug
(:data:`repro.opt.opt_merge.BREAK_SORT_KEY_ENV`) must shrink ≥ 80% and
keep failing identically, every fuzz lane must shrink against the oracle
that reported its failure, and the minimized artifact must be
byte-stable across interpreter hash seeds.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.equiv.differential import random_module, run_differential
from repro.opt.opt_merge import BREAK_SORT_KEY_ENV
from repro.testing import get_oracle, load_repro, reduce_module

SEED = 1000


@pytest.fixture
def broken(monkeypatch):
    monkeypatch.setenv(BREAK_SORT_KEY_ENV, "1")


@pytest.fixture(scope="module")
def reduced():
    """The CEC oracle and its reduction of the broken seed, made once for
    the tests that read it (each test sets the bug again to probe)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(BREAK_SORT_KEY_ENV, "1")
        module = random_module(SEED, width=4, n_units=3)
        oracle = get_oracle("cec", flow="yosys")
        return oracle, reduce_module(module, oracle, max_probes=400)


def test_shrinks_at_least_80_percent(broken, reduced):
    oracle, result = reduced
    assert result.target == "cec:counterexample"
    assert result.reduction >= 0.8, result.summary()
    assert oracle.probe(result.module) == result.target


def test_minimized_repro_is_cell_minimal(broken, reduced):
    """Removing any single cell changes the oracle's verdict — the
    repro carries no freight."""
    oracle, result = reduced
    for name in sorted(result.module.cells):
        candidate = result.module.clone()
        candidate.remove_cell(candidate.cells[name])
        assert oracle.probe(candidate) != result.target, name


def test_crash_in_the_cec_step_shrinks(monkeypatch):
    """A lane's CEC step that raises is reported by the CEC oracle, which
    runs the check again on every shrink probe, so the crash shrinks."""
    import repro.equiv.cec as cec

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(cec, "check_equivalence", boom)
    report = run_differential([SEED], flows=("yosys",), shrink=True,
                              shrink_probes=40)
    (entry,) = report.reductions
    assert entry["oracle"] == "cec" and entry["label"] == "crash:RuntimeError"
    assert "cells" in entry and "error" not in entry, entry


def test_harness_dumps_and_autoshrinks(broken, tmp_path):
    report = run_differential(
        [SEED], flows=("yosys",),
        artifacts_dir=str(tmp_path), shrink=True, shrink_probes=300,
    )
    assert not report.ok
    names = sorted(os.path.basename(p) for p in report.artifacts)
    assert names == [
        f"seed{SEED}.yosys.min.json", f"seed{SEED}.yosys.min.v",
        f"seed{SEED}.yosys.orig.json", f"seed{SEED}.yosys.orig.v",
    ]
    (entry,) = report.reductions
    assert entry["reduction"] >= 0.8
    assert entry["label"] == "cec:counterexample"

    design, payload = load_repro(str(tmp_path / f"seed{SEED}.yosys.min.json"))
    assert payload["reduced"] is True
    assert payload["cells"] == entry["cells"]
    assert get_oracle("cec", flow="yosys").probe(design.top) == entry["label"]
    # the pre-reduction dump reproduces too: full generating module
    orig, opayload = load_repro(
        str(tmp_path / f"seed{SEED}.yosys.orig.json"))
    assert opayload["reduced"] is False
    assert opayload["cells"] == entry["original_cells"]


def test_failing_seed_dumps_source_even_without_shrink(broken, tmp_path):
    """Satellite contract: artifacts_dir alone always dumps the
    generating module pre-reduction, reduction skipped or not."""
    report = run_differential(
        [SEED], flows=("yosys",), artifacts_dir=str(tmp_path), shrink=False,
    )
    assert not report.ok
    names = sorted(os.path.basename(p) for p in report.artifacts)
    assert names == [f"seed{SEED}.yosys.orig.json", f"seed{SEED}.yosys.orig.v"]
    assert report.reductions == []


_DETERMINISM_SCRIPT = """
import json, sys
from repro.equiv.differential import random_module
from repro.ir.verilog_writer import verilog_str
from repro.testing import get_oracle, reduce_module

module = random_module(%d, width=4, n_units=3)
result = reduce_module(module, get_oracle("cec", flow="yosys"),
                       max_probes=400)
sys.stdout.write(verilog_str(result.module))
sys.stdout.write(json.dumps(result.summary(), sort_keys=True))
""" % SEED


def test_minimized_output_is_hash_seed_independent():
    """Same seed + oracle => byte-identical minimized artifact, proved
    across interpreters with different PYTHONHASHSEEDs (the same
    discipline test_struct_hash applies to signatures)."""
    outputs = []
    for hashseed in ("0", "12345"):
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = {
            **os.environ,
            "PYTHONHASHSEED": hashseed,
            "PYTHONPATH": src_dir,
            BREAK_SORT_KEY_ENV: "1",
        }
        proc = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert "module fuzz%d" % SEED in outputs[0]
