"""``smartly reduce`` and the fuzz auto-shrink flags: exit codes,
minimized-netlist output, artifact dumping."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.equiv.differential import random_module
from repro.ir.verilog_writer import verilog_str
from repro.opt.opt_merge import BREAK_SORT_KEY_ENV


@pytest.fixture
def failing_case(tmp_path):
    path = tmp_path / "case.v"
    path.write_text(verilog_str(random_module(1000, width=4, n_units=3)))
    return str(path)


def test_reduce_writes_minimized_verilog(failing_case, tmp_path,
                                         monkeypatch, capsys):
    monkeypatch.setenv(BREAK_SORT_KEY_ENV, "1")
    out = tmp_path / "min.v"
    rc = main(["reduce", failing_case, "--oracle", "cec", "--flow", "yosys",
               "--max-probes", "300", "-o", str(out), "--json"])
    captured = capsys.readouterr()
    assert rc == 0
    summary = json.loads(captured.out)
    assert summary["target"] == "cec:counterexample"
    assert summary["reduction"] >= 0.8
    assert "reduce: " in captured.err
    text = out.read_text()
    assert text.startswith("module fuzz1000")
    assert text.count("assign") < 40  # minimized, not the raw dump


def test_reduce_stdout_and_json_output(failing_case, tmp_path,
                                       monkeypatch, capsys):
    monkeypatch.setenv(BREAK_SORT_KEY_ENV, "1")
    rc = main(["reduce", failing_case, "--oracle", "cec", "--flow", "yosys",
               "--max-probes", "30"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("module fuzz1000")
    out = tmp_path / "min.json"
    rc = main(["reduce", failing_case, "--oracle", "cec", "--flow", "yosys",
               "--max-probes", "30", "-o", str(out)])
    capsys.readouterr()
    assert rc == 0
    payload = json.loads(out.read_text())
    assert "modules" in payload  # Yosys-JSON netlist by suffix


def test_reduce_exit_2_when_input_does_not_fail(failing_case, monkeypatch,
                                                capsys):
    monkeypatch.delenv(BREAK_SORT_KEY_ENV, raising=False)
    rc = main(["reduce", failing_case, "--oracle", "cec", "--flow", "yosys"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "does not fail" in captured.err


def test_reduce_rejects_unknown_oracle(failing_case):
    with pytest.raises(SystemExit):
        main(["reduce", failing_case, "--oracle", "nonsense"])


def test_fuzz_shrink_flags_dump_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(BREAK_SORT_KEY_ENV, "1")
    art = tmp_path / "artifacts"
    rc = main(["fuzz", "-n", "1", "--seed-base", "1000",
               "--artifacts", str(art), "--shrink", "--shrink-probes", "40"])
    captured = capsys.readouterr()
    assert rc == 1  # failures found
    assert "shrunk seed=1000" in captured.out
    names = sorted(os.listdir(art))
    assert any(n.endswith(".orig.v") for n in names)
    assert any(n.endswith(".min.json") for n in names)


def test_fuzz_healthy_run_reports_clean(monkeypatch, capsys):
    monkeypatch.delenv(BREAK_SORT_KEY_ENV, raising=False)
    rc = main(["fuzz", "-n", "1", "--seed-base", "1000"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "0 failure(s)" in captured.out
