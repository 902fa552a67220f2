"""CLI coverage for the declarative flow surface (`script`, `opt --json`),
`write` -> `equiv`, and the exit statuses (1 is a verdict, 2 an error)."""

import json

import pytest

from repro.cli import main

SOURCE = """
module demo(input [1:0] s, input [7:0] a, b, output reg [7:0] y);
  always @* begin
    case (s)
      2'b00: y = a;
      2'b01: y = b;
      2'b10: y = a;
      default: y = b;
    endcase
  end
endmodule
"""


@pytest.fixture
def verilog(tmp_path):
    path = tmp_path / "demo.v"
    path.write_text(SOURCE)
    return str(path)


def test_script_subcommand_runs_flow(verilog, capsys):
    rc = main(["script", "opt_expr; smartly k=6; opt_clean", verilog,
               "--check"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "demo: original AIG area" in out
    assert "equivalence check: PASSED" in out


def test_script_subcommand_json_report(verilog, capsys):
    rc = main(["script", "fixpoint; opt_expr; opt_merge; opt_clean", verilog,
               "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["case_name"] == "demo"
    assert report["flow_script"].startswith("fixpoint max_rounds=16")
    assert report["original_area"] >= report["optimized_area"]


def test_script_subcommand_rejects_unknown_pass(verilog, capsys):
    rc = main(["script", "opt_expr; nonsense", verilog])
    assert rc == 2
    assert "unknown pass 'nonsense'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "script", ["smartly_sat bogus=1", "smartly bogus=1", "opt_expr bogus=1",
               "smartly max_rounds=1"]
)
def test_script_subcommand_rejects_unknown_option(script, verilog, capsys):
    """An option the pass's constructor does not take is a bad flow
    script (``max_rounds`` caps a preset's loop, not a smartly pass):
    exit 2 and one error line naming the step, before any pass is
    built."""
    rc = main(["script", f"opt_clean; {script}", verilog])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"error: step {script!r}: ")
    assert repr(script.split()[1].partition("=")[0]) in err


@pytest.mark.parametrize(
    "script", ["smartly k=abc", "smartly_sat sat_threshold=true",
               "opt_merge merge_dff=1"]
)
def test_script_subcommand_rejects_option_value_of_wrong_kind(
    script, verilog, capsys
):
    """A value of another kind than the option's default is a bad flow
    script: exit 2 and one error line naming the step, not a traceback
    from the pass constructor."""
    rc = main(["script", f"opt_clean; {script}", verilog])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"error: step {script!r}: option ")


def test_script_subcommand_rejects_empty_script(verilog, capsys):
    rc = main(["script", "  ", verilog])
    assert rc == 2
    assert "empty flow script" in capsys.readouterr().err


def test_opt_subcommand_json(verilog, capsys):
    rc = main(["opt", verilog, "--optimizer", "yosys", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flow"] == "yosys"


def test_opt_verbose_streams_pass_events(verilog, capsys):
    rc = main(["opt", verilog, "-v"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "[smartly]" in err


def test_opt_none_check_text_and_json_agree(verilog, capsys):
    assert main(["opt", verilog, "--optimizer", "none", "--check"]) == 0
    assert "equivalence check: PASSED" in capsys.readouterr().out
    assert main(["opt", verilog, "--optimizer", "none", "--check",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["equivalence_checked"] is True
    assert main(["opt", verilog, "--optimizer", "none"]) == 0
    assert "equivalence check" not in capsys.readouterr().out


@pytest.mark.parametrize("suffix", [".v", ".json"])
def test_write_then_equiv_proves_the_output(tmp_path, verilog, capsys,
                                            suffix):
    out = str(tmp_path / f"opt{suffix}")
    assert main(["write", verilog, "-o", out]) == 0
    capsys.readouterr()
    assert main(["equiv", verilog, out]) == 0
    assert capsys.readouterr().out == "EQUIVALENT (proved by sat)\n"


#: unreadable inputs: file name -> contents (None = no file at all)
BAD_INPUTS = {
    "missing.v": None,
    "truncated.v": SOURCE[:60],
    "netlist.json": '{"modules": 3}',
    "header.aag": "aag 1 2\n",
    "short.aag": "aag 3 2 0 1 1\n2\n4\n",
    "literal.aag": "aag 3 2 0 1 1\n2\n4\nx\n6 2 4\n",
    "range.aag": "aag 3 2 0 1 1\n2\n4\n6\n6 2 40\n",
    "twice.aag": "aag 3 2 0 1 1\n2\n4\n6\n4 2 6\n",
}


@pytest.mark.parametrize("command", ["opt", "equiv"])
@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_is_an_error_not_a_verdict(tmp_path, verilog, capsys,
                                             command, name):
    path = tmp_path / name
    if BAD_INPUTS[name] is not None:
        path.write_text(BAD_INPUTS[name])
    extra = [verilog] if command == "equiv" else []
    assert main([command, str(path), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_equiv_reads_aiger_inputs_listed_out_of_order(tmp_path, capsys):
    # both files compute y = b & ~a; the first lists b's literal second
    shuffled = tmp_path / "shuffled.aag"
    shuffled.write_text("aag 3 2 0 1 1\n4\n2\n6\n6 2 5\n"
                        "i0 a\ni1 b\no0 y\n")
    ordered = tmp_path / "ordered.aag"
    ordered.write_text("aag 3 2 0 1 1\n2\n4\n6\n6 4 3\n"
                       "i0 a\ni1 b\no0 y\n")
    assert main(["equiv", str(shuffled), str(ordered)]) == 0
    assert capsys.readouterr().out.startswith("EQUIVALENT")


@pytest.mark.parametrize("command", ["opt", "equiv"])
def test_unknown_top_is_an_error_not_a_verdict(verilog, capsys, command):
    extra = [verilog] if command == "equiv" else []
    assert main([command, verilog, *extra, "--top", "ghost"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: no module named 'ghost' (available: ['demo'])\n"
    )


def test_equiv_port_mismatch_is_an_error(tmp_path, verilog, capsys):
    other = tmp_path / "other.v"
    other.write_text(
        "module demo(input [1:0] s, input [7:0] a, output [7:0] y);\n"
        "  assign y = a;\nendmodule\n"
    )
    assert main(["equiv", verilog, str(other)]) == 2
    assert capsys.readouterr().err.startswith("error: signatures differ")


def test_equiv_non_equivalent_pair_still_exits_1(tmp_path, verilog, capsys):
    wrong = tmp_path / "wrong.v"
    wrong.write_text(SOURCE.replace("2'b10: y = a;", "2'b10: y = b;"))
    assert main(["equiv", verilog, str(wrong)]) == 1
    assert capsys.readouterr().out.startswith("NOT EQUIVALENT")
