"""Report renderers over RunReport records, and their edge cases."""

from repro.aig.stats import AigStats
from repro.flow.reports import render_industrial, render_table2, render_table3
from repro.flow.session import RunReport


def _result(case, flow, original, optimized):
    return RunReport(
        case_name=case,
        flow=flow,
        flow_script=flow,
        original_area=original,
        optimized_area=optimized,
        stats=AigStats(1, 1, optimized, 1),
    )


def _per(case, yosys, smartly, original=1000):
    return {
        "yosys": _result(case, "yosys", original, yosys),
        "smartly": _result(case, "smartly", original, smartly),
        "smartly-sat": _result(case, "smartly-sat", original, smartly),
        "smartly-rebuild": _result(case, "smartly-rebuild", original, smartly),
    }


def test_table2_renders_paper_column():
    text = render_table2({"wb_conmax": _per("wb_conmax", 500, 400)})
    assert "wb_conmax" in text
    assert "Paper" in text and "27.79" in text
    assert "Average" in text


def test_table3_renders_paper_columns():
    text = render_table3({"wb_conmax": _per("wb_conmax", 500, 400)})
    assert "SAT" in text and "Rebuild" in text and "Full" in text
    assert "19.05" in text  # wb_conmax paper SAT column


def test_table2_unknown_case_shows_na():
    text = render_table2({"mystery": _per("mystery", 500, 400)})
    assert "n/a" in text
    assert "20.00%" in text  # (500-400)/500


def test_table2_zero_yosys_area_is_safe():
    text = render_table2({"dead": _per("dead", 0, 0)})
    assert "0.00%" in text


def test_table3_unknown_case_shows_na():
    text = render_table3({"mystery": _per("mystery", 500, 400)})
    assert "n/a" in text


def test_industrial_renders_points():
    per = _per("ind_x", 500, 400)
    text = render_industrial({"ind_x": {k: per[k] for k in ("yosys", "smartly")}})
    assert "ind_x" in text and "20.00%" in text and "47.20" in text


def test_industrial_zero_area_safe():
    results = {"p": {k: v for k, v in _per("p", 0, 0).items()
                     if k in ("yosys", "smartly")}}
    text = render_industrial(results)
    assert "47.20" in text


def test_flow_result_reduction_property():
    result = _result("x", "smartly", 200, 150)
    assert result.reduction_vs_original == 0.25
    zero = _result("x", "smartly", 0, 0)
    assert zero.reduction_vs_original == 0.0
