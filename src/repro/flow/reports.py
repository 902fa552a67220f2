"""Text renderers for the paper's tables (measured vs published).

Each renderer consumes ``results[case][flow] -> RunReport`` — a whole
:class:`~repro.flow.session.SuiteReport` from
:meth:`~repro.flow.session.Session.run_suite`, or any such mapping of
:class:`~repro.flow.session.RunReport` records.  Only their
``original_area`` / ``optimized_area`` fields are read.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

from ..workloads.iwls import PAPER_TABLE2, PaperRow
from .session import RunReport

#: ``results[case][flow label] -> RunReport``; a SuiteReport is one
SuiteResults = Mapping[str, Mapping[str, RunReport]]


def _pct(value: float) -> str:
    return f"{100.0 * value:6.2f}%"


def render_table2(
    results: SuiteResults,
    paper: Optional[Mapping[str, PaperRow]] = None,
) -> str:
    """Table II: Original / Yosys / smaRTLy areas + reduction vs Yosys.

    ``results[case][flow]`` holds the flow measurements; the ``yosys``
    and ``smartly`` presets are required per case.
    """
    if paper is None:
        paper = PAPER_TABLE2
    lines = []
    header = (
        f"{'Case':<16}{'Original':>10}{'Yosys':>10}{'smaRTLy':>10}"
        f"{'Ratio':>9}{'Paper':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    total_orig = total_yosys = total_smartly = 0
    ratios: List[float] = []
    for case, per_opt in results.items():
        yosys = per_opt["yosys"]
        smartly = per_opt["smartly"]
        original = yosys.original_area
        ratio = (
            (yosys.optimized_area - smartly.optimized_area) / yosys.optimized_area
            if yosys.optimized_area
            else 0.0
        )
        ratios.append(ratio)
        total_orig += original
        total_yosys += yosys.optimized_area
        total_smartly += smartly.optimized_area
        paper_ratio = f"{paper[case].ratio_pct:8.2f}%" if case in paper else "     n/a"
        lines.append(
            f"{case:<16}{original:>10}{yosys.optimized_area:>10}"
            f"{smartly.optimized_area:>10}{_pct(ratio):>9}{paper_ratio:>9}"
        )
    count = max(1, len(results))
    avg_ratio = sum(ratios) / count
    paper_avg = 8.95
    lines.append("-" * len(header))
    lines.append(
        f"{'Average':<16}{total_orig // count:>10}{total_yosys // count:>10}"
        f"{total_smartly // count:>10}{_pct(avg_ratio):>9}{paper_avg:>8.2f}%"
    )
    return "\n".join(lines)


def render_table3(
    results: SuiteResults,
    paper: Optional[Mapping[str, PaperRow]] = None,
) -> str:
    """Table III: SAT-only / Rebuild-only / Full reductions vs Yosys."""
    if paper is None:
        paper = PAPER_TABLE2
    lines = []
    header = (
        f"{'Case':<16}{'SAT':>9}{'Rebuild':>9}{'Full':>9}"
        f"{'  |':>4}{'pSAT':>8}{'pReb':>8}{'pFull':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    sums = {"sat": 0.0, "rebuild": 0.0, "full": 0.0}
    for case, per_opt in results.items():
        yosys_area = per_opt["yosys"].optimized_area or 1
        reductions = {}
        for key, opt_name in (
            ("sat", "smartly-sat"),
            ("rebuild", "smartly-rebuild"),
            ("full", "smartly"),
        ):
            reductions[key] = (
                yosys_area - per_opt[opt_name].optimized_area
            ) / yosys_area
            sums[key] += reductions[key]
        row = paper.get(case)
        paper_cols = (
            f"{row.sat_pct:7.2f}%{row.rebuild_pct:7.2f}%{row.ratio_pct:7.2f}%"
            if row
            else "    n/a" * 3
        )
        lines.append(
            f"{case:<16}{_pct(reductions['sat']):>9}"
            f"{_pct(reductions['rebuild']):>9}{_pct(reductions['full']):>9}"
            f"{'  |':>4}{paper_cols}"
        )
    count = max(1, len(results))
    lines.append("-" * len(header))
    lines.append(
        f"{'Average':<16}{_pct(sums['sat'] / count):>9}"
        f"{_pct(sums['rebuild'] / count):>9}{_pct(sums['full'] / count):>9}"
        f"{'  |':>4}{3.57:7.2f}%{4.39:7.2f}%{8.95:7.2f}%"
    )
    return "\n".join(lines)


def render_industrial(results: SuiteResults) -> str:
    """§IV-B summary: per-point and aggregate extra reduction vs Yosys."""
    lines = []
    header = (
        f"{'Point':<18}{'Original':>10}{'Yosys':>10}{'smaRTLy':>10}{'Extra':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    ratios: List[float] = []
    for case, per_opt in results.items():
        yosys = per_opt["yosys"]
        smartly = per_opt["smartly"]
        extra = (
            (yosys.optimized_area - smartly.optimized_area) / yosys.optimized_area
            if yosys.optimized_area
            else 0.0
        )
        ratios.append(extra)
        lines.append(
            f"{case:<18}{yosys.original_area:>10}{yosys.optimized_area:>10}"
            f"{smartly.optimized_area:>10}{_pct(extra):>9}"
        )
    lines.append("-" * len(header))
    avg = sum(ratios) / max(1, len(ratios))
    lines.append(
        f"{'Average':<18}{'':>10}{'':>10}{'':>10}{_pct(avg):>9}"
        f"   (paper: 47.20%)"
    )
    return "\n".join(lines)
