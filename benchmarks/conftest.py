"""Shared benchmark infrastructure.

``flow_cache`` memoises (case, flow) runs for the whole pytest session so
Table II, Table III and the ablations do not re-optimize the same circuits;
tables print at session end through the ``table_report`` collector.  Flows
run through the :mod:`repro.api` Session layer, each on a private clone of
the cached module.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.api import Session
from repro.flow.session import RunReport
from repro.workloads import build_case
from repro.workloads.industrial import INDUSTRIAL_POINTS, build_point

_flow_cache: Dict[Tuple[str, str], RunReport] = {}
_module_cache: Dict[str, object] = {}


def get_module(name: str):
    if name not in _module_cache:
        if name.startswith("ind_"):
            point = next(p for p in INDUSTRIAL_POINTS if p.name == name)
            _module_cache[name] = build_point(point)
        else:
            _module_cache[name] = build_case(name)
    return _module_cache[name]


def run_case(name: str, flow: str) -> RunReport:
    """One (case, flow) measurement on a private clone of the cached module."""
    return Session(get_module(name).clone()).run(flow)


def cached_flow(case: str, flow: str) -> RunReport:
    key = (case, flow)
    if key not in _flow_cache:
        _flow_cache[key] = run_case(case, flow)
    return _flow_cache[key]


@pytest.fixture(scope="session")
def flow_cache():
    return cached_flow


class _Report:
    """Collects rendered tables; prints them once at session end."""

    def __init__(self):
        self.sections: Dict[str, str] = {}

    def add(self, title: str, text: str) -> None:
        self.sections[title] = text


_report = _Report()


@pytest.fixture(scope="session")
def table_report():
    return _report


def pytest_sessionfinish(session, exitstatus):
    if not _report.sections:
        return
    print("\n")
    for title, text in _report.sections.items():
        print("=" * 72)
        print(title)
        print("=" * 72)
        print(text)
        print()
