"""The benchmark's layer hooks find their targets and keep them working.

``perfbench/tracing.py`` wraps each layer's entry point by module and
attribute name.  A target that is gone makes its layers read null in a
traced run, and one whose calling convention changed breaks only the
traced run (``install`` swaps a method for a plain function that passes
the instance on, so a classmethod would get the instance as its first
argument).  Untraced tier-1 runs see neither, so this test traces a
checked smartly run and a memoized suite job and compares their areas
with untraced runs.  It runs in a subprocess because ``install`` patches
``repro`` in place, and it only reads ``perfbench/``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_SCRIPT = r"""
import json
import sys

sys.path.insert(0, sys.argv[1])
import tracing

from repro.api import Session
from repro.equiv.differential import random_module


def areas():
    checked = Session(random_module(5, width=8, n_units=4)).run(
        "smartly", check=True
    )
    session = Session()
    suite = session.run_suite(
        {"job": random_module(6, width=8, n_units=4)}, ("smartly",),
        max_workers=1,
    )
    return [checked.optimized_area, suite["job"]["smartly"].optimized_area]


untraced = areas()
rec = tracing.Recorder()
missing = tracing.install(rec)
rec.enabled = True
traced = areas()
rec.enabled = False
json.dump({"missing": missing, "untraced": untraced, "traced": traced,
           "counters": rec.counters()}, sys.stdout)
"""


def test_hooks_install_and_trace_the_same_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(REPO / "perfbench")],
        capture_output=True, text=True, env=env, cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["missing"] == []
    assert result["traced"] == result["untraced"]
    counters = result["counters"]
    for name in ("core.cache_key_calls", "core.infer_calls", "equiv.proofs"):
        assert counters.get(name, 0) > 0, (name, counters)
