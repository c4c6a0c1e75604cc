"""Smoke tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs in a fresh process for half a second, untraced (which
still runs at least ``run.MIN_TASKS`` tasks) and traced; the in-process
tests check that wrong answers and raised errors count as failures and that
the tracer puts every original function back.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, env=None):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, env=env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_TASKS
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert f"metric fail_ratio = 0 1 (0 of {result['attempted']} tasks)" in lines
    # the scaled metrics come with the reference timings and the unscaled figures
    assert any(line.startswith("reference_work: ") for line in lines)
    assert any(line.startswith("unscaled: tasks_per_s ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # the traced run replays every task of its untraced half
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 and result["attempted"] % 2 == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_set_caps_are_refused():
    proc = _run("suites", 0, env={**os.environ, "L2GROWTH_CAPS": "order=50"})
    assert proc.returncode != 0
    assert "L2GROWTH_CAPS" in proc.stderr and proc.stdout == ""


def test_wrong_answer_is_a_failure(monkeypatch):
    from l2growth.covers import CoverInstance

    workload = workloads.WORKLOADS["abelian_large"](ROOT, 5)
    betti = CoverInstance.betti
    monkeypatch.setattr(CoverInstance, "betti", lambda self, q: betti(self, q) + (q == 0))
    lines = []
    records, wall = run.run_tasks(workload, count=2, log=lines.append)
    assert run.summarize(records, wall)["failed"] == 2
    assert all(" FAIL " in line and "MISMATCH" in line for line in lines)


def test_raised_error_is_a_failure(monkeypatch):
    import l2growth
    from l2growth.errors import OrderCapExceeded

    def refuse(*args, **kwargs):
        raise OrderCapExceeded("refused")

    workload = workloads.WORKLOADS["congruence"](ROOT, 5)
    monkeypatch.setattr(l2growth, "quotient", refuse)
    lines = []
    records, wall = run.run_tasks(workload, count=2, log=lines.append)
    assert run.summarize(records, wall)["failed"] == 2
    assert all("OrderCapExceeded" in line for line in lines)


def test_tracer_restores_every_original():
    import l2growth.groups
    import l2growth.spectral
    from l2growth.covers import CoverInstance

    quotient = l2growth.groups.quotient
    init = CoverInstance.__dict__["__init__"]
    patches = spans.install(spans.Tracer())
    try:
        assert l2growth.spectral.make_quotient is not quotient  # alias wrapped too
        assert CoverInstance.__dict__["__init__"] is not init
    finally:
        stale = spans.uninstall(patches)
    assert stale == []
    assert l2growth.spectral.make_quotient is quotient
    assert CoverInstance.__dict__["__init__"] is init
