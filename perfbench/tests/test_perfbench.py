"""Tests of the benchmark itself: smoke runs of each workload at tiny size,
the tracer's self-time arithmetic, and tracer clean-up.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _spec(kind: str) -> dict[str, tuple[str, str]]:
    return {m["name"]: (m["unit"], m["better"]) for m in SPEC[kind]}


def _package_attributes() -> dict[tuple[str, str], object]:
    return {
        (name, key): value
        for name, module in sorted(sys.modules.items())
        if name == "confcause" or name.startswith("confcause.")
        for key, value in vars(module).items()
        if callable(value)
    }


def test_metric_tables_match_benchmark_json():
    assert {n: (u, b) for n, u, b in run.END_TO_END} == _spec("end_to_end")
    assert {n: (u, b) for n, u, b in run.PER_LAYER} == _spec("per_layer")
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_reports_every_metric(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    before = _package_attributes()
    result = run.measure(name, seed=5, seconds=0, trace=trace, size="tiny")
    assert result["correct"], result["detail"]["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = _spec("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(expected)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == expected[metric][0], metric
        assert isinstance(entry["value"], (int, float)), metric
        assert math.isfinite(entry["value"]), metric
    json.dumps(result)
    if trace:
        assert (tmp_path / f"{name}-seed5-spans.csv").exists()
        assert result["metrics"]["discovery.fci.calls"]["value"] >= 1
    else:
        assert result["metrics"]["run_s"]["value"] > 0
    # every wrapper is gone and every attribute is the original object again
    assert tracer.leftover_wrappers() == []
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _fake_layer(monkeypatch, inner_raises: bool = False) -> types.ModuleType:
    module = types.ModuleType("confcause._fake_layer")

    def inner(x):
        if inner_raises:
            raise ValueError("inner failed")
        return x + 1

    def outer(x):
        return module.inner(x) + module.inner(x)

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def _fake_tracer(ticks):
    clock = iter(float(t) for t in ticks)
    return tracer.Tracer(
        {"fake.outer": ("confcause._fake_layer", "outer"),
         "fake.inner": ("confcause._fake_layer", "inner")},
        clock=lambda: next(clock),
    )


def test_self_time_is_span_time_minus_children(monkeypatch):
    module = _fake_layer(monkeypatch)
    originals = (module.outer, module.inner)
    # clock reads: harness start, outer start, inner 1 start/end,
    # inner 2 start/end, outer end, harness end
    t = _fake_tracer([0, 1, 3, 6, 10, 15, 21, 28])
    with t.installed(), t.span(tracer.HARNESS):
        assert module.outer(1) == 4
    times = t.layer_times()
    assert times["fake.inner"] == tracer.LayerTime(calls=2, self_s=8.0)
    assert times["fake.outer"] == tracer.LayerTime(calls=1, self_s=12.0)
    assert times[tracer.HARNESS] == tracer.LayerTime(calls=1, self_s=8.0)
    assert sum(lt.self_s for lt in times.values()) == 28.0
    parents = [(s.name, s.parent) for s in t.finished()]
    assert parents == [(tracer.HARNESS, -1), ("fake.outer", 0), ("fake.inner", 1), ("fake.inner", 1)]
    assert (module.outer, module.inner) == originals


def test_spans_close_and_wrappers_go_when_a_call_raises(monkeypatch):
    module = _fake_layer(monkeypatch, inner_raises=True)
    originals = (module.outer, module.inner)
    t = _fake_tracer(range(10))
    with pytest.raises(ValueError):
        with t.installed(), t.span(tracer.HARNESS):
            module.outer(1)
    assert [s.name for s in t.finished()] == [tracer.HARNESS, "fake.outer", "fake.inner"]
    assert (module.outer, module.inner) == originals
    assert tracer.leftover_wrappers() == []


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    benchmark exits non-zero and prints no result."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
