"""Tests of the benchmark itself:  python3 -m pytest bench

They run tiny passes (the first two items of each workload), so they take
seconds rather than the minutes of a real run.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

assert run.load_program() is not None
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)


def tiny(workload, n=2):
    return dataclasses.replace(workload, items=lambda ctx, s: workload.items(ctx, s)[:n])


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_contract_names_known_workloads():
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_pass_prints_every_metric_with_its_unit(name, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, name, tiny(workloads.WORKLOADS[name]))
    trace = name == "cli-pipeline"        # one traced pass covers the per-layer path
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(int(trace))]) == 0
    result = last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_planted_wrong_expectations_are_counted(capsys):
    cpn = workloads.POSITIVE_POOL[4]
    planted = [
        workloads.certify_workload("wrong-verdict", "", [cpn], "nonpositive-witness",
                                   100, 75.0),
        workloads.certify_workload("wrong-minimum", "", [(*cpn[:3], 0.4)], "positive",
                                   100, 75.0),
    ]
    for workload in planted:
        raw = run.measure(workload, seed=0, seconds=0)
        assert raw["attempted"] == 1 and len(raw["errors"]) == 1
    out = capsys.readouterr().out
    assert "verdict positive, expected nonpositive-witness" in out
    assert "reference 0.4" in out


def _probe_workload():
    """One item that reports which homcurv functions are wrapped while it runs."""
    def probe():
        return sorted(key for key, fn in spans.homcurv_functions().items()
                      if hasattr(fn, "__homcurv_traced__"))

    item = workloads.Item("probe", probe, lambda out: None if not out else f"wrapped {out}")
    return workloads.Workload("probe", "", 50.0, lambda d: None, lambda ctx, s: [item])


def test_untraced_run_leaves_every_function_unwrapped(capsys):
    before = spans.homcurv_functions()
    raw = run.measure(_probe_workload(), seed=0, seconds=0)
    assert raw["errors"] == []
    assert spans.homcurv_functions() == before

    traced = run.measure(_probe_workload(), seed=0, seconds=0, tracer=layers.make_tracer())
    wrapped = traced["errors"][0]
    for module, attr in [("homcurv.certify", "certify"), ("homcurv.cli", "certify"),
                         ("homcurv.acceptance", "certify"), ("homcurv", "catalog_build"),
                         ("homcurv.curvature", "Curvature.sectional")]:
        assert repr((module, attr)) in wrapped
    assert spans.homcurv_functions() == before


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    with tracer.item(0):
        outer()
    s = tracer.summary()
    assert s["inner"]["calls"] == 3 and s["outer"]["calls"] == 1
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["total_s"] - s["inner"]["total_s"])
    assert s["item"]["total_s"] >= s["outer"]["total_s"]
    assert tracer.count_under("inner", "outer") == 3


def test_without_program_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-pipeline",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
