"""Smoke test of the end-to-end benchmark (``python -m pytest benchmarks/e2e -q``).

Runs every workload at ``--scale smoke`` with a fixed operation count, plain
and traced, and checks the shape of what comes out — not how fast it is.
"""

import importlib.util
import inspect
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SIDECAR = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMOKE_OPS = 80
#: Counters that must repeat exactly for a seed when one client drives the run.
EXACT = ("olap.strategy.", "olap.cache.", "ingest.")


def run(workload: str, trace: int, tmp_path: Path, tag: str = "") -> tuple:
    """One smoke run in a subprocess: ``(result object, full record)``."""
    record_path = tmp_path / f"{workload}-{trace}{tag}.json"
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--scale", "smoke",
            "--ops", str(SMOKE_OPS), "--trace", str(trace), "--json", str(record_path),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.rstrip().splitlines()[-1])
    return result, json.loads(record_path.read_text(encoding="utf-8"))


def check_result(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= SMOKE_OPS
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert NAME.fullmatch(metric["name"])
        assert reported["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(reported["value"]), metric["name"]


def test_benchmark_json_and_sidecar_agree():
    assert SIDECAR["claim"] is None
    assert [metric["name"] for metric in SPEC["per_layer"]] == list(SIDECAR["per_layer"])
    assert {metric["name"] for metric in SPEC["end_to_end"]} <= set(SIDECAR["end_to_end"])
    for entry in list(SIDECAR["end_to_end"].values()) + list(SIDECAR["per_layer"].values()):
        assert set(entry["workloads"]) <= set(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_plain(workload, tmp_path):
    result, record = run(workload, 0, tmp_path)
    check_result(result, SPEC["end_to_end"])
    assert all(result["metrics"][metric["name"]]["value"] > 0 for metric in SPEC["end_to_end"])
    assert record["failed_share"] == 0 and record["verified"] >= 20 and record["wrong"] == 0
    writes = workload in SIDECAR["end_to_end"]["write_p50_ms"]["workloads"]
    assert (record["per_layer"]["write_p50_ms"]["value"] > 0) == writes
    assert (record["per_layer"]["updates_per_s"]["value"] > 0) == writes


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_traced(workload, tmp_path):
    result, record = run(workload, 1, tmp_path)
    check_result(result, SPEC["per_layer"])
    layers = {name: metric["value"] for name, metric in result["metrics"].items()}

    # A layer metric reads 0 wherever the sidecar does not list the workload:
    # this is how the workload pairs separate the layers.
    for name, entry in SIDECAR["per_layer"].items():
        if workload not in entry["workloads"]:
            assert layers[name] == 0, name
    timed_ops = layers["trace.ops"]
    assert timed_ops >= SMOKE_OPS // 2
    if workload in ("nav_warm", "nav_pressure"):
        assert layers["olap.planner.plan.calls"] >= timed_ops
    if workload == "scratch_parallel":
        assert layers["olap.parallel.answer.calls"] == timed_ops
    if workload == "nav_pressure":
        assert layers["olap.cache.evictions"] > 0

    # Self times of one operation's spans never exceed its root span.
    spans = record["spans"]
    durations = [span["end"] - span["start"] for span in spans]
    self_times = list(durations)
    root_of = []
    for position, span in enumerate(spans):
        parent = span["parent"]
        assert parent is None or parent < position
        root_of.append(position if parent is None else root_of[parent])
        if parent is not None:
            self_times[parent] -= durations[position]
    totals = {}
    for position, root in enumerate(root_of):
        totals[root] = totals.get(root, 0.0) + self_times[position]
    for root, total in totals.items():
        assert total <= durations[root] + 1e-9, spans[root]

    if workload != "serve_mixed":  # two clients interleave: counters vary run to run
        again, _ = run(workload, 1, tmp_path, tag="-again")
        for name, metric in again["metrics"].items():
            if name.startswith(EXACT) and not name.endswith(".self_s"):
                assert metric["value"] == layers[name], name


def test_tracer_restores_every_attribute():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("e2e_trace", HERE / "trace.py")
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)

    from repro.olap.session import OLAPSession
    from repro.olap import rewriting
    from repro.algebra import operators

    original_execute = inspect.getattr_static(OLAPSession, "execute")
    original_select = operators.select
    tracer = trace.Tracer()
    targets = tracer.targets()
    # ``from x import select`` aliases are patched along with the definition.
    assert {id(owner) for owner, _, _ in targets} >= {id(rewriting), id(operators)}
    with tracer:
        assert inspect.getattr_static(OLAPSession, "execute") is not original_execute
        assert rewriting.select is operators.select is not original_select
    for owner, attribute, original in targets:
        assert inspect.getattr_static(owner, attribute) is original, (owner, attribute)
