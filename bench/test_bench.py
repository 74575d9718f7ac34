"""Tests of the benchmark itself.

    python3 -m pytest bench

They pin the deterministic counters of the smoke workload (wedge and
spines(3)), check that the benchmark names nothing private in kripkit,
and check that BENCHMARK.json, the workloads and the recorded digests
agree with each other.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import tracing
from workloads import WORKLOADS

# The benchmark's program files; this test file names private members
# only to check that they are caught.
BENCH_FILES = sorted(os.path.join(harness.BENCH_DIR, name)
                     for name in os.listdir(harness.BENCH_DIR)
                     if name.endswith(".py") and name != "test_bench.py")
PACKAGE_DIR = os.path.join(harness.SRC, harness.PACKAGE)
MEASURED = ("hm-random", "spines-equiv", "eval-wide", "cli-small")

# Counters of one traced smoke sweep at the commit that added the
# benchmark.  A change that moves one of them changes what the program
# does on wedge or spines(3), not just how fast.
SMOKE_COUNTERS = {
    "bisim.rounds": 9,
    "bisim.removals": 121,
    "distinguish.witnesses": 114,
    "distinguish.witness_chars_max": 54,
    "distinguish.oracle_exact": 2,
    "formula.nodes": 6,
    "semantics.truth_set_calls": 480,
    "relations.compose_calls": 12,
    "cli.out_bytes": 10590,
}


def _private_package_names() -> set[str]:
    """Every non-dunder name starting with an underscore that the
    package defines or assigns: functions, classes, globals and
    attributes such as Model._eval_cache."""
    names = set()
    for filename in os.listdir(PACKAGE_DIR):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE_DIR, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found = node.name
            elif isinstance(node, ast.Name):
                found = node.id
            elif isinstance(node, ast.Attribute):
                found = node.attr
            else:
                continue
            if found.startswith("_") and found.strip("_") \
                    and not found.startswith("__"):
                names.add(found)
    return names


def _mentions(path: str) -> set[str]:
    """Identifiers, attributes, imported names and string constants
    used in one benchmark file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(node.value.replace(".", " ").split())
    return found


def test_benchmark_names_nothing_private_in_the_package():
    private = _private_package_names()
    assert {"_eval_cache", "_SideOps", "_emit"} <= private
    for path in BENCH_FILES:
        clash = _mentions(path) & private
        assert not clash, f"{os.path.basename(path)} names {sorted(clash)}"


def test_wrapped_functions_are_public():
    for module, attr, key in tracing.WRAPPED:
        assert not any(part.startswith("_") for part in attr.split("."))
        assert key.split(".")[0] in ("formula", "model", "relations",
                                     "semantics", "bisim", "distinguish",
                                     "genframe", "cli")


def _smoke_counters(workdir):
    plan, _ = harness.set_up(WORKLOADS["smoke"], str(workdir))
    tracer = tracing.Tracer()
    tracer.install()
    problems = []
    try:
        sweeps = [harness.run_sweep(plan, range(len(plan.ops)), {}, problems,
                                    tracer, full=True) for _ in range(2)]
    finally:
        tracer.uninstall()
    assert problems == []
    out = []
    for sw in sweeps:
        counters = {k: sw.counters[k] for k in SMOKE_COUNTERS
                    if k in sw.counters}
        counters["cli.out_bytes"] = sw.out_bytes
        out.append(counters)
    return out


def test_smoke_counters_repeat_and_are_pinned(tmp_path):
    first, second = _smoke_counters(tmp_path / "a")
    assert first == second
    assert first == SMOKE_COUNTERS
    again, _ = _smoke_counters(tmp_path / "b")
    assert again == first


def test_uninstall_restores_the_package(tmp_path):
    kk, mods = harness.import_package()
    before = (kk.truth_set, kk.distinguish.greatest_bisimulation,
              kk.Model.validate, mods.cli.main, mods.cli.load_model)
    tracer = tracing.Tracer()
    tracer.install()
    assert kk.distinguish.greatest_bisimulation is not before[1]
    assert kk.bisim.greatest_bisimulation is \
        kk.distinguish.greatest_bisimulation
    tracer.uninstall()
    assert (kk.truth_set, kk.distinguish.greatest_bisimulation,
            kk.Model.validate, mods.cli.main, mods.cli.load_model) == before


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: WORKLOADS[name].why for name in MEASURED}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        harness.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("name", MEASURED + ("smoke",))
def test_digests_are_recorded_for_every_operation(name, tmp_path):
    plan, _ = harness.set_up(WORKLOADS[name], str(tmp_path))
    assert sorted(op.key for op in plan.ops) == \
        sorted(harness.load_expected(name))


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_result_line(trace):
    proc = _run(harness.ROOT, "--workload", "smoke", "--seed", "3",
                "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = harness.PER_LAYER if trace == "1" else harness.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(harness.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work",
                                                  "out"))
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "--workload", "hm-random", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
