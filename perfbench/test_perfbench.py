"""Smoke tests of the benchmark itself: python3 -m pytest perfbench -q

Each workload runs at a tiny size, and every check is shown to fail when
handed a wrong expected value, so no check passes vacuously.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

import oracles
import run
from harness import ROOT, CheckFailed, load_package, run_ops
from workloads import CHECKS, Cli, Game, Search, Telescope


@pytest.fixture(scope="module")
def lib():
    return load_package()


def passes(workload, op, result, **kwargs):
    workload.check(op, result, **kwargs)
    return True


@pytest.mark.parametrize("dims, total", [((3, 3), 6), ((2, 3, 4), 10), ((3, 3, 3), 20)])
def test_generator_reaches_exactly_the_enumerated_grids(lib, dims, total):
    seen = {
        tuple(tuple(c) for c in oracles.maximal_grid_obj(dims, random.Random(seed))["ones"])
        for seed in range(2000)
    }
    shape = lib.core.Shape(dims)
    listed = {g.ones for g in lib.enumeration.enumerate_maximal(shape, max_cells=27).grids}
    assert len(listed) == total
    assert seen == listed


def test_expected_counts_match_the_enumerator_on_small_shapes(lib):
    for dims in Search.tiny_shapes(max_cells=16):
        assert oracles.expected_count(dims) == lib.enumeration.count_maximal(lib.core.Shape(dims))
    assert oracles.macmahon(2, 2, 2) == 20
    assert oracles.expected_count((4, 4, 3)) == 175


def test_search_check_rejects_a_wrong_count(lib):
    workload = Search()
    fx = workload.bind(lib)
    for kind in ("count", "enumerate"):
        op = ((2, 3, 2), kind, False)
        result = workload.call(fx, op)
        assert passes(workload, op, result)
        with pytest.raises(CheckFailed):
            workload.check(op, result, expected_count=lambda d: oracles.expected_count(d) + 1)
    op = ((3, 3), "enumerate", False)
    report = workload.call(fx, op)
    duplicated = replace(report, grids=report.grids[:-1] + (report.grids[0],))
    with pytest.raises(CheckFailed):
        workload.check(op, duplicated)


def test_telescope_check_rejects_wrong_values(lib):
    workload = Telescope()
    fx = workload.bind(lib)
    dims = (4, 3, 3)
    op = (dims, oracles.maximal_grid_obj(dims, random.Random(5)))
    verdict, levels, final = workload.call(fx, op)
    assert passes(workload, op, (verdict, levels, final))
    with pytest.raises(CheckFailed):
        workload.check(((4, 3, 4), op[1]), (verdict, levels, final))
    m, normalized, peeled = levels[0]
    wrong_steps = SimpleNamespace(steps=normalized.steps + 1, result=normalized.result)
    with pytest.raises(CheckFailed):
        workload.check(op, (verdict, [(m, wrong_steps, peeled)] + levels[1:], final))
    with pytest.raises(CheckFailed):
        workload.check(op, (verdict, levels, levels[-1][0]))


def test_game_check_rejects_a_wrong_loser(lib):
    workload = Game()
    fx = workload.bind(lib)
    op = ((3, 3), 2, ("lex", "random"), 42)
    transcript = workload.call(fx, op)
    assert passes(workload, op, transcript)
    with pytest.raises(CheckFailed):
        workload.check(op, replace(transcript, loser=1 - transcript.loser))
    with pytest.raises(CheckFailed):
        workload.check(((3, 3), 3, ("lex",) * 3, 42), transcript)


def test_cli_check_rejects_wrong_bytes_and_wrong_values():
    workload = Cli()
    fx = workload.bind(None)
    cheap = [op for op in workload.script() if op[0][0] in ("size", "normalize", "extend")]
    for op in cheap:
        assert passes(workload, op, workload.call(fx, op))
    args, stdin, want = cheap[0]
    result = workload.call(fx, cheap[0])
    with pytest.raises(CheckFailed):
        workload.check((args, stdin, want.replace("5", "6")), result)
    lie = want.replace("5", "6")
    with pytest.raises(CheckFailed):
        workload.check((args, stdin, lie), (0, lie, ""))
    with pytest.raises(CheckFailed):
        workload.check(cheap[0], (1, want, ""))


def test_run_ops_counts_raising_ops_and_failed_checks():
    def call(index, op):
        if op == "raise":
            raise ValueError("boom")
        return op

    def check(op, result):
        if result == "wrong":
            raise CheckFailed("wrong")

    outcome = run_ops(["ok", "raise", "wrong", "ok"], call, check, seconds=10)
    assert (outcome.attempted, outcome.failed, len(outcome.latencies)) == (4, 2, 3)


@pytest.mark.parametrize("workload", [Search(), Telescope(), Game()])
def test_traced_run_reports_spans_on_a_tiny_plan(monkeypatch, workload):
    full = workload.plan
    monkeypatch.setattr(workload, "plan", lambda seed, seconds: full(seed, seconds)[:12])
    tracer, outcome, overhead, metrics = workload.trace(seed=3, seconds=30)
    assert outcome.failed == 0 and outcome.attempted >= 12
    assert tracer.spans and all(end >= start for _, start, end, _, _ in tracer.spans)
    assert set(metrics) <= set(run.per_layer_units())


def test_traced_cli_run_on_a_short_script(monkeypatch):
    workload = Cli()
    short = [op for op in Cli.script() if op[0][0] != "verify" or op[0][2] == "2,2,2"]
    monkeypatch.setattr(Cli, "script", staticmethod(lambda: list(short)))
    tracer, outcome, overhead, metrics = workload.trace(seed=3, seconds=60)
    assert outcome.failed == 0
    assert metrics["enumeration.brute_force.hit_ratio"] == 2 / 2**8
    totals = tracer.totals()
    assert all(totals[f"verification.{name}"][1] == 1 for name in CHECKS)
    assert totals["enumeration.brute_force_maximal"][0] > 0
    assert set(metrics) <= set(run.per_layer_units())


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_result_line_follows_the_contract():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
