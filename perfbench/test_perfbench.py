"""Tests of the benchmark itself, on the tiny `smoke` sizes.

Run from the repository root:

    python3 -m pytest perfbench -q

They run every workload's checks on its default seed and on a second
seed, check the trace accounting, and check the result line against
BENCHMARK.json.  The analytic workload takes most of their time.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from tracer import Tracer, self_times, top_level_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# counts that must repeat exactly between traced runs of one seed
REPEATABLE = ("walksim.estimate_sup_many.calls", "walksim.pool_starts",
              "tailmath.sample.calls", "tailmath.renewal_integrated_tail_forms.calls",
              "quad.stieltjes_vs_tail.panels", "quad.stieltjes_vs_monotone.panels",
              "quad.improper_gl.panels")


@pytest.fixture(autouse=True)
def _tmp_inside(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_smoke_run_passes_and_repeats_its_counts(name):
    w = WORKLOADS[name]
    result = bench.Result(w, w.seed_for(0))
    tracer = Tracer()
    for _ in range(2):
        bench.run_rep(result, w.sizes["smoke"], tracer)
    assert result.failures == []
    assert result.attempted == 2 * w.n_checks

    first, second = (rep["metrics"] for rep in result.traced)
    for key in REPEATABLE:
        assert first[key] == second[key], key
    assert first["trace.top_level_share"] >= 0.95
    spans = result.traced[0]["spans"]
    assert sum(self_times(spans).values()) == pytest.approx(top_level_seconds(spans))
    assert all(parent < i for i, (_, _, _, parent, _) in enumerate(spans))

    import htwk.cli
    import htwk.verify
    assert not hasattr(htwk.verify.estimate_sup_many, "__wrapped__")
    assert not hasattr(htwk.cli.spec_to_model, "__wrapped__")


def test_trace_counts_match_the_code_paths():
    w = WORKLOADS["verify-quick"]
    result = bench.Result(w, w.seed_for(0))
    bench.run_rep(result, w.sizes["smoke"], Tracer())
    m = result.traced[0]["metrics"]
    # main, renewal, ladder_sum and ladder_tail each draw the sup ensemble
    assert m["walksim.estimate_sup_many.calls"] == 4
    assert m["walksim.pool_starts"] == 0
    assert m["walksim.useful_draw_ratio"] == 1.0
    assert m["walksim.cycles.steps"] > 0 and m["tailmath.sample.draws"] > 0
    assert all(m[f"verify.{b}.s"] > 0 for b in
               ("main", "renewal", "ladder_sum", "ladder_tail", "classes"))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_second_seed_passes(name):
    w = WORKLOADS[name]
    assert w.seed_for(1) != w.seed_for(0)
    result = bench.Result(w, w.seed_for(1))
    bench.run_rep(result, w.sizes["smoke"])
    assert result.failures == []
    assert result.attempted == w.n_checks


def test_seed_zero_is_the_shipped_default_and_seeds_cycle():
    for w, shipped in zip(WORKLOADS.values(), (42, 43, 17)):
        seeds = [w.seed_for(n) for n in range(16)]
        assert seeds[0] == shipped
        assert len(set(seeds)) == 16
        assert w.seed_for(16) == shipped


def test_tail_percentile_leaves_ten_samples_beyond():
    assert bench.tail_percentile([1.0] * 20) is None
    pct, value = bench.tail_percentile([float(i) for i in range(40)])
    assert (pct, value) == (75.0, 29.0)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "light-control",
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "verify-quick",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
