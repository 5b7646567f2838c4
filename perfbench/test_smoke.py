"""Smoke tests of the benchmark itself, at the tiny input scale.

    python3 -m pytest -q perfbench/test_smoke.py

They check that every metric prints with its unit, that the correctness
gate trips on a perturbed expected score, that traced and untraced scores
are bit-identical, and that the benchmark refuses to run without the
program's sources.
"""

import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


def bench(*extra, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), *extra], capture_output=True, text=True,
                          timeout=170, cwd=cwd)


def result_line(proc) -> dict:
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
                 "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    doc = result_line(proc)
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in doc["metrics"].items()}
    lines = proc.stdout.splitlines()
    for m in declared:
        assert any(line.startswith(f"{workload} {m['name']} = ") and line.split("(")[0].rstrip()
                   .endswith(f" {m['unit']}") for line in lines), m["name"]
    if not trace:
        assert any(line.startswith(f"{workload} failed_frac = 0 ") for line in lines)


def test_perturbed_expected_score_trips_gate(tmp_path):
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    case = expected["cases"]["tiny"]["pair-ladder"]["pl00"]
    case["score"] += 2 * run.SCORE_ATOL
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    proc = bench("--workload", "pair-ladder", "--seed", "5", "--seconds", "1", "--trace", "0",
                 "--scale", "tiny", "--expected", str(path))
    assert proc.returncode == 1
    doc = result_line(proc)
    assert doc["correct"] is False and doc["failed"] >= 1
    assert "pl00: score" in proc.stderr


def test_traced_scores_are_bit_identical():
    phm = run.import_phm()
    case = run.inputs.pair_pool("pair-ladder", "tiny")[1]
    rp, rc, dp, dc = run.inputs.materialize(case)
    cloud = phm.cloud.PointCloud
    ref, dist = cloud.from_arrays(rp, rc), cloud.from_arrays(dp, dc)
    plain = phm.metric.phm_score(ref, dist).to_dict()
    tracer = run.Tracer()
    replacements, missing = run.instrument(tracer)
    assert missing == []
    with run.patched(replacements):
        traced = phm.metric.phm_score(ref, dist).to_dict()
    assert tracer.calls["patches.eigh"] > 0
    for report in (plain, traced):
        report["diagnostics"].pop("timing")
    assert traced == plain
    assert phm.metric.phm_score.__name__ == "phm_score"  # wrappers removed again
    assert isinstance(inspect.getattr_static(phm.cloud.PointCloud, "from_arrays"), classmethod)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    script = tmp_path / "perfbench" / "run.py"
    proc = bench("--workload", "pair-ladder", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=script)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not os.path.exists(tmp_path / "src")
