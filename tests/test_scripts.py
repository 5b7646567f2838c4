"""Smoke runs of the scripts, so an API change cannot break them unseen."""

import csv
import importlib.util
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from phm.cloud import load_ply

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name))["main"]()


def test_ablation_sweep_scores_every_setting(monkeypatch, capsys):
    run_script("ablation_sweep.py", monkeypatch, "--points", "800")
    scores = [line.split("score=")[1] for line in capsys.readouterr().out.splitlines()
              if "score=" in line]
    assert len(scores) == 15
    assert all(0.0 < float(s) <= 1.0 for s in scores)


def test_noise_sweep_prints_a_row_per_level(monkeypatch, capsys):
    run_script("noise_sweep.py", monkeypatch, "--points", "800")
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    rows = [r for r in rows if len(r) == 7 and r[0][0].isdigit()]  # level, then the report
    assert len(rows) == 8
    assert all(0.0 < float(r[-1]) <= 1.0 for r in rows)


def test_make_synthetic_writes_clouds_and_a_manifest(tmp_path, monkeypatch, capsys):
    run_script("make_synthetic.py", monkeypatch, "--out", str(tmp_path), "--points", "300",
               "--binary")
    with open(tmp_path / "manifest.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["pair_id"] for r in rows] == [f"noise_{s}" for s in (5, 10, 20, 40)] + [
        f"jitter_{s:g}" for s in (0.1, 0.5, 1.0, 2.0)]
    for r in rows:
        assert len(load_ply(r["ref_path"])) == len(load_ply(r["dist_path"])) == 300


def test_profile_pair_prints_one_json_line(monkeypatch, capsys):
    run_script("profile_pair.py", monkeypatch, "--points", "3000", "--seed", "5")
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert 0.0 < doc["score"] < 1.0
    assert doc["timing"]["prepare_reference"] > 0.0 and doc["peak_rss_mb"] > 0.0


def test_profile_pair_jitter_moves_the_distorted_points(monkeypatch, capsys):
    docs = []
    for jitter in ("0", "0.5"):
        run_script("profile_pair.py", monkeypatch, "--points", "3000", "--seed", "5",
                   "--jitter", jitter)
        docs.append(json.loads(capsys.readouterr().out))
    assert [doc["jitter"] for doc in docs] == [0.0, 0.5]
    # Jitter costs the copy geometry on top of the same luminance noise.
    assert 0.0 < docs[1]["score"] < docs[0]["score"] < 1.0


def test_profile_pair_ascii_scores_the_files_it_writes(monkeypatch, capsys):
    docs = []
    for flags in ((), ("--ascii",)):
        run_script("profile_pair.py", monkeypatch, "--points", "3000", "--seed", "5", *flags)
        docs.append(json.loads(capsys.readouterr().out))
    plain, ascii_files = docs
    assert not plain["ascii"] and plain["load_s"] is None
    assert ascii_files["ascii"] and ascii_files["load_s"] > 0.0
    # save_ply's float32 positions move the score by rounding only.
    assert ascii_files["score"] == pytest.approx(plain["score"], abs=1e-6)


# --- bench_snapshot.py, with every process it starts answered in-process -----

WORKLOADS = [w["name"] for w in json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())["workloads"]]


def fake_snapshot(monkeypatch, status, runs):
    """bench_snapshot as a module whose git and benchmark processes answer from ``runs``.

    ``runs`` maps a workload to its (exit code, stdout); no process starts.
    """
    spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPTS / "bench_snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def run(cmd, **kwargs):
        if cmd[0] == "git":
            answer = {"rev-parse": "abc1234", "status": status}[cmd[3]]
            return subprocess.CompletedProcess(cmd, 0, answer + "\n", "")
        code, stdout = runs[cmd[cmd.index("--workload") + 1]]
        return subprocess.CompletedProcess(cmd, code, stdout, "")

    monkeypatch.setattr(module.subprocess, "run", run)
    return module


def bench_output(workload, correct=True):
    """(provenance, result, stdout) of one benchmark run, as ``perfbench/run.py`` prints them."""
    provenance = {"git_commit": "abc1234", "workload": workload}
    result = {"correct": correct, "attempted": 6, "failed": 0 if correct else 1,
              "metrics": {"pairs_per_s": {"value": 1.5, "unit": "1/s"}}}
    lines = ["warming up", json.dumps({"provenance": provenance}), f"{workload} pairs_per_s = 1.5",
             json.dumps({"note": "not the result"}), json.dumps(result)]
    return provenance, result, "\n".join(lines) + "\n"


@pytest.mark.parametrize("status, name", [("", "BENCH_abc1234.json"),
                                          (" M src/phm/cli.py", "BENCH_abc1234-dirty.json")],
                         ids=["clean", "dirty"])
def test_bench_snapshot_keeps_each_provenance_and_result(monkeypatch, tmp_path, capsys, status,
                                                         name):
    outputs = {w: bench_output(w) for w in WORKLOADS}
    snapshot = fake_snapshot(monkeypatch, status, {w: (0, out) for w, (*_, out) in outputs.items()})
    assert snapshot.main(["--out", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == [name]
    doc = json.loads((tmp_path / name).read_text())
    assert (doc["commit"], doc["dirty"]) == ("abc1234", status != "")
    assert doc["workloads"] == {w: {"provenance": provenance, "result": result}
                                for w, (provenance, result, _) in outputs.items()}


MISS = bench_output(WORKLOADS[0], correct=False)


@pytest.mark.parametrize("code, stdout, want", [
    (3, "Traceback (most recent call last):\n", {"exit": 3}),  # no JSON line
    (1, json.dumps({"provenance": MISS[0]}) + "\nTraceback (most recent call last):\n",
     {"exit": 1}),  # a crash after the provenance line
    (1, MISS[2], {"provenance": MISS[0], "result": MISS[1]}),  # "correct": false
], ids=["no-result", "crash-after-provenance", "miss"])
def test_bench_snapshot_exits_1_for_a_run_without_a_result_or_a_miss(monkeypatch, tmp_path,
                                                                      capsys, code, stdout, want):
    runs = {w: (0, bench_output(w)[2]) for w in WORKLOADS[1:]}
    snapshot = fake_snapshot(monkeypatch, "", {WORKLOADS[0]: (code, stdout), **runs})
    assert snapshot.main(["--out", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "BENCH_abc1234.json").read_text())
    assert doc["workloads"][WORKLOADS[0]] == want
    assert all("result" in doc["workloads"][w] for w in WORKLOADS[1:])
