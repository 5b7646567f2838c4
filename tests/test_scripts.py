"""Smoke runs of the experiment scripts, so an API change cannot break them unseen."""

import csv
import json
import runpy
import sys
from pathlib import Path

from phm.cloud import load_ply

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name))["main"]()


def test_ablation_sweep_scores_every_setting(monkeypatch, capsys):
    run_script("ablation_sweep.py", monkeypatch, "--points", "800")
    scores = [line.split("score=")[1] for line in capsys.readouterr().out.splitlines()
              if "score=" in line]
    assert len(scores) == 21
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
