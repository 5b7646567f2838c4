import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phm
from phm.cli import main
from phm.cloud import load_ply, save_ply
from phm.evaluation import FitParams, logistic_map
from phm.synthetic import synthetic_cloud, with_luminance_noise


@pytest.fixture
def ply_pair(tmp_path):
    ref = synthetic_cloud(300, seed=1)
    dist = with_luminance_noise(ref, 20.0, seed=2)
    ref_path = tmp_path / "ref.ply"
    dist_path = tmp_path / "dist.ply"
    save_ply(ref, ref_path)
    save_ply(dist, dist_path, binary=True)
    return str(ref_path), str(dist_path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- score -------------------------------------------------------------------

def test_score_identity_json(ply_pair, capsys):
    ref, _ = ply_pair
    code, out, err = run_cli(capsys, "score", "--ref", ref, "--dist", ref)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["score"] == 1.0
    assert doc["status"] == "ok"


def test_score_plain_single_line(ply_pair, capsys):
    ref, dist = ply_pair
    code, out, err = run_cli(capsys, "score", "--ref", ref, "--dist", dist, "--plain")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1
    assert 0.0 < float(lines[0]) < 1.0


def test_score_missing_file_exits_1(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "score", "--ref", str(tmp_path / "nope.ply"), "--dist", str(tmp_path / "nope.ply"))
    assert code == 1
    doc = json.loads(err)
    assert "error" in doc and "message" in doc


def test_score_parse_error_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.ply"
    bad.write_bytes(b"not a ply at all\n")
    code, _, err = run_cli(capsys, "score", "--ref", str(bad), "--dist", str(bad))
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"


def test_score_precondition_exits_2(capsys, tmp_path):
    tiny = synthetic_cloud(10, seed=3)
    p = tmp_path / "tiny.ply"
    save_ply(tiny, p)
    code, _, err = run_cli(capsys, "score", "--ref", str(p), "--dist", str(p))
    assert code == 2
    assert json.loads(err)["error"] == "CloudTooSmall"


def test_score_non_finite_coordinates_exits_2(ply_pair, capsys, tmp_path):
    ref, _ = ply_pair
    bad = tmp_path / "nan.ply"
    text = Path(ref).read_bytes()
    head, body = text.split(b"end_header\n")
    bad.write_bytes(head + b"end_header\nnan" + body[body.index(b" "):])
    code, out, err = run_cli(capsys, "score", "--ref", ref, "--dist", str(bad))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "DomainError"


def write_double_ply(path, positions, colors):
    """An ascii PLY with ``property double`` coordinates, which float32 need not hold."""
    head = ("ply\nformat ascii 1.0\nelement vertex %d\nproperty double x\nproperty double y\n"
            "property double z\nproperty uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n" % len(positions))
    rows = "".join(f"{p[0]!r} {p[1]!r} {p[2]!r} {c[0]} {c[1]} {c[2]}\n"
                   for p, c in zip(positions.tolist(), colors.tolist()))
    path.write_text(head + rows)


def test_score_coordinates_beyond_float32_exit_2(ply_pair, capsys, tmp_path):
    # At 1e160 squared distances overflow to inf; the cloud is refused instead.
    ref, _ = ply_pair
    cloud = load_ply(ref)
    huge = tmp_path / "huge.ply"
    write_double_ply(huge, cloud.positions * 1e160, cloud.colors)
    code, out, err = run_cli(capsys, "score", "--ref", ref, "--dist", str(huge))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "DomainError"


def test_score_no_valid_patches_exits_3(capsys, tmp_path):
    # distorted cloud collapses to one coincident blob: no patch graph possible
    ref = synthetic_cloud(200, seed=9)
    blob = np.zeros((5, 3))
    from phm.cloud import PointCloud
    dist = PointCloud.from_arrays(blob, np.full((5, 3), 50, dtype=np.uint8))
    pr, pd = tmp_path / "r.ply", tmp_path / "d.ply"
    save_ply(ref, pr)
    save_ply(dist, pd)
    code, out, err = run_cli(capsys, "score", "--ref", str(pr), "--dist", str(pd))
    assert code == 3 and out == ""
    assert "no_valid_patches" in json.loads(err)["message"]


def test_score_with_config_file(ply_pair, capsys, tmp_path):
    ref, dist = ply_pair
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu": 2.0}))
    code, out, _ = run_cli(capsys, "score", "--ref", ref, "--dist", dist, "--config", str(cfg))
    assert code == 0
    base = json.loads(run_cli(capsys, "score", "--ref", ref, "--dist", dist)[1])
    assert json.loads(out)["omega"] != base["omega"]


def test_score_config_env_fallback(ply_pair, capsys, tmp_path, monkeypatch):
    ref, dist = ply_pair
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu": 2.0}))
    monkeypatch.setenv("PHM_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "score", "--ref", ref, "--dist", dist)
    assert code == 0
    assert json.loads(out)["omega"] == pytest.approx(
        1.0 / (1.0 + 2.0 * json.loads(out)["d_h"]), rel=1e-12)


def test_score_unknown_config_key_exits_1(ply_pair, capsys, tmp_path):
    ref, dist = ply_pair
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"muu": 2.0}))
    code, _, err = run_cli(capsys, "score", "--ref", ref, "--dist", dist, "--config", str(cfg))
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"


def test_score_config_naming_continuous_tail_exits_1(ply_pair, capsys, tmp_path):
    # The band-pass tail is always Hammond et al.'s 4/x^2; the old switch is an unknown key.
    ref, dist = ply_pair
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"continuous_tail": True}))
    code, out, err = run_cli(capsys, "score", "--ref", ref, "--dist", dist, "--config", str(cfg))
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"] == "ParseError" and "continuous_tail" in doc["message"]


@pytest.mark.parametrize("message", ["", "Unable to allocate 7.28 TiB for an array"],
                         ids=["bare", "numpy"])
def test_score_memory_error_exits_3_with_json_error(ply_pair, capsys, monkeypatch, message):
    import phm.cli

    def exhausted(ref, dist, cfg):
        raise MemoryError(message)

    monkeypatch.setattr(phm.cli, "phm_score", exhausted)
    ref, dist = ply_pair
    code, out, err = run_cli(capsys, "score", "--ref", ref, "--dist", dist)
    assert code == 3 and out == "" and len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"] == "MemoryError" and doc["message"] == (message or "out of memory")


@pytest.mark.parametrize("key, value", [("num_bandpass", 10**12), ("nb_bins", 10**9),
                                        ("alpha", 1e308)])
def test_score_oversized_config_value_exits_1(ply_pair, capsys, tmp_path, key, value):
    # Unbounded, these would allocate (C + 1) x N bands or Nb^2 WCMs and die
    # with a raw memory error instead of a JSON PhmError; such an alpha
    # would overflow D_H's normalizer and score NaN.
    ref, dist = ply_pair
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run_cli(capsys, "score", "--ref", ref, "--dist", dist, "--config", str(cfg))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ParseError" and key in json.loads(err)["message"]


@pytest.mark.parametrize("key, value", [("num_bandpass", 10**12), ("nb_bins", 10**9),
                                        ("alpha", 1e308)])
def test_batch_oversized_config_value_is_a_row_error(ply_pair, capsys, tmp_path, key, value):
    ref, dist = ply_pair
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, [["big", ref, dist, str(value)], ["ok", ref, dist, ""]],
                   extra_cols=(key,))
    out = tmp_path / "o.csv"
    assert run_cli(capsys, "batch", "--manifest", str(manifest), "--out", str(out))[0] == 0
    rows = {r["pair_id"]: r for r in csv.DictReader(out.read_text().splitlines())}
    assert rows["big"]["error"].startswith("ParseError") and rows["big"]["score"] == ""
    assert rows["ok"]["error"] == "" and rows["ok"]["score"] != ""


# --- batch -------------------------------------------------------------------

def write_manifest(path, rows, extra_cols=()):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pair_id", "ref_path", "dist_path", *extra_cols])
        w.writerows(rows)


def test_batch_identity_rows(ply_pair, capsys, tmp_path):
    ref, _ = ply_pair
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, [["a", ref, ref], ["b", ref, ref]])
    out_csv = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, "batch", "--manifest", str(manifest), "--out", str(out_csv))
    assert code == 0
    rows = list(csv.DictReader(out_csv.read_text().splitlines()))
    assert [r["pair_id"] for r in rows] == ["a", "b"]
    assert all(float(r["score"]) == 1.0 for r in rows)
    assert all(r["error"] == "" for r in rows)
    # a byte-order mark, as Excel's "CSV UTF-8" writes, is not part of the first column's name
    manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
    bom_csv = tmp_path / "bom.csv"
    assert run_cli(capsys, "batch", "--manifest", str(manifest), "--out", str(bom_csv))[0] == 0
    assert bom_csv.read_bytes() == out_csv.read_bytes()


def test_batch_partial_failure_keeps_going(ply_pair, capsys, tmp_path):
    ref, dist = ply_pair
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, [
        ["ok1", ref, dist],
        ["bad", ref, str(tmp_path / "missing.ply")],
        ["ok2", ref, ref],
    ])
    code, out, _ = run_cli(capsys, "batch", "--manifest", str(manifest))
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 3
    assert rows[1]["pair_id"] == "bad" and rows[1]["error"] != "" and rows[1]["score"] == ""
    assert rows[0]["error"] == "" and rows[2]["error"] == ""


def test_batch_deterministic_across_jobs(ply_pair, capsys, tmp_path):
    ref, dist = ply_pair
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, [["a", ref, dist], ["b", ref, ref], ["c", dist, dist]])
    out1, out8 = tmp_path / "o1.csv", tmp_path / "o8.csv"
    assert run_cli(capsys, "batch", "--manifest", str(manifest), "--jobs", "1", "--out", str(out1))[0] == 0
    assert run_cli(capsys, "batch", "--manifest", str(manifest), "--jobs", "8", "--out", str(out8))[0] == 0
    assert out1.read_bytes() == out8.read_bytes()


def test_batch_jobs_divide_the_tree_workers(ply_pair, capsys, tmp_path, monkeypatch):
    import phm.cli

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert phm.cloud.TREE_WORKERS == cpus
    seen, score = [], phm.cli.phm_score

    def spy(ref, dist, cfg):
        seen.append(phm.cloud.TREE_WORKERS)
        return score(ref, dist, cfg)

    monkeypatch.setattr(phm.cli, "phm_score", spy)
    ref, dist = ply_pair
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, [["a", ref, dist], ["bad", ref, str(tmp_path / "missing.ply")],
                              ["b", dist, ref], ["c", ref, ref]])
    outs = {}
    for jobs in ("1", "2"):
        seen.clear()
        outs[jobs] = tmp_path / f"o{jobs}.csv"
        assert run_cli(capsys, "batch", "--manifest", str(manifest), "--jobs", jobs,
                       "--out", str(outs[jobs]))[0] == 0
        assert seen == [max(1, cpus // int(jobs))] * 3
        assert phm.cloud.TREE_WORKERS == cpus
    assert outs["1"].read_bytes() == outs["2"].read_bytes()
    assert "missing file" in outs["2"].read_text()

    def broken(ref_path, rows):
        raise RuntimeError("boom")

    monkeypatch.setattr(phm.cli, "_score_reference", broken)  # a task that raises
    with pytest.raises(RuntimeError):
        main(["batch", "--manifest", str(manifest), "--jobs", "2"])
    assert phm.cloud.TREE_WORKERS == cpus


def test_batch_bad_rows_do_not_stop_the_batch(ply_pair, capsys, tmp_path):
    ref, dist = ply_pair
    nan_ply = tmp_path / "nan.ply"
    head, body = Path(ref).read_bytes().split(b"end_header\n")
    nan_ply.write_bytes(head + b"end_header\nnan" + body[body.index(b" "):])
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, [
        ["ok1", ref, dist, ""],
        ["nan", ref, str(nan_ply), ""],
        ["k1", ref, dist, "2.5"],
        ["ok2", ref, ref, ""],
    ], extra_cols=("k1",))
    out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
    assert run_cli(capsys, "batch", "--manifest", str(manifest), "--jobs", "1", "--out", str(out1))[0] == 0
    assert run_cli(capsys, "batch", "--manifest", str(manifest), "--jobs", "2", "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = {r["pair_id"]: r for r in csv.DictReader(out1.read_text().splitlines())}
    assert rows["nan"]["error"].startswith("DomainError") and rows["nan"]["score"] == ""
    assert rows["k1"]["error"].startswith("ParseError") and rows["k1"]["score"] == ""
    assert rows["ok1"]["error"] == "" and float(rows["ok2"]["score"]) == 1.0


def test_batch_coordinates_beyond_float32_are_a_row_error(ply_pair, capsys, tmp_path):
    ref, dist = ply_pair
    cloud = load_ply(ref)
    huge = tmp_path / "huge.ply"
    write_double_ply(huge, cloud.positions * 1e160, cloud.colors)
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, [["ok", ref, dist], ["huge", ref, str(huge)], ["ref", str(huge), ref]])
    out = tmp_path / "o.csv"
    assert run_cli(capsys, "batch", "--manifest", str(manifest), "--out", str(out))[0] == 0
    rows = {r["pair_id"]: r for r in csv.DictReader(out.read_text().splitlines())}
    assert rows["ok"]["error"] == "" and rows["ok"]["score"] != ""
    for pid in ("huge", "ref"):
        assert rows[pid]["error"].startswith("DomainError") and rows[pid]["score"] == ""


def test_batch_unwritable_out_fails_before_scoring(ply_pair, capsys, tmp_path, monkeypatch):
    import phm.cli

    calls = []
    monkeypatch.setattr(phm.cli, "phm_score", lambda *args: calls.append(args))
    ref, dist = ply_pair
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, [["a", ref, dist]])
    out = tmp_path / "no_such_dir" / "out.csv"
    code, stdout, err = run_cli(capsys, "batch", "--manifest", str(manifest), "--out", str(out))
    assert code == 1 and stdout == "" and calls == []
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_batch_unexpected_exception_fills_error_cell(ply_pair, capsys, tmp_path, monkeypatch):
    import phm.cli

    def broken(ref, dist, cfg):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(phm.cli, "phm_score", broken)
    ref, _ = ply_pair
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, [["a", ref, ref]])
    code, out, err = run_cli(capsys, "batch", "--manifest", str(manifest))
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert rows[0]["error"] == "ZeroDivisionError: boom"
    assert "Traceback" in err


@pytest.mark.parametrize("stage", ["prepare_reference", "phm_score"])
def test_batch_memory_error_is_a_plain_row_cell(ply_pair, capsys, tmp_path, monkeypatch, stage):
    # Running out of memory is an input too large, not a defect: no traceback.
    import phm.cli

    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(phm.cli, stage, exhausted)
    ref, dist = ply_pair
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, [["a", ref, dist], ["b", ref, ref]])
    code, out, err = run_cli(capsys, "batch", "--manifest", str(manifest))
    assert code == 0 and err == ""
    rows = list(csv.DictReader(out.splitlines()))
    assert [(r["error"], r["score"]) for r in rows] == [("MemoryError: out of memory", "")] * 2


def pooled_trees(monkeypatch, workers=2):
    """Small KNN blocks, so a 300-point cloud's queries run on the pool of ``workers`` threads."""
    import phm.cloud

    monkeypatch.setattr(phm.cloud, "KNN_BLOCK_ROWS", 64)
    monkeypatch.setattr(phm.cloud, "TREE_WORKERS", workers)


@pytest.fixture
def second_block_exhausted(monkeypatch):
    """Every tree a SpatialIndex builds raises MemoryError on its second query call."""
    import threading

    import phm.cloud
    from scipy.spatial import cKDTree

    lock, seen = threading.Lock(), []

    class Exhausted(cKDTree):
        def query(self, x, k, workers):
            with lock:
                self.calls = getattr(self, "calls", 0) + 1
                seen.append(workers)
                if self.calls == 2:
                    raise MemoryError()
            return super().query(x, k=k, workers=workers)

    pooled_trees(monkeypatch)
    monkeypatch.setattr(phm.cloud, "cKDTree", Exhausted)
    return seen


def test_score_memory_error_in_a_pooled_block_exits_3(ply_pair, capsys, second_block_exhausted):
    ref, dist = ply_pair
    code, out, err = run_cli(capsys, "score", "--ref", ref, "--dist", dist)
    assert code == 3 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "MemoryError", "message": "out of memory"}
    assert second_block_exhausted == [1, 1]  # one tree thread per block: the pool ran


def test_batch_memory_error_in_a_pooled_block_is_a_plain_row_cell(ply_pair, capsys, tmp_path,
                                                                  second_block_exhausted):
    ref, dist = ply_pair
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, [["a", ref, dist], ["b", ref, ref]])
    code, out, err = run_cli(capsys, "batch", "--manifest", str(manifest))
    assert code == 0 and err == ""
    rows = list(csv.DictReader(out.splitlines()))
    assert [(r["error"], r["score"]) for r in rows] == [("MemoryError: out of memory", "")] * 2
    assert second_block_exhausted == [1, 1]


@pytest.mark.parametrize("jobs", [1, 2])
def test_batch_jobs_that_share_the_cpus_start_no_tree_thread(tmp_path, capsys, monkeypatch, jobs):
    # On 2 CPUs, two jobs get one tree thread each, and one thread needs no pool.
    import phm.cloud

    def refused(*args, **kwargs):
        raise AssertionError("a tree thread was started")

    pooled_trees(monkeypatch)
    monkeypatch.setattr(phm.cloud, "Thread", refused)
    rows = []
    for r, seed in enumerate((1, 3)):
        ref = synthetic_cloud(300, seed=seed)
        paths = [str(tmp_path / f"ref{r}.ply"), str(tmp_path / f"dist{r}.ply")]
        save_ply(ref, paths[0])
        save_ply(with_luminance_noise(ref, 20.0, seed=2), paths[1])
        rows += [[f"r{r}-noise", *paths], [f"r{r}-same", paths[0], paths[0]]]
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, rows)
    code, out, err = run_cli(capsys, "batch", "--manifest", str(manifest), "--jobs", str(jobs))
    assert code == 0
    errors = [r["error"] for r in csv.DictReader(out.splitlines())]
    if jobs == 2:
        assert err == "" and errors == [""] * 4
    else:  # one job keeps both threads, and its queries run on the pool
        assert all(e == "AssertionError: a tree thread was started" for e in errors)


def test_batch_prepares_each_reference_key_once(capsys, tmp_path, monkeypatch):
    import phm.cli
    from phm.cloud import load_ply
    from phm.metric import MetricConfig, phm_score

    paths = {}
    for name, cloud in (("ref_a", synthetic_cloud(300, seed=1)), ("ref_b", synthetic_cloud(320, seed=4)),
                        ("tiny", synthetic_cloud(15, seed=5))):
        paths[name] = str(tmp_path / f"{name}.ply")
        save_ply(cloud, paths[name])
    for name, ref, sigma in (("dist_a", "ref_a", 20.0), ("dist_b", "ref_b", 10.0), ("copy_a", "ref_a", 0)):
        paths[name] = str(tmp_path / f"{name}.ply")
        cloud = load_ply(paths[ref])
        save_ply(with_luminance_noise(cloud, sigma, seed=2) if sigma else cloud, paths[name], binary=True)
    head, body = Path(paths["ref_a"]).read_bytes().split(b"end_header\n")
    paths["nan"] = str(tmp_path / "nan.ply")
    Path(paths["nan"]).write_bytes(head + b"end_header\nnan" + body[body.index(b" "):])
    rows = [  # pair_id, ref, dist, patch_divisor override
        ("a1", "ref_a", "dist_a", ""), ("b1", "ref_b", "dist_b", ""), ("a2", "ref_a", "copy_a", ""),
        ("bad1", "nan", "dist_a", ""), ("bad2", "nan", "copy_a", ""), ("bad3", "nan", "missing", ""),
        ("a3", "ref_a", "dist_a", "100"),
        # a reference too small to prepare, with a distorted file that is missing or fine
        ("tiny1", "tiny", "missing", ""), ("tiny2", "tiny", "dist_b", ""),
    ]
    paths["missing"] = str(tmp_path / "missing.ply")
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, [(pid, paths[r], paths[d], pd) for pid, r, d, pd in rows],
                   extra_cols=("patch_divisor",))

    loads = []

    def counted_load(path):
        loads.append(os.path.basename(path))
        return load_ply(path)

    monkeypatch.setattr(phm.cli, "load_ply", counted_load)
    outs = []
    for jobs in ("1", "2", "8"):
        loads.clear()
        out = tmp_path / f"o{jobs}.csv"
        assert run_cli(capsys, "batch", "--manifest", str(manifest), "--jobs", jobs, "--out", str(out))[0] == 0
        # one load per reference key: ref_a twice (two patch_divisor values), the rest once
        refs = sorted(name for name in loads if not name.startswith(("dist", "copy", "missing")))
        assert refs == ["nan.ply", "ref_a.ply", "ref_a.ply", "ref_b.ply", "tiny.ply"]
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]

    got = {r["pair_id"]: r for r in csv.DictReader(outs[0].decode().splitlines())}
    for pid, ref, dist, divisor in rows[:3] + rows[6:7]:
        cfg = MetricConfig(patch_divisor=int(divisor)) if divisor else MetricConfig()
        report = phm_score(load_ply(paths[ref]), load_ply(paths[dist]), cfg)
        assert [got[pid][c] for c in ("d_h", "d_l_o", "d_l_i", "d_l", "omega", "score", "error")] == [
            repr(report.d_h), repr(report.d_l_o), repr(report.d_l_i), repr(report.d_l),
            repr(report.omega), repr(report.score), ""]
    assert float(got["a2"]["score"]) == 1.0
    with pytest.raises(Exception) as nan_error:
        load_ply(paths["nan"])
    for pid in ("bad1", "bad2", "bad3"):  # a reference that fails to load fails before the distorted file
        assert got[pid]["error"] == f"{type(nan_error.value).__name__}: {nan_error.value}"
        assert got[pid]["score"] == ""
    # the order one pair scored alone meets the failures in: missing file before small reference
    assert got["tiny1"]["error"] == f"missing file: {paths['missing']}"
    assert got["tiny2"]["error"] == "CloudTooSmall: reference has 15 points; AR order 20 needs more"


def test_batch_failed_preparation_fills_each_row_of_its_reference(ply_pair, capsys, tmp_path,
                                                                  monkeypatch):
    import phm.cli

    def broken(ref, cfg):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(phm.cli, "prepare_reference", broken)
    ref, dist = ply_pair
    manifest = tmp_path / "m.csv"
    missing = str(tmp_path / "missing.ply")
    write_manifest(manifest, [["a", ref, dist], ["b", ref, ref], ["gone", ref, missing],
                              ["c", ref, dist]])
    code, out, err = run_cli(capsys, "batch", "--manifest", str(manifest), "--jobs", "2")
    assert code == 0
    # a missing distorted file is met first, as it is for a pair scored alone
    assert [r["error"] for r in csv.DictReader(out.splitlines())] == [
        "ZeroDivisionError: boom"] * 2 + [f"missing file: {missing}", "ZeroDivisionError: boom"]
    tracebacks = [block.split("\n", 1)[1] for block in err.split("pair ")[1:]]
    assert len(tracebacks) == 3 and len(set(tracebacks)) == 1  # no row's frames pile onto the next


def test_batch_frees_each_reference_before_the_next(ply_pair, capsys, tmp_path, monkeypatch):
    import weakref

    import phm.cli
    from phm.metric import phm_score, prepare_reference

    prepared, scored = [], []  # weak refs to each preparation; which one each row scored against

    def tracked_prepare(ref, cfg):
        result = prepare_reference(ref, cfg)
        prepared.append(weakref.ref(result))
        return result

    def tracked_score(ref, dist, cfg):
        k = next(k for k, w in enumerate(prepared) if w() is ref)
        scored.append((k, [w() is None for w in prepared]))
        return phm_score(ref, dist, cfg)

    monkeypatch.setattr(phm.cli, "prepare_reference", tracked_prepare)
    monkeypatch.setattr(phm.cli, "phm_score", tracked_score)
    ref, dist = ply_pair
    manifest = tmp_path / "m.csv"  # two keys, interleaved
    write_manifest(manifest, [["a1", ref, dist], ["b1", dist, ref], ["a2", ref, ref],
                              ["b2", dist, dist]])
    assert run_cli(capsys, "batch", "--manifest", str(manifest), "--jobs", "1")[0] == 0
    # one preparation per key, shared by its rows; the first is garbage before the second is used
    assert scored == [(0, [False]), (0, [False]), (1, [True, False]), (1, [True, False])]


def test_batch_per_row_config_override(ply_pair, capsys, tmp_path):
    ref, dist = ply_pair
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, [["a", ref, dist, ""], ["b", ref, dist, "2.0"]], extra_cols=("mu",))
    code, out, _ = run_cli(capsys, "batch", "--manifest", str(manifest))
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert rows[0]["d_h"] == rows[1]["d_h"]
    assert rows[0]["omega"] != rows[1]["omega"]


def test_batch_unknown_override_column_exits_1(ply_pair, capsys, tmp_path):
    ref, dist = ply_pair
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, [["a", ref, dist, "1"]], extra_cols=("bogus",))
    code, _, err = run_cli(capsys, "batch", "--manifest", str(manifest))
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"


def test_batch_continuous_tail_column_exits_1_before_scoring(ply_pair, capsys, tmp_path,
                                                             monkeypatch):
    import phm.cli

    calls = []
    monkeypatch.setattr(phm.cli, "load_ply", lambda path: calls.append(path))
    ref, dist = ply_pair
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, [["a", ref, dist, "true"]], extra_cols=("continuous_tail",))
    code, out, err = run_cli(capsys, "batch", "--manifest", str(manifest))
    assert code == 1 and out == "" and calls == []
    doc = json.loads(err)
    assert doc["error"] == "ParseError" and "continuous_tail" in doc["message"]


def test_batch_missing_manifest_exits_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "batch", "--manifest", str(tmp_path / "none.csv"))
    assert code == 1


def test_batch_duplicate_pair_id_exits_1(ply_pair, capsys, tmp_path):
    ref, _ = ply_pair
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, [["a", ref, ref], ["a", ref, ref]])
    code, _, err = run_cli(capsys, "batch", "--manifest", str(manifest))
    assert code == 1


def test_batch_row_with_extra_cells_exits_1(ply_pair, capsys, tmp_path):
    # an unquoted comma in a path splits it across two cells
    ref, _ = ply_pair
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"pair_id,ref_path,dist_path\nok,{ref},{ref}\np1,/data/a,b.ply,/data/d.ply\n")
    code, out, err = run_cli(capsys, "batch", "--manifest", str(manifest))
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ParseError"
    assert "row 1 ('p1')" in doc["message"] and "/data/d.ply" in doc["message"]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_batch_jobs_below_one_exits_1(ply_pair, capsys, tmp_path, jobs):
    ref, _ = ply_pair
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, [["a", ref, ref]])
    code, out, err = run_cli(capsys, "batch", "--manifest", str(manifest), "--jobs", jobs)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ParseError"


# --- eval --------------------------------------------------------------------

def write_predictions(path, preds, mos):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_id", "mos", "prediction"])
        for i, (p, m) in enumerate(zip(preds, mos)):
            w.writerow([f"s{i}", m, p])


def test_eval_selfgenerated_logistic(capsys, tmp_path):
    rng = np.random.default_rng(4)
    true = FitParams(2.0, 1.2, 0.5, 0.7, 0.3)
    x = rng.uniform(-2, 3, 50)
    p = tmp_path / "preds.csv"
    write_predictions(p, x, logistic_map(x, true))
    code, out, _ = run_cli(capsys, "eval", str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["plcc"] > 0.999
    assert set(doc["fit"]) == {"beta1", "beta2", "beta3", "beta4", "beta5"}


def test_eval_perfect_rank_order(capsys, tmp_path):
    p = tmp_path / "preds.csv"
    write_predictions(p, [1, 2, 3, 4, 5, 6], [2, 4, 6, 8, 10, 12])
    code, out, _ = run_cli(capsys, "eval", str(p))
    assert code == 0
    assert json.loads(out)["srocc"] == pytest.approx(1.0, abs=1e-12)
    p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())  # Excel's byte-order mark
    assert run_cli(capsys, "eval", str(p)) == (0, out, "")


def test_eval_constant_predictions_exits_3(capsys, tmp_path):
    p = tmp_path / "preds.csv"
    write_predictions(p, [2.0] * 8, np.arange(8))
    code, _, err = run_cli(capsys, "eval", str(p))
    assert code == 3
    assert json.loads(err)["error"] == "FitError"


def test_eval_overflowing_mos_exits_3_with_json_error(capsys, tmp_path):
    # MOS at +-1e308 overflows the fit: no NaN or Infinity may reach stdout
    p = tmp_path / "preds.csv"
    write_predictions(p, [1, 2, 3, 4, 5], [1e308, -1e308, 3, 4, 5])
    code, out, err = run_cli(capsys, "eval", str(p))
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "FitError"


def test_eval_overflow_leaves_one_json_object_on_stderr(tmp_path):
    # A fresh interpreter: pytest records warnings before they reach stderr.
    p = tmp_path / "preds.csv"
    write_predictions(p, [1, 2, 3, 4, 5], [1e308, -1e308, 3, 4, 5])
    src = str(Path(phm.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from phm.cli import main; "
            "sys.exit(main(sys.argv[2:]))")
    proc = subprocess.run([sys.executable, "-c", code, src, "eval", str(p)],
                          capture_output=True, text=True)
    assert proc.returncode == 3 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "FitError"


def test_eval_writes_out_file(capsys, tmp_path):
    p = tmp_path / "preds.csv"
    write_predictions(p, np.arange(10.0), 2 * np.arange(10.0) + 1)
    out_json = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "eval", str(p), "--out", str(out_json))
    assert code == 0 and out == ""
    doc = json.loads(out_json.read_text())
    assert doc["srocc"] == pytest.approx(1.0, abs=1e-12)


def test_eval_bad_csv_exits_1(capsys, tmp_path):
    p = tmp_path / "preds.csv"
    p.write_text("sample_id,mos\nx,1\n")
    code, _, err = run_cli(capsys, "eval", str(p))
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"


# --- undecodable and oversized text inputs -----------------------------------

BAD_CONFIG = b'{"mu": 2.0, "\xff": 1}'
DEEP_CONFIG = b"[" * 100_000 + b"]" * 100_000
MANIFEST_HEADER = b"pair_id,ref_path,dist_path\n"
PREDICTIONS_HEADER = b"sample_id,mos,prediction\n"
LONG_CELL = b"x" * 200_000  # beyond the csv module's 131,072-character field limit


@pytest.mark.parametrize("via, body", [
    ("--config", BAD_CONFIG),
    ("PHM_CONFIG", BAD_CONFIG),
    ("--config", DEEP_CONFIG),
    ("batch", MANIFEST_HEADER + b"a\xffb,r.ply,d.ply\n"),
    ("batch", MANIFEST_HEADER + LONG_CELL + b",r.ply,d.ply\n"),
    ("eval", PREDICTIONS_HEADER + b"a\xffb,1,2\n"),
    ("eval", PREDICTIONS_HEADER + LONG_CELL + b",1,2\n"),
], ids=["config-bad-utf8", "env-config-bad-utf8", "config-deep-nesting", "manifest-bad-utf8",
        "manifest-long-cell", "predictions-bad-utf8", "predictions-long-cell"])
def test_unreadable_text_input_exits_1_with_parse_error(via, body, capsys, tmp_path, monkeypatch):
    p = tmp_path / "input"
    p.write_bytes(body)
    argv = {
        "--config": ["score", "--ref", "r.ply", "--dist", "d.ply", "--config", str(p)],
        "PHM_CONFIG": ["score", "--ref", "r.ply", "--dist", "d.ply"],
        "batch": ["batch", "--manifest", str(p)],
        "eval": ["eval", str(p)],
    }[via]
    if via == "PHM_CONFIG":
        monkeypatch.setenv("PHM_CONFIG", str(p))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert json.loads(err)["error"] == "ParseError"
