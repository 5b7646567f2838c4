import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import phm.appearance
from phm.appearance import prepare_pairs
from phm.cloud import PointCloud, SpatialIndex
from phm.errors import CloudTooSmall, DomainError, ParseError
from phm.metric import MetricConfig, combine_adaptive, phm_score, prepare_reference
from phm.patches import partition_into_patch_pairs
from phm.synthetic import synthetic_cloud, with_geometry_jitter, with_luminance_noise
from phm.visible import visible_difference

from conftest import random_cloud
from side_oracle import DegeneratePatch, graph_smoothness
from side_oracle import build_patch_graph as oracle_graph
from test_bulk_parity import oracle_rows


# --- adaptive combination ----------------------------------------------------

def test_omega_at_unit_dh():
    omega, score = combine_adaptive(1.0, 0.5, mu=5.0)
    assert omega == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert score == pytest.approx(0.5 ** (1.0 / 6.0), rel=1e-12)


def test_omega_hand_value():
    omega, _ = combine_adaptive(0.6894, 0.5, mu=5.0)
    assert omega == pytest.approx(0.2249, abs=1e-4)


def test_identity_score_is_one():
    omega, score = combine_adaptive(1.0, 1.0)
    assert score == 1.0
    _, score_avg = combine_adaptive(1.0, 1.0, outer="average")
    assert score_avg == 1.0


def test_zero_appearance_zeroes_multiply_score():
    _, score = combine_adaptive(0.5, 0.0)
    assert score == 0.0


def test_nonpositive_dh_rejected():
    with pytest.raises(DomainError):
        combine_adaptive(0.0, 0.5)
    with pytest.raises(DomainError):
        combine_adaptive(-0.1, 0.5)


def test_average_mode_formula():
    omega, score = combine_adaptive(0.4, 0.9, mu=5.0, outer="average")
    expect = (0.4 ** (1 - omega) + 0.9 ** omega) / 2
    assert score == pytest.approx(expect, rel=1e-15)


@given(st.floats(0.01, 1.0), st.floats(0.01, 1.0))
def test_omega_monotone_decreasing(a, b):
    mu = 5.0
    oa, _ = combine_adaptive(a, 0.5, mu)
    ob, _ = combine_adaptive(b, 0.5, mu)
    if a < b:
        assert oa > ob
    lo, hi = 1.0 / (1.0 + mu), 1.0
    assert lo <= oa < hi


# --- config ------------------------------------------------------------------

def test_config_defaults_follow_operating_point():
    cfg = MetricConfig()
    assert (cfg.alpha, cfg.mu, cfg.k1, cfg.k2) == (4.5, 5.0, 20, 10)
    assert (cfg.patch_divisor, cfg.num_bandpass, cfg.nb_bins) == (1000, 3, 50)
    assert cfg.stabilizer == 1e-6
    assert cfg.inner_fusion == cfg.outer_fusion == "multiply"
    assert cfg.continuous_tail


def test_config_rejects_unknown_keys():
    with pytest.raises(ParseError):
        MetricConfig.from_dict({"alpha": 4.5, "aplha": 2.0})


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        MetricConfig(nb_bins=1)
    with pytest.raises(ValueError):
        MetricConfig(inner_fusion="mean")
    with pytest.raises(ParseError):
        MetricConfig.from_dict({"mu": -1})


@pytest.mark.parametrize("bad", [
    {"k1": 2.5}, {"k1": True}, {"k2": "10"}, {"patch_divisor": 80.0},
    {"num_bandpass": None}, {"nb_bins": False}, {"nb_bins": 1},
    {"alpha": -0.5}, {"alpha": math.inf}, {"alpha": 1e308}, {"mu": math.nan}, {"mu": True},
    {"stabilizer": "1e-6"}, {"stabilizer": 0.0},
    {"continuous_tail": "no"}, {"continuous_tail": 1}, {"outer_fusion": None},
], ids=repr)
def test_config_rejects_ill_typed_values(bad):
    with pytest.raises(ParseError):
        MetricConfig.from_dict(bad)


def test_config_file_roundtrip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"mu": 3.0, "nb_bins": 20}))
    cfg = MetricConfig.from_file(p)
    assert cfg.mu == 3.0 and cfg.nb_bins == 20 and cfg.alpha == 4.5


# --- end-to-end score --------------------------------------------------------

def test_phm_identity_exact(textured_cloud):
    report = phm_score(textured_cloud, textured_cloud)
    assert report.score == 1.0
    assert report.d_h == 1.0 and report.d_l == 1.0
    assert report.omega == pytest.approx(1.0 / 6.0)
    assert report.status == "ok"


def test_phm_noise_ordering():
    ref = synthetic_cloud(2500, seed=9)
    s10 = phm_score(ref, with_luminance_noise(ref, 10.0, seed=1)).score
    s40 = phm_score(ref, with_luminance_noise(ref, 40.0, seed=1)).score
    assert s10 > s40


def test_phm_requires_enough_points():
    small = random_cloud(15, seed=1)
    with pytest.raises(CloudTooSmall):
        phm_score(small, small)
    with pytest.raises(CloudTooSmall):
        prepare_reference(small)


def test_prepare_reference_default_cell_count():
    # max(1, N // patch_divisor) cells: 2,500 points give 2 at the default 1000
    assert len(prepare_reference(random_cloud(2500, seed=1)).cells.members) == 2


@pytest.mark.parametrize("name, value", [
    ("k1", 10), ("k2", 8), ("patch_divisor", 200), ("num_bandpass", 2), ("continuous_tail", False),
])
def test_prepared_reference_rejects_other_reference_fields(textured_cloud, name, value):
    prepared = prepare_reference(textured_cloud)
    with pytest.raises(ValueError, match=name):
        phm_score(prepared, textured_cloud, MetricConfig(**{name: value}))


@pytest.mark.parametrize("name, value", [
    ("alpha", 2.0), ("mu", 2.0), ("nb_bins", 20), ("stabilizer", 1e-3),
    ("inner_fusion", "average"), ("outer_fusion", "average"),
])
def test_prepared_reference_takes_other_pair_fields(textured_cloud, name, value):
    noisy = with_luminance_noise(textured_cloud, 20.0, seed=6)
    cfg = MetricConfig(**{name: value})
    got = phm_score(prepare_reference(textured_cloud), noisy, cfg)
    want = phm_score(textured_cloud, noisy, cfg)
    assert (got.d_h, got.d_l_o, got.d_l_i, got.score) == (want.d_h, want.d_l_o, want.d_l_i,
                                                          want.score)


@pytest.mark.parametrize("moved", [False, True], ids=["noise", "jitter"])
def test_prepared_reference_features_are_not_recomputed(textured_cloud, monkeypatch, moved):
    # Scoring filters the distorted sides only; the reference sides bring
    # theirs from prepare_reference. A noise copy keeps the reference's
    # points, so it also takes the reference's nearest map, cells and graphs;
    # a jittered copy gets its own index and one bulk graph pass.
    cfg = MetricConfig(patch_divisor=100)
    prepared = prepare_reference(textured_cloud, cfg)
    dist = with_luminance_noise(textured_cloud, 20.0, seed=6)
    if moved:
        dist = with_geometry_jitter(dist, 0.5, seed=7)
    calls = {"build_patch_graph": [], "eigendecompose": []}
    for name, seen in calls.items():
        def counted(points, *args, fn=getattr(phm.appearance, name), seen=seen):
            seen.append(points)
            return fn(points, *args)
        monkeypatch.setattr(phm.appearance, name, counted)
    indexes = []
    def counted_index(self, positions, init=SpatialIndex.__init__):
        indexes.append(positions)
        init(self, positions)
    monkeypatch.setattr(SpatialIndex, "__init__", counted_index)
    report = phm_score(prepared, dist, cfg)
    sides = report.diagnostics["valid_patch_count"]
    assert report.diagnostics["degenerate_patch_count"] == 0 and sides > 1
    if moved:
        # One bulk graph pass over the distorted cloud's points, cell by cell.
        [points] = calls["build_patch_graph"]
        cells = [di for _, di in partition_into_patch_pairs(prepared.cells, dist)]
        np.testing.assert_array_equal(points, dist.positions[np.concatenate(cells)])
        [positions] = indexes
        np.testing.assert_array_equal(positions, dist.positions)
    else:
        assert calls["build_patch_graph"] == [] and indexes == []
    # One lockstep pass covers every distorted side, and no reference side.
    points = sum(entry["n_dist"] for entry in report.diagnostics["per_patch"])
    assert sum(graph.n for graph in calls["eigendecompose"]) == points


def _shared_pair(kind: str) -> tuple[PointCloud, PointCloud]:
    """A reference and a copy with its points in its order."""
    rng = np.random.default_rng(8)
    if kind == "lattice":
        pos = np.stack(np.meshgrid(*[np.arange(8.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    else:
        pos = rng.uniform(0.0, 10.0, size=(600, 3))
    if kind == "duplicates":  # each later copy matches the lower index first
        pos[300:] = pos[rng.integers(0, 300, 300)]
    if kind == "signed_zero":
        pos[rng.random(pos.shape) < 0.3] = 0.0
    ref = PointCloud.from_arrays(pos, rng.integers(0, 256, size=(len(pos), 3), dtype=np.uint8))
    if kind == "identity":
        return ref, ref
    dist = with_luminance_noise(ref, 20.0, seed=9)
    if kind == "signed_zero":
        dist = PointCloud.from_arrays(np.where(pos == 0.0, -0.0, pos), dist.colors)
        assert np.signbit(dist.positions).any() and not np.signbit(ref.positions).any()
    return ref, dist


def _general_report(prepared, dist):
    """The report of the path for any distorted cloud: its own index, cells and graphs."""
    cfg = prepared.config
    vd = visible_difference(prepared.cloud, dist, SpatialIndex(prepared.cloud.positions),
                            prepared.complexity, cfg.alpha)
    pairs = partition_into_patch_pairs(prepared.cells, dist)
    sides = prepare_pairs(prepared.sides, dist, pairs, cfg.k2, cfg.num_bandpass,
                          cfg.continuous_tail)
    return phm.metric._report(prepared, dist, cfg, vd, sides, {})


@pytest.mark.parametrize("as_prepared", [False, True], ids=["cloud", "prepared"])
@pytest.mark.parametrize("kind", ["duplicates", "signed_zero", "lattice", "identity"])
def test_shared_geometry_matches_the_general_path(monkeypatch, kind, as_prepared):
    cfg = MetricConfig(patch_divisor=100)
    ref, dist = _shared_pair(kind)
    prepared = prepare_reference(ref, cfg)
    expected = _general_report(prepared, dist).to_dict()

    def general(*args):
        raise AssertionError("a copy with the reference's points took the general path")
    for name in ("partition_into_patch_pairs", "prepare_pairs"):
        monkeypatch.setattr(phm.metric, name, general)
    report = phm_score(prepared if as_prepared else ref, dist, cfg).to_dict()
    report["diagnostics"].pop("timing")
    expected["diagnostics"].pop("timing")
    if kind in ("duplicates", "signed_zero"):
        # Coincident points of other colours: the copy matches point i to
        # point i, where a nearest-neighbour query sends each to the lowest
        # index at its position. Only the visible difference moves.
        diff = ref.luminance - dist.luminance
        assert report["diagnostics"]["raw_mse"] == float(np.mean(diff * diff))
        assert report["diagnostics"]["raw_mse"] != expected["diagnostics"]["raw_mse"]
        for doc in (report, expected):
            for key in ("d_h", "omega", "score"):
                doc.pop(key)
            for key in ("raw_mse", "psnr_y", "perfect"):
                doc["diagnostics"].pop(key)
    assert json.dumps(report) == json.dumps(expected)
    assert report["diagnostics"]["valid_patch_count"] > 1
    if kind == "identity":
        assert report["score"] == 1.0


@pytest.mark.parametrize("as_prepared", [False, True], ids=["cloud", "prepared"])
def test_identity_with_coincident_points_of_other_colours_scores_one(as_prepared):
    cloud = synthetic_cloud(3000, seed=7)
    pos = cloud.positions.copy()
    pos[:600] = pos[0]  # 600 points at one position, each keeping its own colour
    cloud = PointCloud.from_arrays(pos, cloud.colors)
    cfg = MetricConfig(patch_divisor=200)
    report = phm_score(prepare_reference(cloud, cfg) if as_prepared else cloud, cloud, cfg)
    assert report.diagnostics["raw_mse"] == 0.0
    assert (report.d_h, report.d_l, report.score) == (1.0, 1.0, 1.0)


def test_report_scores_only_cells_where_both_sides_have_a_graph():
    # Three kinds of cells: compared ones, ones whose distorted side is empty
    # (the distorted cloud keeps only x < 4), and the cell of a distant
    # cluster of one repeated point, which takes its own FPS seed.
    rng = np.random.default_rng(21)
    pos = np.vstack([rng.uniform(0.0, 10.0, (600, 3)), np.full((6, 3), 100.0)])
    ref = PointCloud.from_arrays(pos, rng.integers(0, 256, (606, 3), dtype=np.uint8))
    kept = pos[:, 0] < 4.0
    dist = with_luminance_noise(PointCloud.from_arrays(pos[kept], ref.colors[kept]), 20.0,
                                seed=22)
    cfg = MetricConfig(patch_divisor=50)
    report = phm_score(ref, dist, cfg)
    assert report.status == "ok"

    prepared = prepare_reference(ref, cfg)
    pairs = partition_into_patch_pairs(prepared.cells, dist)
    sides = prepare_pairs(prepared.sides, dist, pairs, cfg.k2)
    want_fw = oracle_rows(sides, cfg.nb_bins)
    kinds = set()
    for entry, (ri, di), fw in zip(report.diagnostics["per_patch"], pairs, want_fw):
        assert (entry["n_ref"], entry["n_dist"]) == (len(ri), len(di))
        smoothness = []
        for cloud, idx in ((ref, ri), (dist, di)):
            try:
                g, _ = oracle_graph(cloud.positions[idx], cfg.k2)
            except DegeneratePatch:
                break
            smoothness.append([graph_smoothness(g, cloud.positions[idx, axis]) / len(idx)
                               for axis in range(3)])
        if len(smoothness) < 2:
            kinds.add("coincident" if len(ri) and (pos[ri] == pos[ri[0]]).all() else
                      "empty" if not len(di) else "other")
            assert entry["degenerate"] and entry["f_s"] is None and entry["f_w"] is None
            assert fw is None
            continue
        kinds.add("compared")
        assert not entry["degenerate"]
        sx, sy = smoothness
        t = cfg.stabilizer
        assert entry["f_s"] == [(2.0 * a * b + t) / (a * a + b * b + t) for a, b in zip(sx, sy)]
        assert entry["f_w"] == fw
    assert {"compared", "empty", "coincident"} <= kinds
    rows = [e for e in report.diagnostics["per_patch"] if not e["degenerate"]]
    assert report.diagnostics["valid_patch_count"] == len(rows)
    assert report.d_l_o == float(np.mean([v for e in rows for v in e["f_s"]]))
    assert report.d_l_i == float(np.mean([v for e in rows for v in e["f_w"]]))


def test_phm_deterministic_repeat(textured_cloud):
    noisy = with_luminance_noise(textured_cloud, 15.0, seed=3)
    r1 = phm_score(textured_cloud, noisy)
    r2 = phm_score(textured_cloud, noisy)
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1["diagnostics"].pop("timing")
    d2["diagnostics"].pop("timing")
    assert json.dumps(d1) == json.dumps(d2)


def test_phm_mu_changes_omega_only(textured_cloud):
    noisy = with_luminance_noise(textured_cloud, 25.0, seed=4)
    base = phm_score(textured_cloud, noisy)
    alt = phm_score(textured_cloud, noisy, MetricConfig(mu=2.0))
    assert alt.omega != base.omega
    assert alt.d_h == base.d_h
    assert alt.d_l == base.d_l


def test_phm_report_serialization(textured_cloud):
    noisy = with_luminance_noise(textured_cloud, 20.0, seed=5)
    report = phm_score(textured_cloud, noisy)
    doc = json.loads(report.to_json())
    for key in ("d_h", "d_l_o", "d_l_i", "d_l", "omega", "score", "status", "diagnostics"):
        assert key in doc
    diag = doc["diagnostics"]
    assert diag["patch_count"] == len(diag["per_patch"])
    assert diag["n_ref"] == len(textured_cloud)
    assert 0.0 < doc["score"] <= 1.0
    assert 0.0 < doc["omega"] < 1.0


def test_phm_no_valid_patches_status():
    from phm.cloud import PointCloud
    rng = np.random.default_rng(3)
    ref = random_cloud(60, seed=6)
    dist = PointCloud.from_arrays(np.zeros((4, 3)), rng.integers(0, 256, (4, 3), dtype=np.uint8))
    report = phm_score(ref, dist, MetricConfig(k1=10))
    # a single all-coincident distorted patch cannot support any graph
    assert report.status == "no_valid_patches"
    assert report.score is None
    assert report.d_h > 0.0


def test_phm_scores_oversized_patch_whole():
    # patch_divisor larger than N forces one patch holding the whole cloud,
    # above the 3,000 points that used to be subsampled
    ref = synthetic_cloud(3500, seed=12)
    noisy = with_luminance_noise(ref, 10.0, seed=13)
    report = phm_score(ref, noisy, MetricConfig(patch_divisor=100_000))
    assert report.status == "ok"
    assert report.diagnostics["patch_count"] == 1
    assert report.diagnostics["per_patch"][0]["n_ref"] == 3500
    assert 0.0 < report.score <= 1.0
    assert "capped" not in json.dumps(report.to_dict())


def test_phm_k2_beyond_int64_matches_a_large_one(textured_cloud):
    # Any k2 of at least the largest cell links every point to its whole cell.
    noisy = with_luminance_noise(textured_cloud, 20.0, seed=7)
    huge, large = (phm_score(textured_cloud, noisy, MetricConfig(k2=k2)).to_dict()
                   for k2 in (10**30, 2**62))
    huge["diagnostics"].pop("timing")
    large["diagnostics"].pop("timing")
    assert huge == large


def test_phm_fusion_mode_config(textured_cloud):
    noisy = with_luminance_noise(textured_cloud, 20.0, seed=8)
    mm = phm_score(textured_cloud, noisy)
    aa = phm_score(textured_cloud, noisy,
                   MetricConfig(inner_fusion="average", outer_fusion="average"))
    assert mm.d_l_o == aa.d_l_o and mm.d_l_i == aa.d_l_i
    assert aa.d_l == pytest.approx((aa.d_l_o + aa.d_l_i) / 2, rel=1e-15)
    expect = (aa.d_h ** (1 - aa.omega) + max(aa.d_l, 0.0) ** aa.omega) / 2
    assert aa.score == pytest.approx(expect, rel=1e-15)
    assert mm.score == pytest.approx(
        mm.d_h ** (1 - mm.omega) * math.sqrt(mm.d_l_o * max(mm.d_l_i, 0.0)) ** mm.omega,
        rel=1e-12)
