"""Frozen full reports of three seeded pairs, compared field by field.

``tests/data/golden_reports.json`` holds ``phm_score(...).to_dict()`` without
``diagnostics.timing`` for a luminance-noise pair, a geometry-jitter pair and
an identity pair, scored with ``patch_divisor=250`` (6-8 cells of about 250
points, so the dense spectra stay cheap). Structure, key order, ints, flags
and strings must match exactly; floats within an absolute 1e-9. Regenerate
deliberately with ``PYTHONPATH=src python tests/test_golden.py`` when a
change is meant to move scores.
"""

import json
from pathlib import Path

from phm.metric import MetricConfig, phm_score, prepare_reference
from phm.synthetic import synthetic_cloud, with_geometry_jitter, with_luminance_noise

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"
FLOAT_ABS = 1e-9
CONFIG = MetricConfig(patch_divisor=250)


def golden_cases():
    a, b = synthetic_cloud(2000, seed=301), synthetic_cloud(1800, seed=302)
    c = synthetic_cloud(1500, seed=303)
    return {
        "noise20": (a, with_luminance_noise(a, 20.0, seed=311)),
        "jitter0.5": (b, with_geometry_jitter(b, 0.5, seed=312)),
        "identity": (c, c),
    }


def report_without_timing(ref, dist, config=CONFIG):
    report = phm_score(ref, dist, config).to_dict()
    del report["diagnostics"]["timing"]
    return report


def assert_same(got, want, path="report"):
    if isinstance(want, float) and type(got) is float:
        assert got == want or abs(got - want) <= FLOAT_ABS, f"{path}: {got!r} != {want!r}"
        return
    assert type(got) is type(want), f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def test_reports_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cases = golden_cases()
    assert list(cases) == list(want)
    for name, (ref, dist) in cases.items():
        # Compare what the JSON report carries, as the frozen file does.
        got = json.loads(json.dumps(report_without_timing(ref, dist)))
        assert_same(got, want[name], name)


def test_prepared_reference_gives_the_same_report():
    for name, (ref, dist) in golden_cases().items():
        prepared = prepare_reference(ref, CONFIG)
        assert report_without_timing(prepared, dist) == report_without_timing(ref, dist), name


def test_one_prepared_reference_serves_many_distortions():
    ref = golden_cases()["noise20"][0]
    prepared = prepare_reference(ref, CONFIG)
    copies = [ref, with_luminance_noise(ref, 5.0, seed=321), with_luminance_noise(ref, 40.0, seed=322),
              with_geometry_jitter(ref, 0.5, seed=323)]
    for dist in copies:
        report = phm_score(prepared, dist)  # config None: the one it was prepared with
        assert report.diagnostics["timing"]["prepare_reference"] == 0.0
        got = report.to_dict()
        del got["diagnostics"]["timing"]
        assert got == report_without_timing(ref, dist)
    assert phm_score(prepared, ref).score == 1.0


def test_timing_reports_the_preparation_first():
    ref, dist = golden_cases()["noise20"]
    timing = phm_score(ref, dist, CONFIG).diagnostics["timing"]
    assert list(timing) == ["prepare_reference", "visible_difference", "partition_and_graphs",
                            "geometry_degradation", "texture_degradation"]
    assert timing["prepare_reference"] > 0.0


if __name__ == "__main__":
    frozen = {name: report_without_timing(*pair) for name, pair in golden_cases().items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(frozen, indent=1) + "\n", encoding="utf-8")
