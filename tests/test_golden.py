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

from phm.metric import MetricConfig, phm_score
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


def report_without_timing(ref, dist):
    report = phm_score(ref, dist, CONFIG).to_dict()
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


if __name__ == "__main__":
    frozen = {name: report_without_timing(*pair) for name, pair in golden_cases().items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(frozen, indent=1) + "\n", encoding="utf-8")
