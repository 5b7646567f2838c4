"""The public top-level API, the import cost of the CLI and the names the benchmark pins."""

import csv
import importlib.util
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import phm
import phm.appearance
import phm.cli
import phm.cloud
import phm.metric
import phm.patches
import phm.visible
from phm.cloud import save_ply
from phm.metric import MetricConfig
from phm.synthetic import synthetic_cloud, with_geometry_jitter, with_luminance_noise

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

PUBLIC = ["MetricConfig", "QualityReport", "phm_score", "prepare_reference", "PointCloud",
          "load_ply", "save_ply", "PhmError"]
# Parameters that carry a MetricConfig value into a stage function.
CONFIG_PARAMETERS = {"k1", "k2", "alpha", "mu", "num_bandpass", "stabilizer", "num_bins", "nb_bins"}


def test_public_names_are_exactly_the_documented_ones():
    assert sorted(phm.__all__) == sorted(PUBLIC)
    namespace = {}
    exec("from phm import *", namespace)
    assert sorted(k for k in namespace if not k.startswith("__")) == sorted(PUBLIC)
    assert isinstance(phm.__version__, str)


def test_package_version_matches_pyproject():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version = "(.*)"$', pyproject, re.MULTILINE) == [phm.__version__]


def test_cli_import_leaves_evaluation_and_scipy_stats_unloaded():
    src = str(Path(phm.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import phm.cli; "
            "print(sorted(m for m in ('phm.evaluation', 'scipy.stats', 'scipy.optimize') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_readme_config_table_matches_the_defaults():
    # Rows of the "| key | default | meaning |" table, in the README's order.
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.replace(" ", "") == "|key|default|meaning|")
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        key, default, _ = (cell.strip() for cell in line.strip("|").split("|"))
        table[key] = json.loads(default)
    assert json.dumps(table) == json.dumps(MetricConfig().to_dict())


def test_only_metric_config_holds_the_operating_point():
    # A default on a stage function would be a second copy of MetricConfig's
    # defaults, one that phm_score never reads.
    defaulted = []
    for module in (phm.cloud, phm.visible, phm.patches, phm.appearance, phm.metric):
        owners = [module] + [c for c in vars(module).values()
                             if inspect.isclass(c) and c.__module__ == module.__name__
                             and c is not MetricConfig]
        for owner in owners:
            for fn in vars(owner).values():
                fn = getattr(fn, "__func__", fn)  # classmethods and staticmethods
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                defaulted += [f"{module.__name__}.{fn.__qualname__}({p.name})"
                              for p in inspect.signature(fn).parameters.values()
                              if p.name in CONFIG_PARAMETERS and p.default is not p.empty]
    assert defaulted == []


def _benchmark_tracer():
    """``perfbench/tracer.py``, loaded by path and left as it is."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_finds_and_times_every_pinned_call(tmp_path):
    # The tracer wraps phm's functions where their callers look them up, so a
    # renamed function or a call moved to another module silently empties a span.
    tracing = _benchmark_tracer()
    ref = synthetic_cloud(2500, 3)
    clouds = {"ref": ref, "noise": with_luminance_noise(ref, 20.0, seed=4),
              "jitter": with_geometry_jitter(ref, 0.5, seed=5)}
    for name, cloud in clouds.items():
        save_ply(cloud, tmp_path / f"{name}.ply", binary=True)
    manifest, out = tmp_path / "m.csv", tmp_path / "out.csv"
    manifest.write_text("pair_id,ref_path,dist_path\n" + "".join(
        f"{name},{tmp_path / 'ref.ply'},{tmp_path / f'{name}.ply'}\n"
        for name in ("noise", "jitter")), encoding="utf-8")
    tracer = tracing.Tracer()
    replacements, missing = tracing.instrument(tracer)
    assert missing == []
    with tracing.patched(replacements):
        assert phm.cli.main(["batch", "--manifest", str(manifest), "--out", str(out)]) == 0
    with out.open(encoding="utf-8", newline="") as fh:
        assert [(row["pair_id"], row["error"]) for row in csv.DictReader(fh)] == [
            ("noise", ""), ("jitter", "")]
    assert [name for _, _, name, _ in tracing.TARGETS if tracer.calls[name] == 0] == []
    # The colour-only copy shares the reference's cells and graphs; only the
    # jittered copy, the second row, is partitioned and graphed.
    assert tracer.calls["patches.partition"] == tracer.calls["appearance.prepare"] == 1
    assert tracer.calls["patches.graph_build"] == 2
    rows = sorted((start, end) for _, _, _, name, start, end in tracer.spans if name == "cli.row")
    for span in tracer.spans:
        if span[3] in ("patches.partition", "appearance.prepare"):
            assert rows[1][0] <= span[4] <= span[5] <= rows[1][1]
