"""The public top-level API and the import cost of the CLI."""

import subprocess
import sys
from pathlib import Path

import phm

PUBLIC = ["MetricConfig", "QualityReport", "phm_score", "prepare_reference", "PointCloud",
          "load_ply", "save_ply", "PhmError"]


def test_public_names_are_exactly_the_documented_ones():
    assert sorted(phm.__all__) == sorted(PUBLIC)
    namespace = {}
    exec("from phm import *", namespace)
    assert sorted(k for k in namespace if not k.startswith("__")) == sorted(PUBLIC)
    assert isinstance(phm.__version__, str)


def test_cli_import_leaves_evaluation_and_scipy_stats_unloaded():
    src = str(Path(phm.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import phm.cli; "
            "print(sorted(m for m in ('phm.evaluation', 'scipy.stats', 'scipy.optimize') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
