"""The public top-level API and the import cost of the CLI."""

import json
import subprocess
import sys
from pathlib import Path

import phm
from phm.metric import MetricConfig

README = Path(__file__).resolve().parent.parent / "README.md"

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
