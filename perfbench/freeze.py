#!/usr/bin/env python3
"""Freeze the expected scores of every benchmark case into expected.json.

    python3 perfbench/freeze.py [WORKLOAD ...]

Scores each pool case of every scale once with the checkout's phm (the
dense spectral implementation at the time of freezing), through the same
entry points the workloads use, and writes score and d_L^I per case.
Refreeze only when the generator or the intended scores change; naming
workloads refreezes just those and keeps the other entries.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402

import run  # noqa: E402  (run.py puts this directory on sys.path)
import inputs  # noqa: E402


def main() -> int:
    phm = run.import_phm()
    path = run.BENCH_DIR / "expected.json"
    only = set(sys.argv[1:]) or set(run.CLASSES)
    cases = json.loads(path.read_text())["cases"] if path.exists() else {}
    for scale, spec in inputs.SCALES.items():
        cache = inputs.cache_dir(run.ROOT, scale)
        divisor = spec["large-fine"]["patch_divisor"]
        jobs = {
            "pair-ladder": [(c, None, None) for c in inputs.pair_pool("pair-ladder", scale)],
            "large-fine": [(c, *inputs.ensure_files(c, cache, binary=False))
                           for c in inputs.pair_pool("large-fine", scale)],
            "batch-shared-ref": [(c, *inputs.ensure_files(c, cache, binary=True))
                                 for rows in inputs.batch_pool(scale).values() for c in rows],
        }
        cases.setdefault(scale, {})
        for workload, items in jobs.items():
            if workload not in only:
                continue
            cfg = phm.metric.MetricConfig(patch_divisor=divisor) if workload == "large-fine" else None
            frozen = {}
            for case, ref_path, dist_path in items:
                if ref_path is None:
                    rp, rc, dp, dc = inputs.materialize(case)
                    cloud = phm.cloud.PointCloud
                    ref, dist = cloud.from_arrays(rp, rc), cloud.from_arrays(dp, dc)
                else:
                    ref, dist = phm.cloud.load_ply(ref_path), phm.cloud.load_ply(dist_path)
                report = phm.metric.phm_score(ref, dist, cfg)
                if report.score is None or (case.level is None and report.score != 1.0):
                    sys.stderr.write(f"{scale}/{workload}/{case.case_id}: bad score {report.score}\n")
                    return 1
                frozen[case.case_id] = {"score": report.score, "d_l_i": report.d_l_i}
                print(f"{scale} {workload} {case.case_id} n={case.n} score={report.score!r}",
                      flush=True)
            cases[scale][workload] = frozen
    doc = {"generator_version": inputs.GENERATOR_VERSION, "cases": cases}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
