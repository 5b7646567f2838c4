#!/usr/bin/env python3
"""Score one large synthetic pair in memory and print where its time went.

    PYTHONPATH=src python3 scripts/profile_pair.py --points 1000000 [--seed 4242]

The reference is ``perfbench.inputs.surface_cloud(points, seed)`` and the
distorted copy adds luminance noise of sigma 20 (8-bit levels) to it, with
``perfbench.inputs.distort``. The pair is scored once at the default config.
Prints one JSON line: the points and seed, the score, the wall time of the
``phm_score`` call, the report's per-stage ``timing`` and the process's peak
RSS in MB. Nothing is written to disk.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # for perfbench.inputs

from perfbench.inputs import distort, surface_cloud  # noqa: E402
from phm.cloud import PointCloud  # noqa: E402
from phm.metric import phm_score  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, required=True)
    ap.add_argument("--seed", type=int, default=4242)
    args = ap.parse_args(argv)
    pos, col = surface_cloud(args.points, args.seed)
    dpos, dcol = distort(pos, col, {"noise": 20.0, "jitter": 0.0}, args.seed + 1)
    ref, dist = PointCloud.from_arrays(pos, col), PointCloud.from_arrays(dpos, dcol)
    t0 = time.perf_counter()
    report = phm_score(ref, dist)
    wall = time.perf_counter() - t0
    print(json.dumps({
        "points": args.points, "seed": args.seed, "score": report.score, "score_s": wall,
        "timing": report.diagnostics["timing"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }), flush=True)


if __name__ == "__main__":
    main()
