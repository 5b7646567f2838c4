#!/usr/bin/env python3
"""Score one large synthetic pair in memory and print where its time went.

    PYTHONPATH=src python3 scripts/profile_pair.py --points 1000000 [--seed 4242] [--jitter F]

The reference is ``perfbench.inputs.surface_cloud(points, seed)`` and the
distorted copy adds luminance noise of sigma 20 (8-bit levels) to it, then
position jitter of sigma F mean nearest-neighbour spacings (default 0), with
``perfbench.inputs.distort``. Without jitter the copy keeps the reference's
points, so ``phm_score`` reuses the reference's nearest map, cells and graphs
for it; with jitter it builds its own. The pair is scored once at the
default config. Prints one JSON line: the points, seed and jitter, the score,
the wall time of the ``phm_score`` call, the report's per-stage ``timing``
and the process's peak RSS in MB. Nothing is written to disk.
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
    ap.add_argument("--jitter", type=float, default=0.0)
    args = ap.parse_args(argv)
    if not args.jitter >= 0.0:
        ap.error("--jitter must be >= 0")
    pos, col = surface_cloud(args.points, args.seed)
    dpos, dcol = distort(pos, col, {"noise": 20.0, "jitter": args.jitter}, args.seed + 1)
    ref, dist = PointCloud.from_arrays(pos, col), PointCloud.from_arrays(dpos, dcol)
    t0 = time.perf_counter()
    report = phm_score(ref, dist)
    wall = time.perf_counter() - t0
    print(json.dumps({
        "points": args.points, "seed": args.seed, "jitter": args.jitter,
        "score": report.score, "score_s": wall,
        "timing": report.diagnostics["timing"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }), flush=True)


if __name__ == "__main__":
    main()
