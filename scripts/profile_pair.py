#!/usr/bin/env python3
"""Score one large synthetic pair in memory and print where its time went.

    PYTHONPATH=src python3 scripts/profile_pair.py --points 1000000 [--seed 4242] [--jitter F]
                                                   [--ascii]

The reference is ``perfbench.inputs.surface_cloud(points, seed)`` and the
distorted copy adds luminance noise of sigma 20 (8-bit levels) to it, then
position jitter of sigma F mean nearest-neighbour spacings (default 0), with
``perfbench.inputs.distort``. Without jitter the copy keeps the reference's
points, so ``phm_score`` reuses the reference's nearest map, cells and graphs
for it; with jitter it builds its own. The pair is scored once at the
default config. With ``--ascii`` both clouds are first written as ascii PLY
files by ``save_ply`` to a temporary directory, which quantizes their
positions to float32, and scored as ``load_ply`` reads them back. Prints one
JSON line: the points, seed, jitter and ascii flag, the score, the wall time
of the two ``load_ply`` calls (null without ``--ascii``) and of the
``phm_score`` call, the report's per-stage ``timing`` and the process's peak
RSS in MB. Without ``--ascii`` nothing is written to disk.
"""

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # for perfbench.inputs

from perfbench.inputs import distort, surface_cloud  # noqa: E402
from phm.cloud import PointCloud, load_ply, save_ply  # noqa: E402
from phm.metric import phm_score  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, required=True)
    ap.add_argument("--seed", type=int, default=4242)
    ap.add_argument("--jitter", type=float, default=0.0)
    ap.add_argument("--ascii", action="store_true", help="score the pair as ascii PLY files")
    args = ap.parse_args(argv)
    if not args.jitter >= 0.0:
        ap.error("--jitter must be >= 0")
    pos, col = surface_cloud(args.points, args.seed)
    dpos, dcol = distort(pos, col, {"noise": 20.0, "jitter": args.jitter}, args.seed + 1)
    ref, dist = PointCloud.from_arrays(pos, col), PointCloud.from_arrays(dpos, dcol)
    load_s = None
    if args.ascii:
        with tempfile.TemporaryDirectory() as tmp:
            paths = (Path(tmp, "ref.ply"), Path(tmp, "dist.ply"))
            save_ply(ref, paths[0])
            save_ply(dist, paths[1])
            del ref, dist
            t0 = time.perf_counter()
            ref, dist = map(load_ply, paths)
            load_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    report = phm_score(ref, dist)
    wall = time.perf_counter() - t0
    print(json.dumps({
        "points": args.points, "seed": args.seed, "jitter": args.jitter, "ascii": args.ascii,
        "score": report.score, "load_s": load_s, "score_s": wall,
        "timing": report.diagnostics["timing"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }), flush=True)


if __name__ == "__main__":
    main()
