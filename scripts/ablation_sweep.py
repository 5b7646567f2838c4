#!/usr/bin/env python3
"""Re-run the score on one synthetic pair across the tunable knobs.

Sweeps the AR order, patch count divisor, band-pass count and WCM bins,
holding everything else at defaults.
"""

import argparse
from dataclasses import replace

from phm.metric import MetricConfig, phm_score
from phm.synthetic import synthetic_cloud, with_luminance_noise


def show(label, report):
    print(f"{label:>24}  d_h={report.d_h:.4f}  d_l={report.d_l:.4f}  score={report.score:.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--noise", type=float, default=20.0)
    args = ap.parse_args()

    ref = synthetic_cloud(args.points, seed=args.seed)
    dist = with_luminance_noise(ref, args.noise, seed=args.seed + 1)
    base = MetricConfig()

    print(f"pair: {args.points} points, luminance noise sigma={args.noise:g}\n")
    show("defaults", phm_score(ref, dist, base))

    print("\nAR order k1")
    for k1 in (5, 10, 20, 40):
        show(f"k1={k1}", phm_score(ref, dist, replace(base, k1=k1)))

    print("\npatch divisor (cells = N // divisor)")
    for div in (500, 1000, 2000):
        show(f"divisor={div}", phm_score(ref, dist, replace(base, patch_divisor=div)))

    print("\nband-pass count")
    for c in (2, 3, 4):
        show(f"C={c}", phm_score(ref, dist, replace(base, num_bandpass=c)))

    print("\nWCM bins")
    for nb in (10, 30, 50, 100):
        show(f"nb_bins={nb}", phm_score(ref, dist, replace(base, nb_bins=nb)))


if __name__ == "__main__":
    main()
