#!/usr/bin/env python3
"""Score a synthetic cloud against increasingly distorted copies of itself.

Prints one table per distortion family (luminance noise, geometric jitter)
with every component of the score, to eyeball monotonicity and how the
adaptive weight shifts between the two regimes.
"""

import argparse

from phm.metric import MetricConfig, phm_score, prepare_reference
from phm.synthetic import (
    mean_nn_spacing,
    synthetic_cloud,
    with_geometry_jitter,
    with_luminance_noise,
)

HEADER = f"{'level':>8} {'d_h':>8} {'d_l_o':>8} {'d_l_i':>8} {'d_l':>8} {'omega':>8} {'score':>8}"


def row(label, report):
    vals = (report.d_h, report.d_l_o, report.d_l_i, report.d_l, report.omega, report.score)
    return f"{label:>8} " + " ".join(f"{v:8.4f}" for v in vals)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--noise", type=float, nargs="*", default=[5, 10, 20, 40])
    ap.add_argument("--jitter", type=float, nargs="*", default=[0.1, 0.5, 1.0, 2.0])
    args = ap.parse_args()

    cfg = MetricConfig()
    ref = synthetic_cloud(args.points, seed=args.seed)
    spacing = mean_nn_spacing(ref)
    prepared = prepare_reference(ref, cfg)  # the reference-only work, once for every copy
    print(f"reference: {args.points} points, mean NN spacing {spacing:.3f}")

    print("\nluminance noise (sigma, 8-bit units)")
    print(HEADER)
    for sigma in args.noise:
        report = phm_score(prepared, with_luminance_noise(ref, sigma, seed=args.seed + 1), cfg)
        print(row(f"{sigma:g}", report))

    print("\ngeometric jitter (sigma, units of mean NN spacing)")
    print(HEADER)
    for sigma in args.jitter:
        dist = with_geometry_jitter(ref, sigma, seed=args.seed + 2, spacing=spacing)
        print(row(f"{sigma:g}", phm_score(prepared, dist, cfg)))


if __name__ == "__main__":
    main()
