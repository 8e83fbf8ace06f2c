#!/usr/bin/env python3
"""Render a depth ladder of planar percolation realizations as PGM images.

Same seed at every depth, so each image refines the previous one; handy for
eyeballing the nesting C(0) >= C(1) >= ... and the thinning at p < 1.
"""

import argparse
import os

import numpy as np

from perclab import PercolationParams, ProbSequence, pgm_bytes, render_level


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=float, default=0.9)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--depths", default="4,6,8,10")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--outdir", default="gallery")
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    depths = [int(d) for d in args.depths.split(",")]
    for depth in depths:
        params = PercolationParams(2, args.m, depth, ProbSequence.mfp(args.p), seed=args.seed)
        grid = render_level(params, depth)
        path = os.path.join(args.outdir, f"mfp_p{args.p:g}_m{args.m}_k{depth}.pgm")
        with open(path, "wb") as fh:
            fh.write(pgm_bytes(grid))
        side = args.m**depth
        cells = int(np.count_nonzero(grid))  # one pixel per level-K cell
        print(f"{path}: {side}x{side}, {cells} cells, measure {cells / side**2:.4f}")


if __name__ == "__main__":
    main()
