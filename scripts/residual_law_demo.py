#!/usr/bin/env python3
"""Convergence of the residual time to the stationary-excess law.

Tracks the KS distance between the simulated residual at time t and the
excess law as t grows, and cross-checks the simulated mean residual
against the grid solution of the convolution equation.

Usage:
    python scripts/residual_law_demo.py --reps 10000
"""

import argparse
import sys

import numpy as np

from countproc.lifetimes import Gamma
from countproc.processes import Plain
from countproc.asymptotics import path_statistics, residual_limit_ks
from countproc.renewal_solver import residual_mean_generator, solution_at


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="residual_law.csv")
    args = ap.parse_args(argv)

    law = Gamma(2, 2)
    spec = Plain(law)
    ts = (1.0, 2.0, 5.0, 10.0, 25.0, 100.0)
    solved = solution_at(law, residual_mean_generator, ts, max(ts) / 20_000)
    stats = path_statistics(spec, list(ts), args.reps, seed=args.seed)

    with open(args.out, "w") as fp:
        fp.write("t,ks,mc_mean_residual,grid_mean_residual,reps,seed\n")
        for j, t in enumerate(ts):
            ks = residual_limit_ks(spec, t, args.reps, seed=args.seed + j)
            mc = float(np.mean(stats["residual"][:, j]))
            fp.write(f"{t:.17g},{ks.statistic:.17g},{mc:.17g},{solved[j]:.17g},"
                     f"{args.reps},{args.seed}\n")
            print(f"t={t:7.1f}  KS={ks.statistic:.4f}  E[R] mc={mc:.4f}  grid={solved[j]:.4f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
