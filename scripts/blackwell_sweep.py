#!/usr/bin/env python3
"""Sweep the expected event count in (t, t+h] across horizons and laws.

Writes one CSV row per (law, t) with the Monte Carlo increment mean, its
standard error and the long-run target rate*h, showing the approach to
rate*h for non-lattice laws and its failure for the lattice one.  On the
non-lattice laws, which have no atom, ``estimate_blackwell`` averages the
window's conditional mean given the age, so the standard error is that of
the conditioned estimate; the lattice law keeps the plain mean.  The gap
to rate*h at small t is the window's finite-t refinement (for the Pareto
law about rate^2 h e_1(t), e_1 its integrated tail), which ``countproc run``
checks against the finite-t value.

Usage:
    python scripts/blackwell_sweep.py --reps 20000 --out blackwell_sweep.csv
"""

import argparse
import sys

from countproc.lifetimes import Deterministic, Exponential, Gamma, ParetoShifted
from countproc.processes import Plain
from countproc.asymptotics import estimate_blackwell, spec_rate

LAWS = {
    "exponential": Exponential(1.0),
    "gamma": Gamma(2, 2),
    "pareto": ParetoShifted(2.5),
    "lattice": Deterministic(1.0),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=20_000)
    ap.add_argument("--h", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="blackwell_sweep.csv")
    args = ap.parse_args(argv)

    with open(args.out, "w") as fp:
        fp.write("law,t,h,reps,estimate,se,target,seed\n")
        for name, law in LAWS.items():
            spec = Plain(law)
            # short off-grid windows make the lattice failure mode visible
            h = 0.25 if name == "lattice" else args.h
            target = spec_rate(spec) * h
            for t in (5.0, 10.0, 25.0, 50.0, 100.0):
                t_query = t + 0.5 if name == "lattice" else t
                est = estimate_blackwell(spec, t_query, h, args.reps, seed=args.seed)
                fp.write(
                    f"{name},{t_query:.17g},{h:.17g},{args.reps},"
                    f"{est.value:.17g},{est.se:.17g},{target:.17g},{args.seed}\n"
                )
                print(f"{name:12s} t={t_query:7.1f} h={h:.2f}  increment={est.value:.4f} "
                      f"(se {est.se:.4f})  target={target:.4f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
