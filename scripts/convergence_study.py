#!/usr/bin/env python3
"""Round-trip error sweeps over data length and the x grid.

Writes one CSV row per run so the convergence behaviour can be plotted
externally.  Example:

    python3 scripts/convergence_study.py --potential cos --beta 1.0472 \
        --n-eigen 16 32 64 -o study.csv
"""
import argparse
import sys
import time

import numpy as np

from invspec.core import PI, sample_potential, write_csv
from invspec.roundtrip import roundtrip

POTENTIALS = {
    "cos": np.cos,
    "zero": lambda x: np.zeros_like(x),
    "parabola": lambda x: x * (PI - x),
    "gauss-bump": lambda x: np.exp(-8.0 * (x - PI / 2) ** 2),
}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--potential", choices=sorted(POTENTIALS), default="cos")
    p.add_argument("--beta", type=float, default=PI / 3)
    p.add_argument("--n-eigen", type=int, nargs="+", default=[16, 32, 64])
    p.add_argument("--x-nodes", type=int, nargs="+", default=[129])
    p.add_argument("-o", "--out", default="convergence.csv")
    args = p.parse_args(argv)

    q = sample_potential(POTENTIALS[args.potential])
    rows = []
    for n_eigen in args.n_eigen:
        for x_nodes in args.x_nodes:
            t0 = time.perf_counter()
            report, _ = roundtrip(q, args.beta, n_eigen,
                                  trim=(0.1 * PI, 0.95 * PI), x_nodes=x_nodes)
            rows.append((n_eigen, x_nodes, report.q_sup_error,
                         report.q_l1_error, report.angle_identity_gap,
                         time.perf_counter() - t0))
            print(f"N={n_eigen:3d} x_nodes={x_nodes:3d}  "
                  f"sup={report.q_sup_error:.3e}  identity={report.angle_identity_gap:.3e}  "
                  f"[{1e3 * rows[-1][-1]:.0f} ms]")

    write_csv(args.out, "n_eigen,x_nodes,q_sup_error,q_l1_error,angle_identity_gap,elapsed_s",
              *zip(*rows))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
