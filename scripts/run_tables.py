#!/usr/bin/env python3
"""Reproduce the four convergence tables of the manufactured-solution study.

Runs both schemes over n = 6, 12, 18, 24 and writes CSV + Markdown reports:

* errors of the original and modified schemes,
* supercloseness of the corrected interpolant (modified scheme),
* superconvergence of the macro-postprocessed solution (modified scheme).

Pass ``--extended`` to append n = 36, 48 (about 5 minutes on one core of a
2-core machine and 0.6 GB peak; n = 48 has ~1M unknowns).  All heavy
lifting lives in the quadcurl package; this script is a thin preset around
the CLI.
"""

import argparse
import sys

from quadcurl import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="reports")
    ap.add_argument("--extended", action="store_true")
    ap.add_argument("--tol", type=float, default=1e-10)
    args = ap.parse_args()

    ns = "6,12,18,24" + (",36,48" if args.extended else "")
    argv = ["--scheme", "both", "--n", ns, "--task", "all",
            "--out", args.out, "--tol", str(args.tol)]
    if args.extended:
        argv.append("--extended")
        print("extended run: n = 36, 48 included (~5 min, ~0.6 GB)")
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
