#!/usr/bin/env python3
"""Reproduce the four convergence tables of the manufactured-solution study.

Runs both schemes over n = 6, 12, 18, 24 (``cli.DEFAULT_NS``) with every task
and writes CSV + Markdown reports:

* errors of the original and modified schemes,
* supercloseness of the corrected interpolant (modified scheme),
* superconvergence of the macro-postprocessed solution (modified scheme).

Every other argument goes to the ``quadcurl`` CLI unchanged (``--out``,
``--tol``, ``--format``, ``--threads``, ``--config``, ...).  With
``--extended`` the study appends n = 36, 48 (``cli.EXTENDED_NS``; n = 48 has
~1M unknowns).  On a 2-core machine with one BLAS thread (``--threads 1``)
that run takes ~17 s, each mesh size's original scheme solved in a forked
worker beside the modified one; the processes peak near 340 MB each and
544 MB together in Pss (``BENCH_two-processes.json``, written by
``scripts/bench.py``).  In one process it took 28.7 s at a 356 MB peak
(``BENCH_a74fc7c.json``).  Without a thread setting the study stays in one
process (see ``cli._can_fork``).
"""

import sys

from quadcurl import cli


def main():
    argv = sys.argv[1:]
    ns = cli.DEFAULT_NS + (cli.EXTENDED_NS if "--extended" in argv else ())
    ns = ",".join(map(str, ns))
    return cli.main(["--scheme", "both", "--n", ns, "--task", "all"] + argv)


if __name__ == "__main__":
    sys.exit(main())
