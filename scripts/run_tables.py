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
~1M unknowns).  With no thread setting the CLI gives each process half the
usable cores' BLAS threads, so on two cores or more one worker, forked
before the first mesh, solves the modified scheme of every mesh size
beside the original one (``cli._can_fork``), each process on its own mesh
and matrices; on one core the study runs in one process.  On a 2-core
machine the ``--extended`` run took 12.4-12.8 s that way
(``BENCH_one-worker.json``, written by ``scripts/bench.py``), against
medians of 12.1 and 11.0 s for alternated records of a worker forked per
mesh size; the processes peak at ~215 MB each and ~400 MB together in Pss.
An earlier record took ~10 s (``BENCH_coarse-solve.json``).  When that
default came in it took ~15 s (``BENCH_default-threads.json``), at ~250 MB
a process and ~400 MB together.  In one process of two BLAS threads it
took 25.5-27.3 s at 983a56c, and 28.7 s at a 356 MB peak at a74fc7c
(``BENCH_a74fc7c.json``).  Half the cores a process is measured on 1 and 2
cores only; on more it is a guess.  To keep one process, pass ``--threads``
equal to the core count.
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
