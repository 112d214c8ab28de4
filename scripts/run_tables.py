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
and matrices; on one core the study runs in one process.  Half the cores a
process is measured on 1 and 2 cores only; on more it is a guess.  To keep
one process, pass ``--threads`` equal to the core count.  The README's CLI
section ("A study can run on two processes") explains the split;
``scripts/bench.py`` times the ``--extended`` run, and
``BENCH_warm-start.json`` is its newest record.
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
