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
~1M unknowns); that run took 57 s at a 533 MB peak on a 2-core machine with
one BLAS thread (commit cf962d4).
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
