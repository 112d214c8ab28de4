"""Golden full-precision records of the acceptance study's solves, and the
one comparison with them.

``data/golden.jsonl`` holds the ``KEYS`` subset of the record
(``cli.record``, the one format of a solve's facts) of each (n, scheme) of
``STUDIES``, floats at full precision (JSON writes a float as its
``repr``); ``load`` also reads a ``--record`` file.  ``compare``, which the
acceptance suite and ``scripts/bench.py`` call, fails a refactor that moves
a number.  Regenerate the file, from the repository root, with

    PYTHONPATH=src python tests/golden.py

The committed file was written that way on 2 cores with no thread variable
set (``cli.THREAD_VARS``), with numpy 2.4.6 and its OpenBLAS 0.3.31:
OpenBLAS then runs its default of one thread per core, 2, which leaves no
room for a worker, so ``cli.study`` forks none (``cli._can_fork``) and
walks every error itself.  Rewritten so, the file is byte for byte the
same.  With one BLAS thread the study forks, and the triples differ in
their last bits with the same CG counts, inside ``RTOL``.
"""

import json
from pathlib import Path

from quadcurl import cli

PATH = Path(__file__).parent / "data" / "golden.jsonl"
KEYS = ("n", "scheme", "iterations", "triples")
RTOL = 1e-10    # the split and the direct walks agree to ~1e-13
# the acceptance study fixture's two studies
STUDIES = (cli.RunConfig(scheme="modified", ns=(6, 12, 18, 24),
                         tasks=("errors", "superclose", "superconv")),
           cli.RunConfig(scheme="original", ns=(6, 12, 18)))


def load(path=PATH):
    """The JSON lines of ``path``, the golden file by default: one dict a
    solve."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def compare(records):
    """The largest relative drift of the triples of ``records`` (records or
    their ``KEYS`` subsets) from the golden records, over every (n, scheme,
    task) that both hold; a solve the golden file does not hold is not
    compared.  Raises ValueError on a CG count that differs, a drift above
    RTOL (NaN included) or no triple in common."""
    golden = {(g["n"], g["scheme"]): g for g in load()}
    drift, compared = 0.0, 0
    for rec in records:
        want = golden.get((rec["n"], rec["scheme"]))
        if want is None:
            continue
        where = f"n={rec['n']} {rec['scheme']}"
        if rec["iterations"] != want["iterations"]:
            raise ValueError(f"{where}: {rec['iterations']} CG iterations, "
                             f"golden {want['iterations']}")
        for task in want["triples"].keys() & rec["triples"].keys():
            for got, ref in zip(rec["triples"][task], want["triples"][task]):
                rel = abs(got - ref) / abs(ref)
                if not rel <= RTOL:
                    raise ValueError(f"{where} {task}: {got!r}, golden "
                                     f"{ref!r}, drift {rel:.1e}")
                drift, compared = max(drift, rel), compared + 1
    if not compared:
        raise ValueError("no triple in common with the golden records")
    return drift


def write():
    with open(PATH, "w", encoding="utf-8") as fh:
        for config in STUDIES:
            for rec in cli.study(config):
                line = cli.record(config, rec)
                fh.write(json.dumps({key: line[key] for key in KEYS}) + "\n")


if __name__ == "__main__":
    write()
