"""Golden full-precision records of the acceptance study's solves.

``data/golden.jsonl`` holds one JSON line per (n, scheme) of ``STUDIES``:
the velocity CG count and the triple of every task, each float at full
precision (JSON writes a float as its ``repr``).  The acceptance suite
compares its study with them, so a refactor that moves a number fails
Tier-1.  Regenerate the file, from the repository root, with

    PYTHONPATH=src python tests/golden.py
"""

import json
from pathlib import Path

from quadcurl import cli

PATH = Path(__file__).parent / "data" / "golden.jsonl"
# the acceptance study fixture's two studies
STUDIES = (cli.RunConfig(scheme="modified", ns=(6, 12, 18, 24),
                         tasks=("errors", "superclose", "superconv")),
           cli.RunConfig(scheme="original", ns=(6, 12, 18)))


def load():
    """The golden records, one dict per solve."""
    with open(PATH, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def write():
    with open(PATH, "w", encoding="utf-8") as fh:
        for config in STUDIES:
            for rec in cli.study(config):
                line = {"n": rec.n, "scheme": rec.scheme,
                        "iterations": int(rec.info["iterations"]),
                        "triples": {task: [float(x) for x in trip.as_tuple()]
                                    for task, trip in rec.triples.items()}}
                fh.write(json.dumps(line) + "\n")


if __name__ == "__main__":
    write()
