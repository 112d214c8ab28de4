"""Repeat the benchmark over seeds and summarise every metric.

Run from the repository root:

    python3 perfbench/runs.py --runs 10                      # all workloads
    python3 perfbench/runs.py --workload table-n24 --runs 5
    python3 perfbench/runs.py --smoke --runs 1 --seconds 1 --trace 0 1

Each run is ``perfbench/run.py`` in its own process, one at a time, with seeds
``--first-seed``, ``--first-seed + 1``, ...  For every metric the summary gives
the median, the quartiles (``statistics.quantiles(values, n=4)``), their
distance as a share of the median beside the metric's bound in
BENCHMARK.json, and the highest percentile with at least ten samples beyond
it.  Exits 1 when a run fails, reports wrong output or raises a flag (such as
iteration counts that did not repeat), or when the solver's iteration counts
differ between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def high_percentile(values):
    """(percent, value) of the highest order statistic with >= 10 samples
    above it, or None with fewer than 11 samples."""
    if len(values) < 11:
        return None
    k = len(values) - 11
    return 100.0 * (k + 1) / len(values), sorted(values)[k]


def summarise(name, unit, values, bound):
    med = statistics.median(values)
    line = f"  {name:30s} {unit:6s} median {med:<12.6g}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        line += f" q1 {q1:<10.6g} q3 {q3:<10.6g} spread {100 * spread:5.2f}%"
        if bound is not None:
            mark = "ok" if spread < bound / 3 else (
                "WIDE" if spread <= bound else "OVER BOUND")
            line += f" (bound {100 * bound:.0f}%, {mark})"
    hp = high_percentile(values)
    if hp:
        line += f" p{hp[0]:.0f} {hp[1]:.6g}"
    return line + f" n={len(values)}"


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", nargs="+",
                   default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, nargs="+", choices=(0, 1),
                   default=[0])
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"],
                   help="run length (default: run_seconds of BENCHMARK.json)")
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in
              bench["end_to_end"] + bench["per_layer"]}
    ok = True
    for workload in args.workload:
        key = workload + ("-smoke" if args.smoke else "")
        for trace in args.trace:
            results, iterations = [], []
            for seed in range(args.first_seed, args.first_seed + args.runs):
                cmd = bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
                if args.smoke:
                    cmd.append("--smoke")
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      check=False)
                if proc.returncode != 0:
                    print(f"{key} seed {seed}: exit {proc.returncode}\n"
                          f"{proc.stderr[-2000:]}")
                    ok = False
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                record = json.loads(
                    (ROOT / ".perfbench_out" / key /
                     f"record-seed{seed}-trace{trace}.json").read_text())
                results.append(result)
                iterations += [[s["iterations"] for s in solves]
                               for solves in record["solves"]]
                if not result["correct"] or record["flags"]:
                    print(f"{key} seed {seed}: correct={result['correct']} "
                          f"flags={record['flags']}")
                    ok = False
            if not results:
                continue
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            print(f"{key} trace={trace}: {len(results)} runs, fail_rate "
                  f"{failed / attempted:g} ({failed} of {attempted} solves)")
            for name, first in results[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in results]
                print(summarise(name, first["unit"], values,
                                bounds.get(name)))
            if any(it != iterations[0] for it in iterations):
                print("  FLAG system.iterations differ between studies: "
                      f"{sorted(set(map(tuple, iterations)))}")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
