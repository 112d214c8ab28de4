#!/usr/bin/env python3
"""Record three timed ``--extended`` runs as ``BENCH_<LABEL>.json``.

    python scripts/bench.py LABEL [--out DIR]

Runs ``scripts/run_tables.py --extended`` on this checkout's ``src`` three
times in child processes and writes ``BENCH_<LABEL>.json`` at the repository
root.  The children inherit no thread variable (``THREAD_VARS``,
``QUADCURL_THREADS``), so they time the default: the thread count that
``cli.main`` sets from the usable cores.  The runs must agree in every
report file and in the iterations, residual and triples of every solve
(its record, ``cli.record``, read by ``tests/golden.py``), and the solves
must pass ``golden.compare``, the golden test's one comparison: the CG
count exactly, each triple of a task that the golden file also holds to
1e-10 relative; the largest drift is printed and recorded
(``golden_drift``), and a miss exits non-zero.  The record holds the
median wall time, the peak resident memory of the largest process of any
run (``RUSAGE_CHILDREN``), the largest sum of a run's proportional set
sizes (Pss from ``/proc/PID/smaps_rollup``, Linux, sampled every 0.1 s: a
page shared by k processes counts 1/k to each, so the sum is the memory the
run's processes hold together), and per run its wall time, Pss peak with
each process's share at that sample, and the record of every solve (n,
scheme, unknowns, CG iterations, residual history, seconds since its n
started, peak MB of the process that solved it, every triple at full
precision).  The machine fields have the shape of ``perfbench/run.py``'s
``environment()``: CPU, usable cores, versions, commit, a digest of
``src/quadcurl`` and the thread variables; ``git_dirty`` says whether
``src/`` differs from that commit.  The last run's reports go to ``--out``
when given.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# the checkout's thread variables (cli imports no numerics) and golden
# records
sys.path[:0] = [str(SRC), str(ROOT / "tests")]
import golden
from quadcurl.cli import THREAD_VARS

# runs per record: the record's wall time is their median
RUNS = 3
PSS_INTERVAL = 0.1      # seconds between samples of the run's Pss


def _git(*args):
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(env):
    """The machine fields of ``perfbench/run.py``'s record, for the thread
    variables of ``env``."""
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "quadcurl").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    status = _git("status", "--porcelain", "--", "src")
    return {
        "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "threads": {v: env.get(v) for v in THREAD_VARS},
    }


def _ppid(pid):
    """The parent of process ``pid``, or None when it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[1])
    except (OSError, IndexError, ValueError):
        return None


def tree_pss_mb(pid):
    """{pid: Pss in MB} of process ``pid`` and its children.  Pss charges a
    page shared by k processes 1/k to each, so the values add up to the
    memory the processes hold together, copy-on-write pages once."""
    pids = [pid] + [int(d) for d in os.listdir("/proc")
                    if d.isdigit() and _ppid(int(d)) == pid]
    pss = {}
    for p in pids:
        try:
            with open(f"/proc/{p}/smaps_rollup", encoding="ascii") as fh:
                pss[p] = next(int(line.split()[1]) for line in fh
                              if line.startswith("Pss:")) / 1024
        except (OSError, StopIteration):
            pass
    return pss


def run(out_dir, env):
    """One ``--extended`` run, its reports written to ``out_dir``: (wall
    seconds, its records, the largest summed Pss of the run's processes,
    each process's share at that sample)."""
    peak = (0.0, [])
    with tempfile.TemporaryDirectory() as tmp:
        record = Path(tmp, "record.jsonl")
        cmd = [sys.executable, str(ROOT / "scripts" / "run_tables.py"),
               "--extended", "--out", str(out_dir), "--record", str(record)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env)
        while proc.poll() is None:
            pss = tree_pss_mb(proc.pid)
            if sum(pss.values()) > peak[0]:
                peak = (sum(pss.values()), sorted(pss.values()))
            time.sleep(PSS_INTERVAL)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"run_tables.py exited with {proc.returncode}")
        return wall, golden.load(record), *peak


def facts(solves):
    """What the runs must agree in: per solve its n, scheme, CG iterations,
    final residual and triples."""
    return [(r["n"], r["scheme"], r["iterations"], r["residual"],
             r["triples"]) for r in solves]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("label", help="names the file BENCH_<label>.json")
    p.add_argument("--out", help="keep the last run's reports here")
    args = p.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.label):
        p.error(f"label must be letters, digits, '.', '_' or '-', got "
                f"{args.label!r}")
    env = {key: value for key, value in os.environ.items()
           if key not in THREAD_VARS + ("QUADCURL_THREADS",)}
    env["PYTHONPATH"] = str(SRC)
    runs, reports = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(RUNS):
            out = Path(args.out) if args.out and i == RUNS - 1 else \
                Path(tmp, str(i))
            wall, solves, pss, parts = run(out, env)
            runs.append({"wall_s": wall, "peak_pss_total_mb": pss,
                         "pss_at_peak_mb": parts, "records": solves})
            reports.append({f.name: f.read_bytes() for f in out.iterdir()})
    # read before any other child (git) can raise it
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    agree = [facts(r["records"]) for r in runs]
    if any(f != agree[0] for f in agree) or \
            any(r != reports[0] for r in reports) or not agree[0]:
        raise SystemExit("the runs disagree in their solves or reports")
    try:
        drift = golden.compare(r for run in runs for r in run["records"])
    except ValueError as exc:
        raise SystemExit(f"the runs miss the golden records: {exc}")
    print(f"largest drift from the golden records {drift:.1e}")
    walls = sorted(r["wall_s"] for r in runs)
    record = {"label": args.label,
              "command": "scripts/run_tables.py --extended",
              "wall_s": walls[RUNS // 2], "golden_drift": drift,
              "peak_children_mb": peak,
              "peak_pss_total_mb": max(r["peak_pss_total_mb"] for r in runs),
              "pss_interval_s": PSS_INTERVAL, "runs": runs,
              "env": environment(env)}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wall {', '.join(f'{w:.1f}' for w in walls)} s (median "
          f"{record['wall_s']:.1f}), largest process {peak:.1f} MB, all "
          f"processes {record['peak_pss_total_mb']:.1f} MB Pss; wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
