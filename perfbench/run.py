"""quadcurl benchmark: wall time to a convergence table.

Run from the repository root:

    python3 perfbench/run.py --workload table-n24 --seed 1 --seconds 5 --trace 0

Each workload drives the user path ``quadcurl.cli.run(RunConfig)`` on the
source tree in ``src/``.  The process first pays the set-up every user pays
(``import quadcurl`` plus one n=3 modified pass with all tasks, which builds
every lazy table), then runs timed studies for ``--seconds`` (at least one),
and checks each study's report CSVs against the values the seed code wrote
(``perfbench/expected``).  Set-up is timed again in fresh child processes so
``setup_s`` is a median.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one study
untraced and one with spans around every call ``cli.run`` makes (see
``spans.py``) and prints the per-layer metrics.  ``--smoke`` swaps in the n=3
size of each workload for a self-check that takes seconds.  The last line of
stdout is one JSON object; the full record (environment, samples, solver facts
and, when traced, every span) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

ALL_TASKS = ("errors", "superclose", "superconv")
# Why each workload exists is in README.md.
WORKLOADS = {
    "table-n24": {"scheme": "modified", "ns": (24,), "tasks": ALL_TASKS},
    "lu-sweep": {"scheme": "both", "ns": (6, 12),
                 "tasks": ("errors", "superclose")},
}
SMOKE_NS = {"table-n24": (3,), "lu-sweep": (3, 6)}
SETUP_CONFIG = {"scheme": "modified", "ns": (3,), "tasks": ALL_TASKS}
SETUP_SAMPLES = 2        # this process plus one fresh child
# One BLAS/OpenMP thread: the hot paths (sparse mat-vecs, SuperLU, einsum) are
# single-threaded anyway, and a second thread only adds run-to-run noise.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Report CSVs print 7 significant digits and EOCs 4 decimals; allow one
# flipped last digit of either, nothing more.
VALUE_RTOL = 1e-5
EOC_ATOL = 1e-3

END_TO_END_UNITS = {"study_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_rate": "ratio"}
PER_LAYER_UNITS = {
    "system.solve_s": "s", "system.iterations": "count",
    "system.s_per_iteration": "s", "system.solve_calls": "count",
    "system.unknowns": "count", "system.nnz": "count",
    "system.residual_max": "ratio",
    "mms.eval_s": "s", "mms.points": "count",
    "analysis.errors_s": "s", "analysis.superconv_s": "s",
    "analysis.superclose_s": "s",
    "interp.ih_s": "s", "interp.i3h_s": "s",
    "system.rhs_s": "s", "system.rhs_calls": "count",
    "system.assemble_s": "s", "system.dof_map_s": "s",
    "mesh.build_s": "s", "mesh.partition_s": "s", "cli.save_s": "s",
    "spaces.reference_spaces_s": "s", "system.reference_matrices_s": "s",
    "analysis.warmup_errors_s": "s", "system.warmup_rhs_s": "s",
    "analysis.warmup_superconv_s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s",
}

BASE_SPANS = {"mms.build", "mms.eval", "mesh.build", "system.dof_map",
              "system.assemble", "system.rhs", "system.solve", "cli.save"}
TASK_SPANS = {
    "errors": {"analysis.errors"},
    "superclose": {"interp.ih", "analysis.superclose"},
    "superconv": {"mesh.partition", "interp.i3h", "analysis.superconv"},
}

SOLVED = re.compile(r"n=(\d+) scheme=(\w+): solved \((\w+), (\d+) its, "
                    r"residual ([^)]+)\)")


class BenchError(Exception):
    """The benchmark itself cannot run or its trace is incomplete."""


def fix_threads():
    """Set the thread pools, before anything imports numpy; child processes
    inherit the setting."""
    for var in THREAD_VARS:
        os.environ[var] = THREADS


def solves_planned(cfg):
    schemes = ("original", "modified") if cfg["scheme"] == "both" \
        else (cfg["scheme"],)
    return [(n, s) for n in cfg["ns"] for s in schemes]


def load_quadcurl():
    """Import quadcurl from this checkout's ``src``."""
    if not (SRC / "quadcurl" / "cli.py").is_file():
        raise BenchError(f"no quadcurl source under {SRC}; run from the "
                         "repository root")
    sys.path.insert(0, str(SRC))
    import quadcurl
    if Path(quadcurl.__file__).resolve().parent != SRC / "quadcurl":
        raise BenchError(f"imported quadcurl from {quadcurl.__file__}, "
                         f"not from {SRC}")


def run_cli(cfg, out_dir, tracer=None):
    """One timed ``cli.run``; returns (seconds, solver lines, error)."""
    from quadcurl import cli
    from quadcurl.mesh import NonDivisibleMesh
    from quadcurl.system import MaxIterations, SingularSystem

    shutil.rmtree(out_dir, ignore_errors=True)
    config = cli.RunConfig(scheme=cfg["scheme"], ns=tuple(cfg["ns"]),
                           tasks=tuple(cfg["tasks"]), out_dir=str(out_dir))
    config.validate()
    buf = io.StringIO()
    error = None
    root = tracer.span("cli.run") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), root:
            cli.run(config)
    except (MaxIterations, SingularSystem, NonDivisibleMesh) as exc:
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    sys.stderr.write(buf.getvalue())
    solves = [{"n": int(m[1]), "scheme": m[2], "method": m[3],
               "iterations": int(m[4]), "residual": float(m[5])}
              for m in SOLVED.finditer(buf.getvalue())]
    return seconds, solves, error


def set_up(out_dir, tracer=None):
    """Seconds for ``import quadcurl`` plus the n=3 pass that fills every
    lazy table; with a tracer the reference builds get their own spans."""
    t0 = time.perf_counter()
    load_quadcurl()
    if tracer is not None:
        from quadcurl import spaces, system
        tracer.phase = "setup"
        with tracer.span("spaces.reference_spaces"):
            spaces.reference_spaces()
        with tracer.span("system.reference_matrices"):
            system.reference_matrices()
    with tracer.installed("setup") if tracer else contextlib.nullcontext():
        _, _, error = run_cli(SETUP_CONFIG, out_dir)
    if error:
        raise BenchError(f"set-up pass failed: {error}")
    return time.perf_counter() - t0


def setup_in_child(key):
    """Set-up time of a fresh interpreter (this script with --setup-probe)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", key],
        capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- correctness against the seed reports ------------------------------------

def read_report(path):
    """{n: (values, eocs)} from a report CSV; {} when the file is missing."""
    if not path.is_file():
        return {}
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return {int(r[0]): ([float(r[i]) for i in (1, 3, 5)],
                        [float(r[i]) if r[i] else None for i in (2, 4, 6)])
            for r in rows}


def rows_match(want, have):
    (wv, we), (hv, he) = want, have
    if any(abs(a - b) > VALUE_RTOL * abs(a) for a, b in zip(wv, hv)):
        return False
    return all((a is None and b is None) or
               (a is not None and b is not None and abs(a - b) <= EOC_ATOL)
               for a, b in zip(we, he))


def bad_solves(cfg, expected_dir, out_dir):
    """(n, scheme) pairs whose report rows differ from the seed values."""
    schemes = {s for _, s in solves_planned(cfg)}
    bad = set()
    for scheme in schemes:
        for task in cfg["tasks"]:
            name = f"{scheme}_{task}.csv"
            want = read_report(expected_dir / name)
            if not want:
                raise BenchError(f"no seed values at {expected_dir / name}")
            try:
                have = read_report(out_dir / name)
            except (ValueError, IndexError):     # a malformed report fails
                have = {}
            bad |= {(n, scheme) for n, row in want.items()
                    if n not in have or not rows_match(row, have[n])}
    return bad


def study(cfg, key, tracer=None):
    """One checked study: (seconds, CPU seconds, solver lines, failed
    solves).  CPU time is recorded beside wall time to tell time lost to other
    tenants from time spent computing."""
    out_dir = OUT / key / "reports"
    cpu0 = time.process_time()
    seconds, solves, error = run_cli(cfg, out_dir, tracer)
    cpu = time.process_time() - cpu0
    done = {(s["n"], s["scheme"]) for s in solves}
    bad = bad_solves(cfg, BENCH_DIR / "expected" / key, out_dir)
    failed = [p for p in solves_planned(cfg) if p not in done or p in bad]
    if error or failed:
        print(f"FAILED {key}: {error or ''} solves {failed}", file=sys.stderr)
    return seconds, cpu, solves, len(failed)


# -- environment and metrics --------------------------------------------------

def environment():
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "quadcurl").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def iteration_flags(runs):
    """A flag when the per-solve iteration counts differ between studies."""
    counts = [[s["iterations"] for s in solves] for solves in runs]
    if any(c != counts[0] for c in counts):
        return [f"system.iterations did not repeat across studies: {counts}"]
    return []


def expected_spans(tasks):
    """Spans a pass with these tasks must record at least once."""
    return BASE_SPANS.union(*(TASK_SPANS[t] for t in tasks))


def layer_metrics(tracer, cfg, traced_s, untraced_s):
    study_t = tracer.self_times("study")
    setup_t = tracer.self_times("setup")
    expected = expected_spans(cfg["tasks"]) | {"cli.run"}
    setup_expected = expected_spans(SETUP_CONFIG["tasks"]) | {
        "spaces.reference_spaces", "system.reference_matrices"}
    missing = sorted(f"study:{n}" for n in expected if n not in study_t) + \
        sorted(f"setup:{n}" for n in setup_expected if n not in setup_t)
    if missing:
        raise BenchError(f"spans recorded no calls: {', '.join(missing)}; a "
                         "call no longer goes through the wrapped attribute")

    def self_s(name, table=study_t):
        return table.get(name, (0.0, 0))[0]

    def calls(name):
        return study_t.get(name, (0.0, 0))[1]

    solves = [s for s in tracer.solves if s["phase"] == "study"]
    iterations = sum(s["iterations"] for s in solves)
    metrics = {
        "system.solve_s": self_s("system.solve"),
        "system.iterations": iterations,
        "system.s_per_iteration": self_s("system.solve") / iterations,
        "system.solve_calls": calls("system.solve"),
        "system.unknowns": max(s["unknowns"] for s in solves),
        "system.nnz": max(s["nnz"] for s in solves),
        "system.residual_max": max(s["residual"] for s in solves),
        "mms.eval_s": self_s("mms.eval"),
        "mms.points": tracer.counts.get("study:mms.points", 0),
        "analysis.errors_s": self_s("analysis.errors"),
        "analysis.superconv_s": self_s("analysis.superconv"),
        "analysis.superclose_s": self_s("analysis.superclose"),
        "interp.ih_s": self_s("interp.ih"),
        "interp.i3h_s": self_s("interp.i3h"),
        "system.rhs_s": self_s("system.rhs"),
        "system.rhs_calls": calls("system.rhs"),
        "system.assemble_s": self_s("system.assemble"),
        "system.dof_map_s": self_s("system.dof_map"),
        "mesh.build_s": self_s("mesh.build"),
        "mesh.partition_s": self_s("mesh.partition"),
        "cli.save_s": self_s("cli.save"),
        "spaces.reference_spaces_s": self_s("spaces.reference_spaces",
                                            setup_t),
        "system.reference_matrices_s": self_s("system.reference_matrices",
                                              setup_t),
        # the first call of each builds its lazy tables; at n=3 the rest of
        # the call is negligible
        "analysis.warmup_errors_s": self_s("analysis.errors", setup_t),
        "system.warmup_rhs_s": self_s("system.rhs", setup_t),
        "analysis.warmup_superconv_s": self_s("analysis.superconv", setup_t),
        "cli.self_s": self_s("cli.run"),
        "trace.overhead_s": traced_s - untraced_s,
    }
    return metrics


# -- the run -----------------------------------------------------------------

def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="recorded; the inputs are fixed")
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="use the n=3 size of the workload")
    p.add_argument("--setup-probe", metavar="KEY", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    fix_threads()

    if args.setup_probe:
        secs = set_up(OUT / args.setup_probe / "setup-probe")
        print(json.dumps({"setup_s": secs}))
        return 0
    if args.workload is None:
        p.error("--workload is required")

    cfg = dict(WORKLOADS[args.workload])
    key = args.workload
    if args.smoke:
        cfg["ns"] = SMOKE_NS[args.workload]
        key += "-smoke"

    tracer = Tracer() if args.trace else None
    setup_samples = [set_up(OUT / key / "setup", tracer)]

    record = {"workload": args.workload, "smoke": args.smoke,
              "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "config": cfg}
    if args.trace:
        untraced_s, cpu_u, untraced, failed_u = study(cfg, key)
        with tracer.installed("study"):
            traced_s, _, traced, failed_t = study(cfg, key, tracer)
        samples, cpu_samples = [untraced_s], [cpu_u]
        runs = [untraced, traced]
        attempted = 2 * len(solves_planned(cfg))
        failed = failed_u + failed_t
        metrics = layer_metrics(tracer, cfg, traced_s, untraced_s)
        units = PER_LAYER_UNITS
        record["traced_s"] = traced_s
    else:
        samples, cpu_samples, runs, attempted, failed = [], [], [], 0, 0
        t0 = time.perf_counter()
        while not samples or time.perf_counter() - t0 < args.seconds:
            secs, cpu, solves, nfail = study(cfg, key)
            samples.append(secs)
            cpu_samples.append(cpu)
            runs.append(solves)
            attempted += len(solves_planned(cfg))
            failed += nfail
        setup_samples += [setup_in_child(key)
                          for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "study_s": statistics.median(samples),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_rate": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS

    flags = iteration_flags(runs)
    for flag in flags:
        print(f"FLAG {flag}", file=sys.stderr)
    record.update({
        "env": environment(), "study_samples": samples,
        "study_cpu_samples": cpu_samples,
        "setup_samples": setup_samples, "solves": runs, "flags": flags,
        "attempted": attempted, "failed": failed, "metrics": metrics})
    if tracer:
        record["trace_dump"] = tracer.dump()
    (OUT / key).mkdir(parents=True, exist_ok=True)
    rec_path = OUT / key / f"record-seed{args.seed}-trace{args.trace}.json"
    rec_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"env {json.dumps(record['env'])}")
    print(f"fail_rate = {failed / attempted:g} ratio "
          f"({failed} of {attempted} solves failed)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"study samples {len(samples)}, set-up samples "
          f"{len(setup_samples)}; record {rec_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
