"""Batch harness: convergence studies over mesh sizes, table emission and the
self-test battery.

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 invariant
(self-test) failure.  Heavy imports happen after thread-count handling so that
``--threads`` (or QUADCURL_THREADS) can still influence the numerics backend.
"""

from __future__ import annotations

import argparse
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, field

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4

DEFAULT_NS = (6, 12, 18, 24)
EXTENDED_NS = (36, 48)


@dataclass
class RunConfig:
    scheme: str = "modified"            # original | modified | both
    ns: tuple = DEFAULT_NS
    tol: float = 1e-10
    tasks: tuple = ("errors",)          # errors | superclose | superconv
    fmt: str = "both"                   # csv | markdown | both
    out_dir: str = "reports"
    extended: bool = False

    def validate(self):
        if self.scheme not in ("original", "modified", "both"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.fmt not in ("csv", "markdown", "both"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"solver tolerance must be finite and > 0, "
                             f"got {self.tol}")
        # n = 1 has no interior unknowns; a repeated n gives no rate
        if not self.ns or min(self.ns) < 2 or len(set(self.ns)) < len(self.ns):
            raise ValueError(f"mesh sizes must be distinct and >= 2, got "
                             f"{self.ns}")
        if not self.tasks:
            raise ValueError("no task given")
        for task in self.tasks:
            if task not in ("errors", "superclose", "superconv"):
                raise ValueError(f"unknown task {task!r}")
        if "superconv" in self.tasks:
            bad = [n for n in self.ns if n % 3 != 0]
            if bad:
                raise ValueError(
                    f"superconv task needs n divisible by 3, got {bad}")
        if not self.extended:
            big = [n for n in self.ns if n > max(DEFAULT_NS)]
            if big:
                raise ValueError(
                    f"n values {big} need --extended (long runtimes)")

    @property
    def schemes(self):
        return ("original", "modified") if self.scheme == "both" \
            else (self.scheme,)


def _parse_config_file(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _build_parser():
    p = argparse.ArgumentParser(
        prog="quadcurl",
        description="Convergence studies for the grad-curl brick element on "
                    "the quad-curl model problem.")
    p.add_argument("--scheme", choices=["original", "modified", "both"])
    p.add_argument("--n", help="comma-separated mesh subdivisions, e.g. 6,12")
    p.add_argument("--task",
                   help="comma list of: errors, superclose, superconv, all")
    p.add_argument("--tol", type=float, help="solver relative residual")
    p.add_argument("--out", help="output directory for reports")
    p.add_argument("--format", choices=["csv", "markdown", "both"])
    p.add_argument("--extended", action="store_true", default=None,
                   help="allow n beyond 24 (paper-scale runs)")
    p.add_argument("--selftest", action="store_true",
                   help="run the exact-identity battery and exit")
    p.add_argument("--threads", type=int,
                   help="numerics backend thread cap (best effort)")
    p.add_argument("--config", help="key=value file with the same options")
    return p


def _tasks(val):
    tasks = tuple(t.strip() for t in val.split(",") if t.strip())
    return ("errors", "superclose", "superconv") if "all" in tasks else tasks


def _flag(val):
    """A boolean from the flag (True) or a config file word."""
    word = str(val).lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1/true/yes or 0/false/no, got {val!r}")
    return word in ("1", "true", "yes")


# flag (dest) or --config key ('-' read as '_') -> (RunConfig field, parser);
# a parser takes the file's string or the flag's parsed value
OPTIONS = {
    "scheme": ("scheme", str),
    "n": ("ns", lambda val: tuple(int(x) for x in val.split(",") if x)),
    "task": ("tasks", _tasks),
    "tol": ("tol", float),
    "out": ("out_dir", str),
    "format": ("fmt", str),
    "extended": ("extended", _flag),
}


def _merge_config(args):
    """Precedence: explicit flags > environment (QUADCURL_OUT only) > config
    file > defaults."""
    cfg = RunConfig()
    file_vals = _parse_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_vals) - set(OPTIONS))
    if unknown:
        raise ValueError(f"unknown config key {', '.join(unknown)} "
                         f"(known: {', '.join(OPTIONS)})")
    for key, (attr, parse) in OPTIONS.items():
        val = getattr(args, key)
        if val is None and key == "out":
            val = os.environ.get("QUADCURL_OUT") or None
        if val is None:
            val = file_vals.get(key)
        if val is not None:
            try:
                setattr(cfg, attr, parse(val))
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
    return cfg


@dataclass
class StudyRecord:
    """One solve of a study: solver facts, the triple of each requested task
    and the objects later measurements need."""

    n: int
    scheme: str
    info: dict                  # solver facts from ``system.solve_saddle``
    mesh: object
    gmap: object
    u: object                   # V_h coefficients of u_h
    partition: object = None    # macro partition (superconv task)
    ihu: object = None          # I_h u (superclose task)
    i3h_u: object = None        # I3h u_h (superconv task)
    triples: dict = field(default_factory=dict)    # task -> ErrorTriple
    elapsed: float = 0.0        # seconds since this n started


def study(config):
    """Solve every (n, scheme) of the configured study; yields one
    ``StudyRecord`` per solve.

    Collaborators are looked up as module attributes at call time, so
    wrappers installed on those attributes see every call.
    """
    from . import mms

    exact = mms.build_exact_fields()
    for n in config.ns:
        if n > max(DEFAULT_NS):
            # interior edges plus two DoFs per interior face
            unknowns = 3 * n * (n - 1) ** 2 + 6 * n**2 * (n - 1)
            print(f"warning: n={n} is an extended run "
                  f"({unknowns:,} velocity unknowns)")
        # one generator frame per n: nothing of this n outlives its records
        yield from _study_n(n, config, exact)


def _study_n(n, config, exact):
    """The records of one mesh size."""
    from . import analysis, interp, system
    from .mesh import build_mesh, macro_partition

    t0 = time.perf_counter()
    tasks = config.tasks
    mesh = build_mesh(n)
    gmap = system.build_dof_map(mesh)
    A = system.assemble_A(mesh, gmap)
    B = system.assemble_B(mesh, gmap)
    part = macro_partition(mesh) if "superconv" in tasks else None
    ihu = (interp.global_interp_Ih(exact, mesh, gmap)
           if "superclose" in tasks else None)
    for scheme in config.schemes:
        rhs = system.assemble_rhs(mesh, gmap, exact, mode=scheme)
        sys_ = system.SaddleSystem(A=A, B=B, rhs=rhs, gmap=gmap, mesh=mesh)
        u, _p, info = system.solve_saddle(sys_, tol=config.tol)
        rec = StudyRecord(n=n, scheme=scheme, info=info, mesh=mesh,
                          gmap=gmap, u=u, partition=part, ihu=ihu)
        for task in tasks:
            if task == "errors":
                trip = analysis.error_vs_exact(u, exact, mesh, gmap)
            elif task == "superclose":
                trip = analysis.superclose_error(u, ihu, mesh, gmap)
            else:
                rec.i3h_u = interp.global_I3h(u, mesh, gmap, part)
                trip = analysis.superconvergent_error(rec.i3h_u, exact, mesh)
            rec.triples[task] = trip
        rec.elapsed = time.perf_counter() - t0
        yield rec


def run(config):
    """Execute the configured studies; returns report paths per (scheme, task)."""
    from . import analysis

    # an unusable output directory fails here, before the first solve
    os.makedirs(config.out_dir, exist_ok=True)
    reports = {(s, t): analysis.ConvergenceReport(scheme=s, quantity=t)
               for s in config.schemes for t in config.tasks}
    for rec in study(config):
        for task, trip in rec.triples.items():
            reports[(rec.scheme, task)].add(rec.n, trip)
        # the process's resident high-water mark (ru_maxrss is in KB)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"  n={rec.n} scheme={rec.scheme}: solved "
              f"({rec.info['method']}, {rec.info['iterations']} its, "
              f"residual {rec.info['residual']:.2e}), "
              f"{rec.elapsed:.1f}s elapsed, peak {peak:.1f} MB")
        del rec             # let the next n start without this one
    paths = {}
    for key, report in reports.items():
        paths[key] = report.save(config.out_dir, fmt=config.fmt)
        print(f"wrote {', '.join(paths[key])}")
    return paths


def selftest():
    """Run the invariant battery; prints one verdict line per check."""
    from .checks import run_battery
    t0 = time.perf_counter()
    results = run_battery()
    for r in results:
        print(r.line())
    ok = all(r.passed for r in results)
    print(f"{'all checks passed' if ok else 'CHECKS FAILED'} "
          f"({time.perf_counter() - t0:.1f}s)")
    return ok


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # explicit flags win: the cap replaces thread settings already present
    source, threads = "--threads", args.threads
    if threads is None and os.environ.get("QUADCURL_THREADS"):
        source, threads = "QUADCURL_THREADS", os.environ["QUADCURL_THREADS"]
    if threads is not None:
        try:
            count = int(threads)
        except ValueError:
            count = 0
        if count < 1:
            print(f"configuration error: {source} must be >= 1, got "
                  f"{threads}", file=sys.stderr)
            return EXIT_CONFIG
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(count)

    if args.selftest:
        return EXIT_OK if selftest() else EXIT_INVARIANT

    try:
        config = _merge_config(args)
        config.validate()
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        from .mesh import NonDivisibleMesh
        from .system import MaxIterations, SingularSystem
        try:
            run(config)
        except (NonDivisibleMesh, OSError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except (MaxIterations, SingularSystem) as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return EXIT_SOLVER
    except KeyboardInterrupt:
        return 130
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
