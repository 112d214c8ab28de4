"""Batch harness: convergence studies over mesh sizes, table emission and the
self-test battery.

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 invariant
(self-test) failure.  Heavy imports happen after thread-count handling so that
``--threads`` (or QUADCURL_THREADS) can still influence the numerics backend.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import pickle
import resource
import signal
import sys
import threading
import time
from dataclasses import asdict, dataclass, field, replace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4
# the numerics backends' thread variables, which ``--threads`` sets
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

DEFAULT_NS = (6, 12, 18, 24)
EXTENDED_NS = (36, 48)
# the reference space of the error walk of each task that the best
# approximation splits (``analysis.best_approximation``)
SPLIT_SPACES = {"errors": "VK", "superconv": "VM"}
# the smallest n whose one-scheme study computes its best approximations in
# a forked worker.  Medians of 12 studies of every task, one BLAS thread on
# two cores: 291 ms walked here against 242 ms forked at n = 15, but 137
# against 197 ms at n = 12 and 30 against 58 ms at n = 6
SPLIT_MIN_N = 15


@dataclass
class RunConfig:
    scheme: str = "modified"            # original | modified | both
    ns: tuple = DEFAULT_NS
    tol: float = 1e-10
    tasks: tuple = ("errors",)          # errors | superclose | superconv
    fmt: str = "both"                   # csv | markdown | both
    out_dir: str = "reports"
    extended: bool = False
    record: str = None                  # JSON-lines file, one line a solve

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
        # numpy's import reads the thread variables, which main sets first
        from .system import MAX_COARSEST, coarsest
        for n in self.ns:
            if coarsest(n) > MAX_COARSEST:
                near = [next(m for m in itertools.count(n + step, step)
                             if coarsest(m) <= MAX_COARSEST)
                        for step in (-1, 1)]
                raise ValueError(
                    f"n={n}: the multigrid hierarchy, which halves or "
                    f"thirds the mesh, ends at {coarsest(n)} cells per "
                    f"edge, above the {MAX_COARSEST} the solver converges "
                    f"from; nearest accepted sizes {near[0]} and {near[1]}")
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
    p.add_argument("--record",
                   help="append one JSON line per solve to this file")
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
    "record": ("record", str),
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
    peak_mb: float = 0.0        # peak RSS of the process that solved it
    walk: str = "direct"        # "split": a triple from the best approximation


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
    """The records of one mesh size.  Its schemes share the mesh, DoF map,
    A, B, the partition and I_h u.  With cores for two processes' BLAS
    threads (``_can_fork``) a forked worker works beside this process: with
    two schemes it solves the first while this process solves the last;
    with one, from n = SPLIT_MIN_N on, it computes the best approximations
    of the errors and superconv walks while this process solves."""
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
    shared = {"mesh": mesh, "gmap": gmap, "partition": part, "ihu": ihu}

    def solve(scheme, best=None):
        """The record of one scheme: its load, solve and every task.
        ``best(tag)``, when given, reads the best approximation from
        reference space ``tag`` that the next split walk adds to."""
        rhs = system.assemble_rhs(mesh, gmap, exact, mode=scheme)
        sys_ = system.SaddleSystem(A=A, B=B, rhs=rhs, gmap=gmap, mesh=mesh)
        u, _p, info = system.solve_saddle(sys_, tol=config.tol)
        rec = StudyRecord(n=n, scheme=scheme, info=info, u=u, **shared)
        for task in tasks:
            if task == "superclose":
                rec.triples[task] = analysis.superclose_error(u, ihu, mesh,
                                                              gmap)
                continue
            if task == "errors":
                measure = functools.partial(analysis.error_vs_exact, u,
                                            exact, mesh, gmap)
            else:
                rec.i3h_u = interp.global_I3h(u, mesh, gmap, part)
                measure = functools.partial(analysis.superconvergent_error,
                                            rec.i3h_u, exact, mesh)
            trip = None
            if best is not None:
                try:
                    trip = measure(best=best(SPLIT_SPACES[task]))
                    rec.walk = "split"
                except EOFError:    # the worker died: walk here
                    pass
            rec.triples[task] = measure() if trip is None else trip
        rec.elapsed = time.perf_counter() - t0
        # this process's resident high-water mark (ru_maxrss is in KB)
        rec.peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return rec

    tags = [SPLIT_SPACES[task] for task in tasks if task in SPLIT_SPACES]
    if len(config.schemes) == 2 and _can_fork():
        yield from _forked(solve, config.schemes, shared)
    elif tags and n >= SPLIT_MIN_N and _can_fork():
        yield _beside(solve, config.schemes[0], tags, exact, mesh)
    else:
        yield from map(solve, config.schemes)


def _can_fork():
    """Whether a forked worker can compute beside this process: no
    other Python thread runs (fork would copy the locks it holds) and the
    BLAS threads of both processes fit in the usable cores.  Each process
    runs as many BLAS threads as the largest thread variable set (main sets
    them from ``--threads``), else one per core, OpenBLAS's default, which
    leaves no room for a second process."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return False
    cores = len(os.sched_getaffinity(0))
    quota = _cpu_quota()
    if quota is not None:
        cores = min(cores, int(quota))
    blas = max((int(v) for v in map(os.environ.get, THREAD_VARS)
                if v and v.isdigit()), default=cores)
    return 2 * blas <= cores


def _cpu_quota(root="/sys/fs/cgroup"):
    """The CPUs a cgroup quota grants (v2 ``cpu.max``, v1
    ``cpu.cfs_quota_us`` over its period), or None when none is set."""
    for names in (("cpu.max",), ("cpu/cpu.cfs_quota_us",
                                 "cpu/cpu.cfs_period_us")):
        try:
            fields = []
            for name in names:
                with open(f"{root}/{name}", encoding="ascii") as fh:
                    fields += fh.read().split()
        except OSError:
            continue
        return None if fields[0] in ("max", "-1") else \
            int(fields[0]) / int(fields[1])
    return None


class _Worker:
    """A forked child process running ``target(send)`` beside this one,
    ``send`` a binary file on the pipe that ``recv`` reads: ``target``
    pickles its messages into it and writes raw array bytes after them, and
    an exception it raises is pickled in their place and raised here.
    ``os.fork`` itself, not spawn: the worker shares the mesh pages and the
    warm reference tables, and nothing is pickled on the way in; nor
    ``multiprocessing``, whose import and first use took 1.4 MB of this
    process's memory.  Raises OSError when no process is to be had (memory,
    the process limit).  Leaving its ``with`` block by an exception (^C, a
    failure here or the worker's) terminates the worker; it is reaped on the
    way out."""

    def __init__(self, target, name, lost):
        self.name, self.lost, self.code = name, lost, None
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            _work(read, write, target)
        os.close(write)
        self.pipe = open(read, "rb")

    def __enter__(self):
        return self

    def __exit__(self, kind, value, traceback):
        if kind is not None and self.code is None:
            os.kill(self.pid, signal.SIGTERM)
        self.pipe.close()
        self._reap()

    def _reap(self):
        """The worker's exit code, once it has exited (negative: the
        signal that ended it)."""
        if self.code is None:
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.code

    def recv(self, into=None):
        """The worker's next message, or its next ``into.nbytes`` bytes read
        into the array ``into``.  When the worker exited without sending
        them (killed, out of memory), warns the first time, with the
        ``lost`` text, and raises EOFError."""
        try:
            if into is not None:
                if self.pipe.readinto(into) < into.nbytes:
                    raise EOFError
                return into
            msg = pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):
            if self.code is None:
                print(f"warning: the worker {self.name} exited with code "
                      f"{self._reap()} {self.lost}")
            raise EOFError from None
        if isinstance(msg, Exception):
            raise msg
        return msg


def _work(read, write, target):
    """The forked worker: ``target(send)``, or the exception it raised,
    written to the pipe; it exits here and never returns to the stack it
    was forked from."""
    code = 1
    try:
        os.close(read)
        signal.signal(signal.SIGINT, signal.SIG_IGN)    # the parent stops it
        with open(write, "wb") as send:
            try:
                target(send)
            except Exception as exc:
                pickle.dump(exc, send)
        code = 0
    finally:
        os._exit(code)


def _forked(solve, schemes, shared):
    """The records of two schemes in study order, the first solved in a
    forked worker while this process solves the second.  A failure is
    raised where the serial loop raises it: at the first failing record in
    study order, after the records before it."""
    def first(send):
        # the record without the objects of its n that both processes hold
        pickle.dump(_with_shared(solve(schemes[0]), dict.fromkeys(shared)),
                    send)

    try:
        worker = _Worker(first, f"solving scheme {schemes[0]}",
                         "before sending its record; solving it in this "
                         "process")
    except OSError:
        yield from map(solve, schemes)
        return
    with worker:
        try:
            last = solve(schemes[1])
        except Exception as exc:    # raised after the first record
            last = exc
        try:
            rec = worker.recv()
        except EOFError:    # the worker died: solve its scheme here
            rec = solve(schemes[0])
    yield _with_shared(rec, shared)
    if isinstance(last, Exception):
        raise last
    yield last


def _beside(solve, scheme, tags, exact, mesh):
    """The record of one scheme whose error walks add to the best
    approximations from the reference spaces ``tags`` (in task order),
    which a forked worker computes while this process solves.  The worker
    sends them when all are done; this process reads the columns of one
    space into one buffer, each when its walk needs it."""
    import numpy as np

    from . import analysis

    def approximate(send):
        done = [analysis.best_approximation(tag, exact, mesh) for tag in tags]
        for sq, roots, coeffs in done:
            pickle.dump((sq, roots, coeffs[0].shape), send)
            for c in coeffs:
                send.write(c)

    try:
        worker = _Worker(approximate, "computing the best approximations",
                         "before sending them; walking the errors in this "
                         "process")
    except OSError:
        return solve(scheme)

    def best(tag):
        sq, roots, shape = worker.recv()
        column = np.empty(shape)
        return sq, roots, (worker.recv(into=column) for _ in range(3))

    with worker:
        return solve(scheme, best)


def _with_shared(rec, shared):
    """``rec`` with the objects both processes hold set from ``shared``;
    None values detach them for the pipe."""
    i3h = rec.i3h_u and replace(rec.i3h_u, partition=shared["partition"])
    return replace(rec, i3h_u=i3h, **shared)


def _record_line(config, rec):
    """The ``--record`` line of one solve: the config, the sizes, the solver
    facts (``info``: method, iterations, residual history ``norms``, final
    residual), the time and memory, every triple at full precision (JSON
    writes a float as its ``repr``) and the walk that measured them."""
    import json     # only runs that record pay its import

    line = {"config": asdict(config), "n": rec.n, "scheme": rec.scheme,
            "velocity_unknowns": rec.gmap.n_vdofs,
            "pressure_unknowns": rec.gmap.n_qdofs, **rec.info,
            "elapsed": rec.elapsed, "peak_mb": rec.peak_mb,
            "triples": {task: trip.as_tuple()
                        for task, trip in rec.triples.items()},
            "walk": rec.walk}
    # numpy scalars as Python numbers
    return json.dumps(line, default=lambda value: value.item())


def run(config):
    """Execute the configured studies; returns report paths per (scheme, task)."""
    from . import analysis

    # an unusable output directory or record file fails here, before the
    # first solve
    os.makedirs(config.out_dir, exist_ok=True)
    reports = {(s, t): analysis.ConvergenceReport(scheme=s, quantity=t)
               for s in config.schemes for t in config.tasks}
    with (open(config.record, "a", encoding="utf-8") if config.record
          else contextlib.nullcontext()) as record:
        for rec in study(config):
            for task, trip in rec.triples.items():
                reports[(rec.scheme, task)].add(rec.n, trip)
            print(f"  n={rec.n} scheme={rec.scheme}: solved "
                  f"({rec.info['method']}, {rec.info['iterations']} its, "
                  f"residual {rec.info['residual']:.2e}), "
                  f"{rec.elapsed:.1f}s elapsed, peak {rec.peak_mb:.1f} MB")
            if record:
                record.write(_record_line(config, rec) + "\n")
                record.flush()
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
        for var in THREAD_VARS:
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
