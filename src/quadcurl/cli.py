"""Batch harness: convergence studies over mesh sizes, table emission and the
self-test battery.

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 invariant
(self-test) failure.  Heavy imports happen after thread-count handling so that
the count (``--threads``, QUADCURL_THREADS or the cores) reaches the backend;
where numpy was loaded before ``main``, its BLAS has read its count, and
``main`` leaves the thread variables as they are.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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
# the numerics backends' thread variables, which ``main`` sets
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

DEFAULT_NS = (6, 12, 18, 24)
EXTENDED_NS = (36, 48)
# the reference space of the error walk of each task that the best
# approximation splits (``analysis.best_approximation``)
SPLIT_SPACES = {"errors": "VK", "superconv": "VM"}
# the smallest n whose one-scheme study computes its best approximations in
# a forked worker.  Medians of 12 studies of every task, one BLAS thread on
# two cores, with the error walks in row blocks: 190 ms walked here against
# 168 ms forked at n = 15, but 81 against 109 ms at n = 12
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
        if not self.tasks or len(set(self.tasks)) < len(self.tasks):
            raise ValueError(f"tasks must be distinct and at least one, got "
                             f"{self.tasks}")
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
    p.add_argument("--record",
                   help="append one JSON line per solve to this file")
    p.add_argument("--threads", type=int,
                   help="BLAS threads a process (default: half the cores)")
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
    """One solve of a study, as plain facts: its sizes, the solver facts,
    u_h and the triple of each requested task."""

    n: int
    scheme: str
    velocity_unknowns: int
    pressure_unknowns: int
    info: dict                  # solver facts from ``system.solve_saddle``
    u: object                   # V_h coefficients of u_h
    triples: dict = field(default_factory=dict)    # task -> ErrorTriple
    elapsed: float = 0.0        # seconds since this n started
    peak_mb: float = 0.0        # peak RSS of the process that solved it
    walk: str = "direct"        # "split": a triple from the best approximation


def study(config):
    """Solve every (n, scheme) of the configured study; yields one
    ``StudyRecord`` per solve.

    Collaborators are looked up as module attributes at call time, so
    wrappers installed on them see this process's calls; the study's one
    forked worker (``_fork``) makes its own in another process, and only
    what it sends back reaches this one.  Closing this generator, or an
    exception in its consumer, terminates and reaps the worker.
    """
    from . import mms

    exact = mms.build_exact_fields()
    worker = _fork(config, exact)
    with worker or contextlib.nullcontext():
        for n in config.ns:
            if n > max(DEFAULT_NS):
                # interior edges plus two DoFs per interior face
                unknowns = 3 * n * (n - 1) ** 2 + 6 * n**2 * (n - 1)
                print(f"warning: n={n} is an extended run "
                      f"({unknowns:,} velocity unknowns)")
            # one generator frame per n: nothing of this n outlives its
            # records
            yield from _study_n(n, config, exact, worker)


def _fork(config, exact):
    """The study's forked worker (``_Worker``), or None when the study
    runs in this process alone: when it has no job for a worker, when the
    BLAS threads of two processes do not fit (``_can_fork``) or when the
    fork fails.  With two schemes the worker runs the serial pipeline of
    the second over every n, sending each record as it is made.  With one,
    and an errors or superconv task, it computes the best approximations
    of those walks at every n from SPLIT_MIN_N on, in study order, from
    the mesh alone."""
    from . import analysis
    from .mesh import build_mesh

    schemes = config.schemes
    tags = [SPLIT_SPACES[task] for task in config.tasks if task in SPLIT_SPACES]
    walked = [n for n in config.ns if n >= SPLIT_MIN_N] if tags else []
    if len(schemes) == 2:
        second = replace(config, scheme=schemes[1])

        def job():
            for n in config.ns:
                yield _study_n(n, second, exact)

        about = (f"solving scheme {schemes[1]}", "before sending its "
                 "record; solving it in this process")
    elif walked:
        def job():
            for n in walked:
                mesh = build_mesh(n)
                # every walk of this n before its first send: a send blocks
                # on a full pipe until the main process, done solving, reads
                done = [analysis.best_approximation(tag, exact, mesh)
                        for tag in tags]
                yield [msg for sq, roots, coeffs in done
                       for msg in ((sq, roots), *coeffs)]

        about = ("computing the best approximations", "before sending "
                 "them; walking the errors in this process")
    else:
        return None
    if not _can_fork():
        return None
    try:
        return _Worker(job, *about)
    except OSError:
        return None


def _study_n(n, config, exact, worker=None):
    """The records of one mesh size.  Its schemes share the mesh, DoF map,
    A, B, the partition and I_h u, each built in this process; the last two
    after the first solve, which never reads them.  No record holds any of
    them, so a record crosses the pipe from the worker as it is.  With the
    study's ``worker`` (``_fork``), which builds its own, this process does
    its part beside the worker's: with two schemes it solves the first
    while the worker solves the second; with one, from n = SPLIT_MIN_N on,
    the errors and superconv walks read the best approximations that the
    worker computes while this process solves.  A worker that died leaves
    its part to this process.  Records and failures come in the serial
    loop's order, each as soon as this process has it: the first record
    while the worker may still run."""
    from . import analysis, interp, system
    from .mesh import build_mesh, macro_partition

    t0 = time.perf_counter()
    tasks = config.tasks
    mesh = build_mesh(n)
    gmap = system.build_dof_map(mesh)
    A = system.assemble_A(mesh, gmap)
    B = system.assemble_B(mesh, gmap)
    shared = {"partition": None, "ihu": None}

    def share():
        """The partition and I_h u of the tasks that read them, once."""
        if "superconv" in tasks and shared["partition"] is None:
            shared["partition"] = macro_partition(mesh)
        if "superclose" in tasks and shared["ihu"] is None:
            shared["ihu"] = interp.global_interp_Ih(exact, mesh, gmap)

    def solve(scheme, best=None):
        """The record of one scheme: its load, solve and every task.
        ``best()``, when given, reads the best approximation that the next
        split walk adds to."""
        rhs = system.assemble_rhs(mesh, gmap, exact, mode=scheme)
        sys_ = system.SaddleSystem(A=A, B=B, rhs=rhs, gmap=gmap, mesh=mesh)
        u, _p, info = system.solve_saddle(sys_, tol=config.tol)
        share()
        rec = StudyRecord(n=n, scheme=scheme,
                          velocity_unknowns=int(gmap.n_vdofs),
                          pressure_unknowns=int(gmap.n_qdofs), info=info, u=u)
        for task in tasks:
            if task == "superclose":
                rec.triples[task] = analysis.superclose_error(
                    u, shared["ihu"], mesh, gmap)
                continue
            if task == "errors":
                measure = functools.partial(analysis.error_vs_exact, u,
                                            exact, mesh, gmap)
            else:
                i3h_u = interp.global_I3h(u, mesh, gmap, shared["partition"])
                measure = functools.partial(analysis.superconvergent_error,
                                            i3h_u, exact, mesh)
            trip = None
            if best is not None:
                try:
                    trip = measure(best=best())
                    rec.walk = "split"
                except EOFError:    # the worker died: walk here
                    pass
            rec.triples[task] = measure() if trip is None else trip
        rec.elapsed = time.perf_counter() - t0
        # this process's resident high-water mark (ru_maxrss is in KB)
        rec.peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return rec

    def best():
        sq, roots = worker.recv()
        return sq, roots, (worker.recv() for _ in roots)

    schemes = config.schemes
    if worker is None:
        yield from map(solve, schemes)
    elif len(schemes) == 1:
        yield solve(schemes[0], best if n >= SPLIT_MIN_N else None)
    else:
        yield solve(schemes[0])
        try:
            rec = worker.recv()
        except EOFError:    # the worker died: solve its scheme here
            rec = solve(schemes[1])
        yield rec


def _can_fork():
    """Whether a forked worker can compute beside this process: no
    other Python thread runs (fork would copy the locks it holds) and the
    BLAS threads of both processes fit in the usable cores.  Each process
    runs ``_blas_threads()`` BLAS threads, else one per core, OpenBLAS's
    default, which leaves no room for a second process."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return False
    cores = _usable_cores()
    return 2 * (_blas_threads() or cores) <= cores


def _usable_cores():
    """Cores in the affinity mask, capped by a cgroup CPU quota; at least 1."""
    return max(1, int(min(len(os.sched_getaffinity(0)),
                          _cpu_quota() or math.inf)))


def _numpy_loaded():
    """Whether numpy, and the BLAS that reads the thread variables when it
    loads, is already loaded in this process."""
    return "numpy" in sys.modules


def _blas_threads():
    """The largest thread variable set, or None: OpenBLAS reads a count
    below 1 as unset.  ``main`` sets them only before numpy loads, so they
    hold the count the loaded BLAS read."""
    return max((int(v) for v in map(os.environ.get, THREAD_VARS)
                if v and v.isdigit() and int(v) >= 1), default=None)


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
    """A forked child process running ``target()`` beside this one for a
    whole study: ``target`` yields batches of messages, and the child
    pickles each batch into the pipe that ``recv`` reads and flushes it; an
    exception it raises is pickled in their place and raised here.
    ``os.fork`` itself, not spawn: the worker starts from this process's
    warm reference tables, and nothing is pickled on the way in; nor
    ``multiprocessing``, whose import and first use took 1.4 MB of this
    process's memory.  Forked before the study's first mesh, it builds its
    own per-n objects while this process builds its own.  Raises OSError
    when no process is to be had (memory, the process limit).  Leaving its
    ``with`` block by an exception (^C, a failure here or the worker's)
    terminates the worker; it is reaped on the way out."""

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

    def recv(self):
        """The worker's next message.  When the worker exited without
        sending it (killed, out of memory), warns the first time, with the
        ``lost`` text, and raises EOFError."""
        try:
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
    """The forked worker: each batch of ``target()`` written to the pipe,
    or the exception it raised; it exits here and never returns to the
    stack it was forked from."""
    code = 1
    try:
        os.close(read)
        signal.signal(signal.SIGINT, signal.SIG_IGN)    # the parent stops it
        with open(write, "wb") as send:
            try:
                for batch in target():
                    for msg in batch:
                        pickle.dump(msg, send)
                    # the batch's tail would otherwise wait in the buffer,
                    # and the parent for it, until the next batch is made
                    send.flush()
            except Exception as exc:
                pickle.dump(exc, send)
        code = 0
    finally:
        os._exit(code)


def record(config, rec):
    """The record of one solve, the one format of its facts, which ``run``
    writes as a ``--record`` line and renders the reports from: the config,
    the sizes, the solver facts (``info``: method, iterations, residual
    history ``norms``, final residual), the time and memory, every triple
    at full precision, the walk that measured them and the BLAS threads a
    process, which decide the fork (``_blas_threads``)."""
    return {"config": asdict(config), "n": rec.n, "scheme": rec.scheme,
            "velocity_unknowns": rec.velocity_unknowns,
            "pressure_unknowns": rec.pressure_unknowns, **rec.info,
            "elapsed": rec.elapsed, "peak_mb": rec.peak_mb,
            "triples": {task: trip.as_tuple()
                        for task, trip in rec.triples.items()},
            "walk": rec.walk, "threads": _blas_threads()}


def _check_makeable(path):
    """Raise NotADirectoryError unless ``path`` is a directory or
    ``os.makedirs`` can make it: its nearest existing ancestor must be a
    directory that this process may write in."""
    head = path = os.path.abspath(path)
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head) or head != path and \
            not os.access(head, os.W_OK | os.X_OK):
        raise NotADirectoryError(f"cannot make directory {path}: "
                                 f"{head} is not a writable directory")


def run(config):
    """Execute the configured studies; returns report paths per (scheme, task)."""
    from . import analysis

    # an unusable output directory or record file fails here, before the
    # first solve and before either is created: both places are checked
    # first, and opening the record file is the last step that fails
    _check_makeable(config.out_dir)
    if config.record:
        folder = os.path.dirname(os.path.abspath(config.record))
        _check_makeable(folder)
        os.makedirs(folder, exist_ok=True)
    records = []
    with (open(config.record, "a", encoding="utf-8") if config.record
          else contextlib.nullcontext()) as sink:
        os.makedirs(config.out_dir, exist_ok=True)
        for rec in study(config):
            print(f"  n={rec.n} scheme={rec.scheme}: solved "
                  f"({rec.info['method']}, {rec.info['iterations']} its, "
                  f"residual {rec.info['residual']:.2e}), "
                  f"{rec.elapsed:.1f}s elapsed, peak {rec.peak_mb:.1f} MB")
            records.append(record(config, rec))
            del rec             # let the next n start without this one
            if sink:
                import json     # only runs that record pay its import
                # a float as its repr, a numpy scalar as a Python number
                print(json.dumps(records[-1], default=lambda v: v.item()),
                      file=sink, flush=True)
    paths = {}
    for key in [(s, t) for s in config.schemes for t in config.tasks]:
        report = analysis.ConvergenceReport.from_records(records, *key)
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
    if threads is None and _blas_threads() is None and \
            hasattr(os, "sched_getaffinity"):
        # nothing set: half the usable cores a process, so two fit (_can_fork)
        threads = max(1, _usable_cores() // 2)
    if threads is not None:
        try:
            count = int(threads)
        except ValueError:
            count = 0
        if count < 1:
            print(f"configuration error: {source} must be >= 1, got "
                  f"{threads}", file=sys.stderr)
            return EXIT_CONFIG
        # a loaded BLAS has read its count: the variables keep telling
        # _can_fork that count
        if not _numpy_loaded():
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
