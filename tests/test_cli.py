import contextlib
import importlib.util
import json
import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from quadcurl import analysis, checks, cli, polyquad, system

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
ALL_TASKS = ("errors", "superclose", "superconv")


def test_config_validation_errors():
    cfg = cli.RunConfig(scheme="bogus")
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = cli.RunConfig(tasks=("superconv",), ns=(4,))
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = cli.RunConfig(ns=(36,))
    with pytest.raises(ValueError):
        cfg.validate()
    cli.RunConfig(ns=(36,), extended=True).validate()


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_bad_tolerance_is_a_configuration_error(tmp_path, tol):
    # caught before any solve: no scipy traceback, no "solver failure"
    rc = cli.main(["--n", "3", "--tol", tol, "--out", str(tmp_path / "r")])
    assert rc == cli.EXIT_CONFIG
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("args", [["--n", "3,3"], ["--n", "6,3,6"],
                                  ["--n", "1,2", "--task", "superclose"],
                                  ["--n", "3", "--task", ","]])
def test_bad_sizes_and_empty_tasks_fail_before_any_solve(tmp_path, capsys,
                                                        args):
    # a repeated n (no rate between equal sizes), a one-cell mesh (no
    # interior unknowns) and an empty task list are configuration errors
    rc = cli.main(args + ["--out", str(tmp_path / "r")])
    assert rc == cli.EXIT_CONFIG
    assert "solved" not in capsys.readouterr().out
    assert not (tmp_path / "r").exists()


def test_output_path_that_is_a_file_fails_before_any_solve(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    rc = cli.main(["--n", "3", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "solved" not in captured.out
    assert captured.err.startswith("configuration error")
    assert out.read_text() == ""


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_a_configuration_error(tmp_path, monkeypatch,
                                                    threads):
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    rc = cli.main(["--threads", threads, "--n", "3",
                   "--out", str(tmp_path / "r")])
    assert rc == cli.EXIT_CONFIG
    assert os.environ["OMP_NUM_THREADS"] == "4"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("threads", ["0", "-1", "abc"])
def test_bad_thread_environment_is_a_configuration_error(tmp_path, monkeypatch,
                                                         threads):
    # QUADCURL_THREADS is checked like --threads, never passed on unchecked
    monkeypatch.setenv("QUADCURL_THREADS", threads)
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    rc = cli.main(["--n", "3", "--out", str(tmp_path / "r")])
    assert rc == cli.EXIT_CONFIG
    assert os.environ["OMP_NUM_THREADS"] == "4"
    assert not (tmp_path / "r").exists()


def test_quadrature_order_is_not_an_option(tmp_path, capsys):
    # the Gauss order is the constant polyquad.GAUSS_ORDER
    with pytest.raises(SystemExit) as err:
        cli.main(["--quad-order", "8", "--n", "3", "--out", str(tmp_path)])
    assert err.value.code == cli.EXIT_CONFIG
    for key in ("quad-order", "quad_order"):
        cfg = tmp_path / "q.cfg"
        cfg.write_text(f"n=3\n{key}=8\nout={tmp_path / 'q'}\n")
        assert cli.main(["--config", str(cfg)]) == cli.EXIT_CONFIG
        assert "unknown config key quad_order" in capsys.readouterr().err
    assert not (tmp_path / "q").exists()


def test_nondivisible_superconv_exit_code(tmp_path):
    rc = cli.main(["--n", "4", "--task", "superconv",
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG


def test_unknown_scheme_exit_code(tmp_path):
    # argparse rejects invalid choices with SystemExit carrying code 2
    with pytest.raises(SystemExit) as err:
        cli.main(["--scheme", "nope", "--out", str(tmp_path)])
    assert err.value.code == cli.EXIT_CONFIG


def test_run_writes_reports_and_is_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        rc = cli.main(["--scheme", "modified", "--n", "3", "--task",
                       "errors,superclose", "--out", str(out),
                       "--format", "csv"])
        assert rc == cli.EXIT_OK
    f1 = (out1 / "modified_errors.csv").read_bytes()
    f2 = (out2 / "modified_errors.csv").read_bytes()
    assert f1 == f2
    assert (out1 / "modified_superclose.csv").exists()


def test_both_schemes_two_reports(tmp_path):
    rc = cli.main(["--scheme", "both", "--n", "3", "--task", "errors",
                   "--out", str(tmp_path), "--format", "csv"])
    assert rc == cli.EXIT_OK
    assert (tmp_path / "original_errors.csv").exists()
    assert (tmp_path / "modified_errors.csv").exists()


def test_record_appends_one_line_per_solve(tmp_path):
    # --record (config key record) appends a JSON line per solve: the
    # config, the unknowns, the solver facts with the residual history, the
    # time and memory, the triples at full precision and the walk
    record, out = tmp_path / "runs.jsonl", tmp_path / "out"
    argv = ["--scheme", "both", "--n", "3,6", "--task", "all", "--out",
            str(out)]
    assert cli.main(argv + ["--record", str(record)]) == cli.EXIT_OK
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"record={record}\n")
    assert cli.main(argv + ["--config", str(cfgfile)]) == cli.EXIT_OK
    lines = [json.loads(line) for line in record.read_text().splitlines()]
    assert [(r["n"], r["scheme"]) for r in lines] == 2 * [
        (3, "original"), (3, "modified"), (6, "original"), (6, "modified")]
    config = {"scheme": "both", "ns": [3, 6], "tol": 1e-10,
              "tasks": list(ALL_TASKS), "fmt": "both", "out_dir": str(out),
              "extended": False, "record": str(record)}
    for r in lines:
        n = r["n"]
        assert set(r) == {"config", "n", "scheme", "velocity_unknowns",
                          "pressure_unknowns", "method", "iterations",
                          "norms", "residual", "elapsed", "peak_mb",
                          "triples", "walk"}
        assert r["config"] == config
        assert r["velocity_unknowns"] == 3 * n * (n - 1)**2 \
            + 6 * n**2 * (n - 1)
        assert r["pressure_unknowns"] == (n - 1)**3
        assert r["method"] == "mgcg"
        assert len(r["norms"]) == r["iterations"] + 1
        assert r["norms"][-1] < r["norms"][0]
        assert 0 < r["residual"] <= 1e-10
        assert r["elapsed"] > 0 and r["peak_mb"] > 0
        assert r["walk"] == "direct"
        assert set(r["triples"]) == set(ALL_TASKS)
        # the report prints each value of the line to 7 digits
        for task, trip in r["triples"].items():
            rows = (out / f"{r['scheme']}_{task}.csv").read_text()
            row = next(line.split(",") for line in rows.splitlines()
                       if line.startswith(f"{n},"))
            assert [f"{v:.6E}" for v in trip] == row[1::2]


def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("scheme=original\nn=3\ntask=errors\nformat=csv\n"
                       f"out={tmp_path / 'from_file'}\n")
    rc = cli.main(["--config", str(cfgfile)])
    assert rc == cli.EXIT_OK
    assert (tmp_path / "from_file" / "original_errors.csv").exists()
    # format= is the flag's own name, so the file's csv holds
    assert not (tmp_path / "from_file" / "original_errors.md").exists()
    # explicit flag beats the file
    rc = cli.main(["--config", str(cfgfile), "--out",
                   str(tmp_path / "flag_wins")])
    assert rc == cli.EXIT_OK
    assert (tmp_path / "flag_wins" / "original_errors.csv").exists()
    # a key no option reads (here a typo) is a configuration error
    for line in ("shceme=original", "bogus=1"):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"n=3\n{line}\nout={tmp_path / 'bad'}\n")
        assert cli.main(["--config", str(bad)]) == cli.EXIT_CONFIG
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("word,want", [
    ("True", True), ("YES", True), ("1", True), ("true", True),
    ("False", False), ("NO", False), ("0", False), ("false", False),
    ("maybe", None), ("", None), ("2", None)])
def test_config_file_boolean_words(tmp_path, capsys, word, want):
    # 1/true/yes and 0/false/no in any case; any other word is a
    # configuration error, raised before any solve
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"extended = {word}\nn = 3\n")
    args = ["--config", str(cfgfile), "--out", str(tmp_path / "r")]
    if want is None:
        assert cli.main(args) == cli.EXIT_CONFIG
        assert "extended: expected" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
    else:
        assert cli._merge_config(
            cli._build_parser().parse_args(args)).extended is want


def test_out_precedence_flag_env_file_default(tmp_path, monkeypatch):
    # explicit flag > QUADCURL_OUT > the file's out= > the default "reports"
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QUADCURL_OUT", raising=False)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n=3\ntask=errors\nformat=csv\n")
    base = ["--scheme", "modified", "--config", str(cfgfile)]
    report = "modified_errors.csv"

    assert cli.main(base) == cli.EXIT_OK
    assert (tmp_path / "reports" / report).exists()
    cfgfile.write_text(cfgfile.read_text() + "out=file_out\n")
    assert cli.main(base) == cli.EXIT_OK
    assert (tmp_path / "file_out" / report).exists()
    monkeypatch.setenv("QUADCURL_OUT", "env_out")
    assert cli.main(base) == cli.EXIT_OK
    assert (tmp_path / "env_out" / report).exists()
    assert cli.main(base + ["--out", "flag_out"]) == cli.EXIT_OK
    assert (tmp_path / "flag_out" / report).exists()
    # each level wrote only where it won
    for d in ("reports", "file_out", "env_out", "flag_out"):
        assert len(list((tmp_path / d).iterdir())) == 1


def test_env_output_override(tmp_path, monkeypatch):
    monkeypatch.setenv("QUADCURL_OUT", str(tmp_path / "env_out"))
    rc = cli.main(["--scheme", "modified", "--n", "3", "--task", "errors",
                   "--format", "csv"])
    assert rc == cli.EXIT_OK
    assert (tmp_path / "env_out" / "modified_errors.csv").exists()


def test_selftest_passes(monkeypatch, capsys):
    # the battery itself runs once per session (the ``battery`` fixture);
    # here a stub battery sets the exit code: 0 when all pass, 4 otherwise
    ok = checks.CheckResult("stub", True, "fine")
    bad = checks.CheckResult("stub failure", False, "off")
    monkeypatch.setattr(checks, "run_battery", lambda: [ok])
    assert cli.main(["--selftest"]) == cli.EXIT_OK
    assert "all checks passed" in capsys.readouterr().out
    monkeypatch.setattr(checks, "run_battery", lambda: [ok, bad])
    assert cli.main(["--selftest"]) == cli.EXIT_INVARIANT
    assert "[FAIL] stub failure: off" in capsys.readouterr().out


def test_selftest_reports_a_check_that_raises(monkeypatch, capsys):
    # a check that raises is one failing result, not a crash: the results
    # before and after it still print and the exit code is 4
    def ok():
        return checks.CheckResult("stub", True, "fine")

    def broken():
        raise system.MaxIterations("residual 1e-3")

    monkeypatch.setattr(checks, "BATTERY", (ok, broken, ok))
    assert cli.main(["--selftest"]) == cli.EXIT_INVARIANT
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["[PASS] stub: fine",
                       "[FAIL] broken: raised MaxIterations: residual 1e-3",
                       "[PASS] stub: fine"]
    assert out[3].startswith("CHECKS FAILED")


def test_unreachable_tolerance_reports_solver_failure(tmp_path, capsys):
    rc = cli.main(["--scheme", "modified", "--n", "3", "--task", "errors",
                   "--out", str(tmp_path), "--tol", "1e-18"])
    assert rc == cli.EXIT_SOLVER
    assert "last velocity CG residuals" in capsys.readouterr().err


def test_stagnant_solve_stops_early(tmp_path, capsys):
    # at n = 6 the residual sits at its round-off floor from step 11 on;
    # the stagnation stop ends CG well before MAX_ITERATIONS
    rc = cli.main(["--scheme", "modified", "--n", "6", "--task", "errors",
                   "--out", str(tmp_path), "--tol", "1e-18"])
    assert rc == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    its = int(re.search(r"after (\d+) CG iterations", err).group(1))
    assert its < 30
    assert "(stopped by stagnation: no halving in 10 steps)" in err


def test_study_loads_no_scipy(tmp_path):
    # scipy serves only the self-test oracle; the test session imports it
    # itself, so the study runs in a fresh interpreter
    code = ("import json, sys\n"
            "from quadcurl import cli\n"
            f"rc = cli.main(['--n', '3', '--task', 'all', '--out', "
            f"{str(tmp_path)!r}])\n"
            "print(json.dumps([rc, sorted(m for m in sys.modules\n"
            "    if m == 'scipy' or m.startswith('scipy.'))]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=False,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rc == cli.EXIT_OK
    assert loaded == []


def test_cli_reproduces_reference_rows(tmp_path):
    # reference error rows for the modified scheme at n = 6, 12
    rc = cli.main(["--scheme", "modified", "--n", "6,12", "--task", "errors",
                   "--out", str(tmp_path), "--format", "csv"])
    assert rc == cli.EXIT_OK
    lines = (tmp_path / "modified_errors.csv").read_text().strip().splitlines()
    assert lines[0] == "n,err1,eoc1,err2,eoc2,err3,eoc3"
    expected = {
        "6": (4.332e1, 1.836e0, 2.344e-1),
        "12": (2.159e1, 4.734e-1, 1.081e-1),
    }
    for line in lines[1:]:
        cells = line.split(",")
        ref = expected[cells[0]]
        got = (float(cells[1]), float(cells[3]), float(cells[5]))
        for g, w in zip(got, ref):
            assert abs(g - w) / w < 0.02


def _clear_gauss_caches():
    # the Gauss rules are the only cache that depends on the Gauss order:
    # factored_table holds no quadrature, and TensorGrid.gauss and the walk
    # read GAUSS_ORDER at every call
    polyquad.gauss_rule.cache_clear()


def test_gauss_order_is_converged(monkeypatch):
    # the study quadratures (load, I_h, error norms) read GAUSS_ORDER at call
    # time; order 8 must reprint every digit of the order-6 report rows
    tasks = ("errors", "superclose", "superconv")

    def study():
        _clear_gauss_caches()
        recs = list(cli.study(cli.RunConfig(scheme="modified", ns=(6, 12),
                                            tasks=tasks)))
        reports = {}
        for t in tasks:
            reports[t] = analysis.ConvergenceReport("modified", t)
            for rec in recs:
                reports[t].add(rec.n, rec.triples[t])
        return reports

    want = study()
    monkeypatch.setattr(polyquad, "GAUSS_ORDER", 8)
    try:
        got = study()
    finally:
        monkeypatch.undo()
        _clear_gauss_caches()
    for t in tasks:
        assert got[t].to_csv() == want[t].to_csv(), t
        # the order reached the numbers: they move below the printed digits
        assert got[t].rows != want[t].rows, t


def test_threads_flag_overrides_preset_environment(monkeypatch):
    # explicit flags win: --threads replaces thread variables already set
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "4")
    rc = cli.main(["--threads", "1", "--n", "0"])
    assert rc == cli.EXIT_CONFIG
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[var] == "1"


def _load_bench(monkeypatch):
    """perfbench/run.py as a module, with perfbench/ importable for its
    ``spans`` import."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  BENCH_DIR / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_run_solves_once_per_scheme_with_benchmark_solver_lines(
        tmp_path, monkeypatch, capsys):
    # the benchmark counts solves by wrapping system.solve_saddle and reads
    # the solver facts from stdout with its SOLVED pattern; a forked worker
    # solves the first scheme, so each solve appends its process id to a
    # file that both processes write
    bench = _load_bench(monkeypatch)
    log = tmp_path / "solves"
    solve = system.solve_saddle

    def counting(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return solve(*args, **kwargs)

    monkeypatch.setattr(system, "solve_saddle", counting)
    _cores(monkeypatch, 2)
    cli.run(cli.RunConfig(scheme="both", ns=(3,), out_dir=str(tmp_path),
                          fmt="csv"))
    pids = log.read_text().split()
    assert len(pids) == 2
    assert len(set(pids)) == 2 and str(os.getpid()) in pids
    out = capsys.readouterr().out
    solved = bench.SOLVED.findall(out)
    assert [(m[0], m[1]) for m in solved] == [("3", "original"),
                                              ("3", "modified")]
    # each solved line ends with the peak of the process that solved it, in
    # MB: the worker's (original) and this process's (modified)
    peaks = [float(p) for p in re.findall(
        r"solved .*s elapsed, peak (\d+\.\d) MB$", out, flags=re.M)]
    bounds = [resource.getrusage(who).ru_maxrss / 1024 + 0.05 for who in
              (resource.RUSAGE_CHILDREN, resource.RUSAGE_SELF)]
    assert len(peaks) == 2
    assert all(0 < p <= b for p, b in zip(peaks, bounds))


def test_benchmark_tracer_sees_every_wrapped_call(tmp_path, monkeypatch):
    # the benchmark's --trace 1 wraps these module attributes by name and
    # stops when a span it expects (mms.eval and cli.save among them)
    # records no call; the mms.eval spans are now the grid calls of the
    # interpolation protocol (value, curl_value, curl_d2) that I_h makes, so
    # a renamed or bypassed collaborator, or an I_h that no longer calls
    # that protocol, would fail every traced run
    bench = _load_bench(monkeypatch)
    from spans import WRAPPED
    for name, workload in sorted(bench.WORKLOADS.items()):
        tracer = bench.Tracer()
        with tracer.installed("study"):
            cli.run(cli.RunConfig(scheme=workload["scheme"], ns=(3,),
                                  fmt="csv", tasks=workload["tasks"],
                                  out_dir=str(tmp_path / name)))
        recorded = {rec["name"] for rec in tracer.spans}
        assert bench.expected_spans(workload["tasks"]) <= recorded, name
        assert {"mms.eval", "cli.save"} <= recorded
        assert any(s["nnz"] > 0 for s in tracer.solves)
        if set(workload["tasks"]) == set(bench.ALL_TASKS):
            assert {n for _mod, _attr, n in WRAPPED} <= recorded


def test_extended_warning_names_velocity_unknowns(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_study_n", lambda n, config, exact: iter(()))
    list(cli.study(cli.RunConfig(ns=(24, 48), extended=True)))
    assert capsys.readouterr().out.splitlines() == [
        "warning: n=48 is an extended run (967,824 velocity unknowns)"]


# -- the two schemes of a mesh size on two processes -------------------------

def _cores(monkeypatch, count, threads="1"):
    """Make ``cli`` see ``count`` usable cores, no CPU quota and ``threads``
    BLAS threads per process: 2 cores take the forked path, 1 the serial
    one, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))
    monkeypatch.setattr(cli, "_cpu_quota", lambda: None)
    for var in cli.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)


@pytest.mark.parametrize("cores, threads, quota, forks", [
    (2, "1", None, True),
    (4, "2", None, True),
    (2, None, None, False),     # OpenBLAS runs one thread per core
    (4, None, None, False),
    (2, "2", None, False),
    (4, "3", None, False),
    (1, "1", None, False),
    (2, "1", 1.0, False),       # a cgroup quota of one CPU
    (8, "1", 2.5, True),
])
def test_fork_only_when_both_processes_blas_threads_fit(monkeypatch, cores,
                                                         threads, quota,
                                                         forks):
    _cores(monkeypatch, cores, threads)
    monkeypatch.setattr(cli, "_cpu_quota", lambda: quota)
    assert cli._can_fork() is forks
    # the largest variable set counts, whichever backend reads it
    monkeypatch.setenv("OMP_NUM_THREADS", str(cores))
    assert cli._can_fork() is False


def test_cpu_quota_reads_cgroup_files(tmp_path):
    def quota(files):
        """The quota read from a cgroup root holding ``files``."""
        root = tmp_path / str(len(list(tmp_path.iterdir())))
        (root / "cpu").mkdir(parents=True)
        for name, text in files.items():
            (root / name).write_text(text + "\n")
        return cli._cpu_quota(str(root))

    v1 = ("cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us")
    assert quota({"cpu.max": "150000 100000"}) == 1.5
    assert quota({"cpu.max": "max 100000"}) is None
    assert quota(dict(zip(v1, ("200000", "100000")))) == 2.0
    assert quota(dict(zip(v1, ("-1", "100000")))) is None
    assert quota({}) is None


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this process if the block takes longer."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _fail_scheme(monkeypatch, scheme, action):
    """Run ``action()`` in place of the load of ``scheme``; the forked
    worker solves "original", this process "modified"."""
    load = system.assemble_rhs

    def assemble_rhs(mesh, gmap, exact, mode="modified"):
        if mode == scheme:
            action()
        return load(mesh, gmap, exact, mode=mode)

    monkeypatch.setattr(system, "assemble_rhs", assemble_rhs)


# the two studies that fork, as RunConfig fields: the worker solves the
# original scheme of both, or computes the best approximations of one
FORKED = {
    "schemes": {"scheme": "both", "ns": (3,), "tasks": ("errors",)},
    "walks": {"scheme": "modified", "ns": (cli.SPLIT_MIN_N,),
              "tasks": ALL_TASKS},
}


def _argv(split, out):
    """The command line of the study of ``FORKED[split]``."""
    fields = FORKED[split]
    return ["--scheme", fields["scheme"],
            "--n", ",".join(map(str, fields["ns"])),
            "--task", ",".join(fields["tasks"]), "--out", str(out)]


def _fail_worker(monkeypatch, split, action):
    """Run ``action()`` in the worker's part of the study of
    ``FORKED[split]``: the load of the original scheme, or the best
    approximations, which only the worker computes."""
    if split == "schemes":
        _fail_scheme(monkeypatch, "original", action)
        return
    approximate = analysis.best_approximation

    def best_approximation(*args):
        action()
        return approximate(*args)

    monkeypatch.setattr(analysis, "best_approximation", best_approximation)


def test_forked_and_serial_paths_write_identical_reports(tmp_path,
                                                         monkeypatch):
    forked = []
    fork = cli._forked
    monkeypatch.setattr(cli, "_forked",
                        lambda *a: forked.append(a) or fork(*a))
    files = {}
    for cores in (2, 1):
        _cores(monkeypatch, cores)
        out = tmp_path / f"cores{cores}"
        cli.run(cli.RunConfig(scheme="both", ns=(3, 6),
                              tasks=("errors", "superclose", "superconv"),
                              out_dir=str(out)))
        files[cores] = {p.name: p.read_bytes() for p in out.iterdir()}
        # one worker per mesh size on two cores, none on one
        assert len(forked) == 2
    assert len(files[2]) == 12
    assert files[2] == files[1]
    # fork would copy the locks another thread holds: serial again
    _cores(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        cli.run(cli.RunConfig(scheme="both", ns=(3,),
                              out_dir=str(tmp_path / "thread")))
    finally:
        stop.set()
        thread.join(timeout=10)
    assert len(forked) == 2 and not thread.is_alive()


def test_failed_fork_solves_the_schemes_in_turn(tmp_path, monkeypatch,
                                               capsys):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    _cores(monkeypatch, 2)
    rc = cli.main(["--scheme", "both", "--n", "3", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    assert re.findall(r"scheme=(\w+): solved", capsys.readouterr().out) == \
        ["original", "modified"]


def test_forked_records_match_serial_records(monkeypatch):
    # the worker's record comes back through a pipe without the objects of
    # its n; this process puts its own back.  With one scheme the worker
    # sends the best approximations instead, and the errors and superconv
    # triples come from their split: the solve and the superclose triple
    # stay bitwise those of the serial path, the split triples within 1e-10
    for split, fields in sorted(FORKED.items()):
        config = cli.RunConfig(**dict(fields, tasks=ALL_TASKS))
        _cores(monkeypatch, 1)
        serial = list(cli.study(config))
        _cores(monkeypatch, 2)
        forked = list(cli.study(config))
        assert [r.scheme for r in forked] == list(config.schemes)
        assert {r.walk for r in serial} == {"direct"}
        assert {r.walk for r in forked} == {
            "split" if split == "walks" else "direct"}
        for s, f in zip(serial, forked):
            for task, trip in s.triples.items():
                if split == "walks" and task != "superclose":
                    assert f.triples[task].as_tuple() == pytest.approx(
                        trip.as_tuple(), rel=1e-10)
                else:
                    assert f.triples[task] == trip
            assert f.info == s.info
            assert (f.u == s.u).all() and (f.ihu == s.ihu).all()
            assert (f.i3h_u.coeffs == s.i3h_u.coeffs).all()
            assert f.i3h_u.partition is f.partition
            assert f.mesh is forked[-1].mesh and f.gmap is forked[-1].gmap


def test_one_scheme_forks_from_split_min_n_for_a_split_task(monkeypatch):
    # the benchmark's n = 3 set-up pass, any n below SPLIT_MIN_N and a study
    # with no errors or superconv task walk in this process alone
    beside = []
    split = cli._beside
    monkeypatch.setattr(cli, "_beside",
                        lambda *a: beside.append(a[1:]) or split(*a))
    _cores(monkeypatch, 2)
    bench = _load_bench(monkeypatch)
    small = list(range(6, cli.SPLIT_MIN_N, 3))
    for config in (cli.RunConfig(**bench.SETUP_CONFIG),
                   cli.RunConfig(ns=tuple(small), tasks=ALL_TASKS),
                   cli.RunConfig(ns=(cli.SPLIT_MIN_N,),
                                 tasks=("superclose",))):
        assert {r.walk for r in cli.study(config)} == {"direct"}
    assert small and beside == []
    config = cli.RunConfig(ns=(cli.SPLIT_MIN_N,), tasks=("superconv",))
    assert [r.walk for r in cli.study(config)] == ["split"]
    assert [(scheme, tags) for scheme, tags, *_ in beside] == [
        ("modified", ["VM"])]


@pytest.mark.parametrize("exc", [
    system.MaxIterations("stub failure", residual=1.5e-3, tail=(0.5, 0.25)),
    system.SingularSystem("stub failure")])
def test_worker_failure_reaches_main(tmp_path, monkeypatch, capsys, exc):
    # raised in the worker, pickled through the pipe, raised here with its
    # message, residual and tail intact, in both forked studies
    def fail():
        raise exc

    _cores(monkeypatch, 2)
    for split in sorted(FORKED):
        with monkeypatch.context() as patch:
            _fail_worker(patch, split, fail)
            with pytest.raises(type(exc)) as err:
                cli.run(cli.RunConfig(**FORKED[split],
                                      out_dir=str(tmp_path)))
            assert str(err.value) == "stub failure"
            assert vars(err.value) == vars(exc)
            rc = cli.main(_argv(split, tmp_path))
        assert rc == cli.EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.err == "solver failure: stub failure\n"
        assert "solved" not in captured.out


def test_parent_failure_comes_after_the_worker_record(tmp_path, monkeypatch,
                                                      capsys):
    # as in the serial loop, the original record is printed before the
    # modified scheme's failure
    def fail():
        raise system.SingularSystem("stub failure")

    _fail_scheme(monkeypatch, "modified", fail)
    outputs = []
    for cores in (2, 1):
        _cores(monkeypatch, cores)
        rc = cli.main(["--scheme", "both", "--n", "3", "--out",
                       str(tmp_path)])
        assert rc == cli.EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.err == "solver failure: stub failure\n"
        outputs.append(re.sub(r"[\d.]+s elapsed, peak [\d.]+ MB", "",
                              captured.out))
    assert outputs[0] == outputs[1]
    assert "n=3 scheme=original: solved" in outputs[0]


def test_both_schemes_failing_report_the_first_in_study_order(tmp_path,
                                                              monkeypatch,
                                                              capsys):
    # at tol 1e-18 both schemes stagnate; the serial run reports the
    # original scheme's failure, and so must the forked one
    errs = []
    for cores in (1, 2):
        _cores(monkeypatch, cores)
        rc = cli.main(["--scheme", "both", "--n", "3", "--tol", "1e-18",
                       "--out", str(tmp_path)])
        assert rc == cli.EXIT_SOLVER
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("solver failure: relative residual 2.785e-16")


def test_dead_worker_scheme_is_solved_here(tmp_path, monkeypatch, capsys):
    # a worker that exits without sending (killed, out of memory) must not
    # leave this process waiting on the pipe, nor end the study: this
    # process does the worker's part, solving its scheme or walking the
    # errors directly, and says so once
    warnings = {
        "schemes": "warning: the worker solving scheme original exited with "
                   "code 7 before sending its record; solving it in this "
                   "process",
        "walks": "warning: the worker computing the best approximations "
                 "exited with code 7 before sending them; walking the "
                 "errors in this process"}
    pid = os.getpid()
    for split, warning in sorted(warnings.items()):
        out_dir = tmp_path / split
        with monkeypatch.context() as patch:
            _fail_worker(patch, split,
                         lambda: os.getpid() != pid and os._exit(7))
            _cores(patch, 2)
            with _deadline(60):
                rc = cli.main(_argv(split, out_dir / "dead")
                              + ["--record", str(out_dir / "record")])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.count("warning:") == 1 and warning in out
        assert re.findall(r"scheme=(\w+): solved", out) == \
            list(cli.RunConfig(scheme=FORKED[split]["scheme"]).schemes)
        assert {json.loads(line)["walk"] for line in
                (out_dir / "record").read_text().splitlines()} == {"direct"}
        _cores(monkeypatch, 1)
        cli.main(_argv(split, out_dir / "serial"))
        capsys.readouterr()
        for path in (out_dir / "serial").iterdir():
            assert (out_dir / "dead" / path.name).read_bytes() == \
                path.read_bytes()


def test_interrupted_parent_stops_the_worker(tmp_path, monkeypatch):
    # ^C in this process, which loads the modified scheme, terminates a
    # worker that would run for a minute, in both forked studies
    def interrupt():
        raise KeyboardInterrupt

    _fail_scheme(monkeypatch, "modified", interrupt)
    _cores(monkeypatch, 2)
    for split in sorted(FORKED):
        with monkeypatch.context() as patch:
            _fail_worker(patch, split, lambda: time.sleep(60))
            t0 = time.perf_counter()
            with _deadline(30):
                rc = cli.main(_argv(split, tmp_path))
        assert rc == 130
        assert time.perf_counter() - t0 < 30



def test_bench_script_parses_solved_lines_and_sums_the_tree_pss():
    path = BENCH_DIR.parent / "scripts" / "bench.py"
    spec = importlib.util.spec_from_file_location("bench_script", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    line = ("  n=24 scheme=modified: solved (mgcg, 15 its, residual "
            "8.70e-12), 1.8s elapsed, peak 73.9 MB\n")
    assert script._solves(line) == [{
        "n": 24, "scheme": "modified", "iterations": 15,
        "residual": 8.7e-12, "elapsed_s": 1.8, "peak_mb": 73.9}]
    # this process and its child, each with a share of the pages they hold
    child = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(60)"])
    try:
        pss = script.tree_pss_mb(os.getpid())
    finally:
        child.kill()
        child.wait()
    assert {os.getpid(), child.pid} <= set(pss)
    assert all(mb > 0 for mb in pss.values())

# -- every accepted mesh size solves ------------------------------------------

def _bottom(n):
    """The coarsest mesh of the V-cycle of an n-mesh, from _coarsening."""
    while system._coarsening(n):
        n //= system._coarsening(n)
    return n


def test_validate_refuses_sizes_whose_hierarchy_ends_above_13():
    refused = []
    for n in range(2, 61):
        config = cli.RunConfig(ns=(n,), extended=True)
        if _bottom(n) > 13:
            with pytest.raises(ValueError, match="ends at"):
                config.validate()
            refused.append(n)
        else:
            config.validate()
    # the sizes that stagnated after 10 CG steps; 13 and 26 (-> 13) solve
    assert {17, 19, 23, 25, 34, 35} <= set(refused)
    assert 13 not in refused and 26 not in refused


def test_size_without_coarse_level_is_a_configuration_error(tmp_path, capsys):
    rc = cli.main(["--n", "6,17", "--out", str(tmp_path / "r")])
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "solved" not in captured.out
    assert "n=17" in captured.err and "16 and 18" in captured.err
    assert not (tmp_path / "r").exists()


def test_every_accepted_size_up_to_26_solves():
    ns = tuple(n for n in range(2, 27) if _bottom(n) <= 13)
    config = cli.RunConfig(scheme="modified", ns=ns, tasks=("errors",),
                           extended=True)
    config.validate()
    its = {rec.n: rec.info["iterations"] for rec in cli.study(config)}
    assert sorted(its) == list(ns)
    assert max(its.values()) < system.MAX_ITERATIONS


def test_iteration_cap_names_itself(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(system, "MAX_ITERATIONS", 3)
    rc = cli.main(["--scheme", "modified", "--n", "6", "--out",
                   str(tmp_path)])
    assert rc == cli.EXIT_SOLVER
    assert "after 3 CG iterations (stopped at the iteration cap)" in \
        capsys.readouterr().err

