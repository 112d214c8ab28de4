import contextlib
import importlib.util
import itertools
import json
import os
import pickle
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from quadcurl import analysis, checks, cli, polyquad, system
import golden

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
                                  ["--n", "3", "--task", ","],
                                  ["--n", "3", "--task",
                                   "errors,errors,superclose"],
                                  ["--n", "3", "--record",
                                   f"{os.devnull}/r.jsonl"],
                                  ["--n", "3", "--out", "{tmp}/taken",
                                   "--record", "{tmp}/new.jsonl"]])
def test_bad_sizes_and_empty_tasks_fail_before_any_solve(tmp_path, capsys,
                                                        args):
    # a repeated n (no rate between equal sizes), a one-cell mesh (no
    # interior unknowns), an empty task list, a repeated task (computed
    # twice), a record file that cannot be opened and an output path that
    # is a file beside a new record file are configuration errors, and
    # none leaves an output directory or a record file
    (tmp_path / "taken").write_text("")
    rc = cli.main(["--out", str(tmp_path / "r")]
                  + [arg.format(tmp=tmp_path) for arg in args])
    assert rc == cli.EXIT_CONFIG
    assert "solved" not in capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


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
    # each run makes its output directory, and a record file inside it
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        rc = cli.main(["--scheme", "modified", "--n", "3", "--task",
                       "errors,superclose", "--out", str(out),
                       "--record", str(out / "run.jsonl"), "--format", "csv"])
        assert rc == cli.EXIT_OK
        assert len((out / "run.jsonl").read_text().splitlines()) == 1
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


def test_record_appends_one_line_per_solve(tmp_path, monkeypatch):
    # --record (config key record) appends a JSON line per solve: the
    # config, the unknowns, the solver facts with the residual history, the
    # time and memory, the triples at full precision, the walk and the BLAS
    # threads a process, which main set
    monkeypatch.setattr(cli, "_numpy_loaded", lambda: False)
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
                          "triples", "walk", "threads", "guess_scale"}
        assert r["config"] == config
        assert r["threads"] == cli._blas_threads() >= 1
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
    # the reports rendered from the run's own lines are the files it wrote
    for scheme in ("original", "modified"):
        for task in ALL_TASKS:
            analysis.ConvergenceReport.from_records(
                lines[4:], scheme, task).save(tmp_path / "again")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == \
        {p.name: p.read_bytes() for p in (tmp_path / "again").iterdir()}
    # no thread variable set: null
    for var in cli.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    rec = cli.StudyRecord(n=3, scheme="modified", velocity_unknowns=0,
                          pressure_unknowns=0, info={}, u=None)
    assert cli.record(cli.RunConfig(), rec)["threads"] is None


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
        config = cli.RunConfig(scheme="modified", ns=(6, 12), tasks=tasks)
        records = [cli.record(config, rec) for rec in cli.study(config)]
        return {t: analysis.ConvergenceReport.from_records(records,
                                                           "modified", t)
                for t in tasks}

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
    # explicit flags win: --threads replaces thread variables already set,
    # as long as numpy has not loaded; in this process it has, its BLAS
    # read the 4, and the variables keep saying so
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "4")
    for loaded, want in ((True, "4"), (False, "1")):
        monkeypatch.setattr(cli, "_numpy_loaded", lambda: loaded)
        rc = cli.main(["--threads", "1", "--n", "0"])
        assert rc == cli.EXIT_CONFIG
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            assert os.environ[var] == want


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
    # solves the second scheme, so each solve appends its process id to a
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
    # MB: this process's (original) and the worker's (modified)
    peaks = [float(p) for p in re.findall(
        r"solved .*s elapsed, peak (\d+\.\d) MB$", out, flags=re.M)]
    bounds = [resource.getrusage(who).ru_maxrss / 1024 + 0.05 for who in
              (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
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


def test_extended_warning_names_velocity_unknowns(monkeypatch, capfd):
    # printed once, by this process: the study's worker, forked before the
    # first mesh and here handed stub best approximations of n = 24 and 48,
    # writes nothing to the standard output that both processes share
    forked = _count_workers(monkeypatch)
    _cores(monkeypatch, 2)
    monkeypatch.setattr(cli, "_study_n",
                        lambda n, config, exact, worker: iter(()))
    monkeypatch.setattr(analysis, "best_approximation",
                        lambda tag, exact, mesh: (0.0, (), ()))
    list(cli.study(cli.RunConfig(ns=(24, 48), extended=True)))
    assert forked == ["computing the best approximations"]
    assert capfd.readouterr().out.splitlines() == [
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
    (2, "0", None, False),      # and so it does for a count below 1
    (4, None, None, False),
    (2, "2", None, False),
    (4, "3", None, False),
    (1, "1", None, False),
    (2, "1", 1.0, False),       # a cgroup quota of one CPU
    (8, "1", 2.5, True),
    (2, None, 0.5, False),      # a quota below one CPU counts as one core
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


def _main_on_cores(monkeypatch, tmp_path, cores, quota=None, argv=(),
                   env=()):
    """``cli.main`` on a two-scheme n = 3 study, seeing ``cores`` usable
    cores under a CPU ``quota`` and no thread setting but ``argv`` and the
    variables ``env``, and numpy not loaded yet, as in a fresh process:
    (the thread variables it leaves, the workers it forked)."""
    _cores(monkeypatch, cores, threads=None)
    monkeypatch.setattr(cli, "_numpy_loaded", lambda: False)
    monkeypatch.setattr(cli, "_cpu_quota", lambda: quota)
    monkeypatch.delenv("QUADCURL_THREADS", raising=False)
    for var, value in env:
        monkeypatch.setenv(var, value)
    forked = _count_workers(monkeypatch)
    rc = cli.main(["--scheme", "both", "--n", "3", "--out", str(tmp_path),
                   "--format", "csv", *argv])
    assert rc == cli.EXIT_OK
    return {var: os.environ.get(var) for var in cli.THREAD_VARS}, forked


@pytest.mark.parametrize("cores, quota, threads, forks", [
    (1, None, "1", False),
    (2, None, "1", True),
    (8, None, "4", True),
    (4, 1.5, "1", False),       # a quota of 1.5 CPUs leaves one core
])
def test_no_thread_setting_gives_each_process_half_the_usable_cores(
        monkeypatch, tmp_path, cores, quota, threads, forks):
    env, forked = _main_on_cores(monkeypatch, tmp_path, cores, quota)
    assert env == dict.fromkeys(cli.THREAD_VARS, threads)
    assert forked == (["solving scheme modified"] if forks else [])


@pytest.mark.parametrize("argv, env, want", [
    (["--threads", "3"], (), dict.fromkeys(cli.THREAD_VARS, "3")),
    ([], [("QUADCURL_THREADS", "3")], dict.fromkeys(cli.THREAD_VARS, "3")),
    ([], [("OPENBLAS_NUM_THREADS", "3")],
     {"OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": "3",
      "MKL_NUM_THREADS": None}),
])
def test_an_explicit_thread_setting_wins_over_the_cores(monkeypatch,
                                                       tmp_path, argv, env,
                                                       want):
    # 8 cores would give 4 threads a process; 3 of them still fit twice
    got, forked = _main_on_cores(monkeypatch, tmp_path, 8, argv=argv,
                                 env=env)
    assert got == want
    assert forked == ["solving scheme modified"]


@pytest.mark.parametrize("first, forks, threads", [
    ("numpy", 0, None), ("quadcurl.cli", 1, "1")])
def test_fork_follows_the_blas_threads_numpy_loaded_with(tmp_path, first,
                                                        forks, threads):
    # a fresh interpreter on two cores with no thread variable: when numpy
    # loads before main, its BLAS keeps one thread per core whatever main
    # would set, so the two schemes are solved here and no variable is
    # set; when main runs first, each process gets one thread and forks
    code = (f"import json, os, {first}\n"
            "from quadcurl import cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "cli._cpu_quota = lambda: None\n"
            "forked, worker = [], cli._Worker\n"
            "cli._Worker = lambda *args: forked.append(args) or "
            "worker(*args)\n"
            f"rc = cli.main(['--scheme', 'both', '--n', '3', '--out', "
            f"{str(tmp_path)!r}])\n"
            "print(json.dumps([rc, len(forked), [os.environ.get(var)\n"
            "    for var in cli.THREAD_VARS]]))\n")
    env = {key: value for key, value in os.environ.items()
           if key not in cli.THREAD_VARS + ("QUADCURL_THREADS",)}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=False, env=env)
    assert proc.returncode == 0, proc.stderr
    rc, count, values = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rc == cli.EXIT_OK
    assert count == forks
    assert values == [threads] * len(cli.THREAD_VARS)


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


class _Expired(Exception):
    """A ``_deadline`` passed.  Not an OSError, unlike TimeoutError, so no
    handler of ``cli`` (the configuration error of ``main``, the serial
    fallback of a fork that fails) takes it for a failure of its own."""


@contextlib.contextmanager
def _deadline(seconds):
    """Raise ``_Expired`` in this process if the block takes longer."""
    def expire(signum, frame):
        raise _Expired(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _fail_scheme(monkeypatch, scheme, action):
    """Run ``action()`` in place of the load of ``scheme``; this process
    solves "original", the forked worker "modified"."""
    load = system.assemble_rhs

    def assemble_rhs(mesh, gmap, exact, mode="modified"):
        if mode == scheme:
            action()
        return load(mesh, gmap, exact, mode=mode)

    monkeypatch.setattr(system, "assemble_rhs", assemble_rhs)


# the two studies that fork, as RunConfig fields: the worker solves the
# modified scheme of both, or computes the best approximations of one
FORKED = {
    "schemes": {"scheme": "both", "ns": (3,), "tasks": ("errors",)},
    "walks": {"scheme": "modified", "ns": (cli.SPLIT_MIN_N,),
              "tasks": ALL_TASKS},
}
# the same studies over two mesh sizes: the worker's part at a later n
LATER = {"schemes": (3, 6), "walks": (3, cli.SPLIT_MIN_N)}


def _argv(split, out, ns=None):
    """The command line of the study of ``FORKED[split]``, over its own
    mesh sizes or ``ns``."""
    fields = FORKED[split]
    return ["--scheme", fields["scheme"],
            "--n", ",".join(map(str, ns or fields["ns"])),
            "--task", ",".join(fields["tasks"]), "--out", str(out)]


def _fail_worker(monkeypatch, split, action):
    """Run ``action()`` in the worker's part of the study of
    ``FORKED[split]``: the load of the modified scheme, or the best
    approximations, which only the worker computes."""
    if split == "schemes":
        _fail_scheme(monkeypatch, "modified", action)
        return
    approximate = analysis.best_approximation

    def best_approximation(*args):
        action()
        return approximate(*args)

    monkeypatch.setattr(analysis, "best_approximation", best_approximation)


def _count_workers(monkeypatch):
    """The names of the workers ``cli`` forks from now on, in order."""
    names = []
    worker = cli._Worker
    monkeypatch.setattr(cli, "_Worker",
                        lambda job, name, lost: names.append(name)
                        or worker(job, name, lost))
    return names


def test_forked_and_serial_paths_write_identical_reports(tmp_path,
                                                         monkeypatch):
    forked = _count_workers(monkeypatch)
    files = {}
    for cores in (2, 1):
        _cores(monkeypatch, cores)
        out = tmp_path / f"cores{cores}"
        cli.run(cli.RunConfig(scheme="both", ns=(3, 6),
                              tasks=("errors", "superclose", "superconv"),
                              out_dir=str(out)))
        files[cores] = {p.name: p.read_bytes() for p in out.iterdir()}
        # one worker per study on two cores, whatever its number of n;
        # none on one
        assert len(forked) == 1
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
    assert len(forked) == 1 and not thread.is_alive()


def test_failed_fork_solves_the_schemes_in_turn(tmp_path, monkeypatch,
                                               capsys):
    # with no process to be had, both forked studies run as the serial loop
    # does: its schemes in turn, its errors walked directly
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    for split in sorted(FORKED):
        out_dir = tmp_path / split
        _cores(monkeypatch, 1)
        cli.main(_argv(split, out_dir / "serial"))
        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(os, "fork", no_fork)
            _cores(patch, 2)
            rc = cli.main(_argv(split, out_dir / "failed")
                          + ["--record", str(out_dir / "record")])
        assert rc == cli.EXIT_OK
        assert re.findall(r"scheme=(\w+): solved", capsys.readouterr().out) \
            == list(cli.RunConfig(scheme=FORKED[split]["scheme"]).schemes)
        assert {json.loads(line)["walk"] for line in
                (out_dir / "record").read_text().splitlines()} == {"direct"}
        for path in (out_dir / "serial").iterdir():
            assert (out_dir / "failed" / path.name).read_bytes() == \
                path.read_bytes()


def test_forked_records_match_serial_records(monkeypatch):
    # the worker's records, plain facts, come back through a pipe as they
    # are, at every n.  With one scheme the worker sends the best
    # approximations instead, and from SPLIT_MIN_N on the errors and
    # superconv triples come from their split: the solve and the superclose
    # triple stay bitwise those of the serial path, the split triples within
    # 1e-10
    for split, fields in sorted(FORKED.items()):
        config = cli.RunConfig(**dict(fields, ns=LATER[split],
                                      tasks=ALL_TASKS))
        _cores(monkeypatch, 1)
        serial = list(cli.study(config))
        _cores(monkeypatch, 2)
        forked = list(cli.study(config))
        assert [(r.n, r.scheme) for r in forked] == [
            (n, scheme) for n in config.ns for scheme in config.schemes]
        assert {r.walk for r in serial} == {"direct"}
        assert [r.walk for r in forked] == [
            "split" if split == "walks" and r.n >= cli.SPLIT_MIN_N
            else "direct" for r in forked]
        for s, f in zip(serial, forked):
            for task, trip in s.triples.items():
                if f.walk == "split" and task != "superclose":
                    assert f.triples[task].as_tuple() == pytest.approx(
                        trip.as_tuple(), rel=1e-10)
                else:
                    assert f.triples[task] == trip
            assert f.info == s.info and (f.u == s.u).all()
            assert (f.velocity_unknowns, f.pressure_unknowns) == \
                (s.velocity_unknowns, s.pressure_unknowns)
            # no mesh, DoF map, partition or field object
            assert all(isinstance(value, (int, float, str, dict, np.ndarray))
                       for value in vars(f).values())


def test_one_scheme_forks_from_split_min_n_for_a_split_task(monkeypatch):
    # the benchmark's n = 3 set-up pass, any n below SPLIT_MIN_N and a study
    # with no errors or superconv task walk in this process alone
    beside = _count_workers(monkeypatch)
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
    assert [(r.scheme, r.walk) for r in cli.study(config)] == [
        ("modified", "split")]
    assert beside == ["computing the best approximations"]


@pytest.mark.parametrize("exc", [
    system.MaxIterations("stub failure", residual=1.5e-3, tail=(0.5, 0.25)),
    system.SingularSystem("stub failure")])
def test_worker_failure_reaches_main(tmp_path, monkeypatch, capsys, exc):
    # raised in the worker, pickled through the pipe, raised here with its
    # message, residual and tail intact, in both forked studies, after the
    # records the serial loop prints before the failing scheme
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
            capsys.readouterr()
            rc = cli.main(_argv(split, tmp_path))
        assert rc == cli.EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.err == "solver failure: stub failure\n"
        schemes = cli.RunConfig(scheme=FORKED[split]["scheme"]).schemes
        assert re.findall(r"scheme=(\w+): solved", captured.out) == \
            list(schemes[:-1])


def test_second_scheme_failure_comes_after_the_first_record(tmp_path,
                                                             monkeypatch,
                                                             capsys):
    # as in the serial loop, the original record is printed before the
    # modified scheme's failure, which the worker raises
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


def test_first_scheme_failure_does_not_wait_for_the_second(tmp_path,
                                                           monkeypatch,
                                                           capsys):
    # the serial loop never starts the modified scheme after the original
    # one fails; the forked study ends as soon, terminating a worker whose
    # modified load would run for a minute
    def fail():
        raise system.SingularSystem("stub failure")

    _fail_scheme(monkeypatch, "original", fail)
    _fail_scheme(monkeypatch, "modified", lambda: time.sleep(60))
    _cores(monkeypatch, 2)
    t0 = time.perf_counter()
    with _deadline(30):
        rc = cli.main(["--scheme", "both", "--n", "3", "--out",
                       str(tmp_path)])
    assert time.perf_counter() - t0 < 30
    assert rc == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err == "solver failure: stub failure\n"
    assert "solved" not in captured.out


def test_consumer_failure_stops_the_worker(tmp_path, monkeypatch):
    # the first record reaches the caller while the worker solves the
    # second scheme; a failure in the caller closes the study, which
    # terminates the worker instead of waiting a minute for it
    def fail(config, rec):
        raise OSError(28, "No space left on device")

    _fail_scheme(monkeypatch, "modified", lambda: time.sleep(60))
    monkeypatch.setattr(cli, "record", fail)
    _cores(monkeypatch, 2)
    config = cli.RunConfig(scheme="both", ns=(3,), out_dir=str(tmp_path),
                           record=str(tmp_path / "record"))
    t0 = time.perf_counter()
    with _deadline(30), pytest.raises(OSError):
        cli.run(config)
    assert time.perf_counter() - t0 < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)      # no worker, running or exited


def test_both_schemes_failing_report_the_first_in_study_order(tmp_path,
                                                              monkeypatch,
                                                              capsys):
    # at tol 1e-18 both schemes stagnate, with texts that differ in their
    # round-off; the serial and the forked run of both report the original
    # scheme's failure, as a run of the original scheme alone does
    errs = {}
    for scheme, cores in (("original", 1), ("modified", 1), ("both", 1),
                          ("both", 2)):
        _cores(monkeypatch, cores)
        rc = cli.main(["--scheme", scheme, "--n", "3", "--tol", "1e-18",
                       "--out", str(tmp_path)])
        assert rc == cli.EXIT_SOLVER
        errs[scheme, cores] = capsys.readouterr().err
    assert errs["original", 1].startswith("solver failure: relative residual")
    assert errs["modified", 1] != errs["original", 1]
    assert errs["both", 1] == errs["both", 2] == errs["original", 1]


def test_dead_worker_scheme_is_solved_here(tmp_path, monkeypatch, capsys):
    # a worker that exits without sending (killed, out of memory), here at
    # its first job or halfway through its first message, must not leave
    # this process waiting on the pipe, nor end the study: this process
    # does the worker's part at that n and every later one, solving its
    # scheme or walking the errors directly, and says so once
    warnings = {
        "schemes": "warning: the worker solving scheme modified exited with "
                   "code 7 before sending its record; solving it in this "
                   "process",
        "walks": "warning: the worker computing the best approximations "
                 "exited with code 7 before sending them; walking the "
                 "errors in this process"}
    pid, dump = os.getpid(), pickle.dump

    def dump_half(obj, file):
        if os.getpid() == pid:
            return dump(obj, file)
        data = pickle.dumps(obj)
        file.write(data[:len(data) // 2])
        file.flush()
        os._exit(7)

    deaths = {
        "first-job": lambda patch, split: _fail_worker(
            patch, split, lambda: os.getpid() != pid and os._exit(7)),
        "mid-message": lambda patch, split: patch.setattr(pickle, "dump",
                                                          dump_half)}
    for (split, warning), death in itertools.product(sorted(warnings.items()),
                                                     deaths):
        out_dir = tmp_path / split / death
        record = out_dir / "record.jsonl"
        out_dir.mkdir(parents=True)
        with monkeypatch.context() as patch:
            deaths[death](patch, split)
            _cores(patch, 2)
            with _deadline(60):
                rc = cli.main(_argv(split, out_dir / "dead", LATER[split])
                              + ["--record", str(record)])
        assert rc == cli.EXIT_OK
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)      # no worker, running or exited
        out = capsys.readouterr().out
        assert out.count("warning:") == 1 and warning in out
        assert re.findall(r"n=(\d+) scheme=(\w+): solved", out) == [
            (str(n), scheme) for n in LATER[split] for scheme in
            cli.RunConfig(scheme=FORKED[split]["scheme"]).schemes]
        assert {json.loads(line)["walk"] for line in
                record.read_text().splitlines()} == {"direct"}
        _cores(monkeypatch, 1)
        cli.main(_argv(split, out_dir / "serial", LATER[split]))
        capsys.readouterr()
        for path in (out_dir / "serial").iterdir():
            assert (out_dir / "dead" / path.name).read_bytes() == \
                path.read_bytes()


def test_each_batch_reaches_this_process_as_it_is_made(monkeypatch):
    # the worker outlives its first record, so it flushes the pipe after
    # each one: both n = 3 records arrive while its n = 6 load sleeps
    load = system.assemble_rhs

    def assemble_rhs(mesh, gmap, exact, mode="modified"):
        if mode == "modified" and mesh.n == 6:
            time.sleep(60)
        return load(mesh, gmap, exact, mode=mode)

    monkeypatch.setattr(system, "assemble_rhs", assemble_rhs)
    _cores(monkeypatch, 2)
    records = cli.study(cli.RunConfig(scheme="both", ns=(3, 6)))
    try:
        with _deadline(30):
            got = [(rec.n, rec.scheme) for rec in itertools.islice(records, 2)]
    finally:
        records.close()
    assert got == [(3, "original"), (3, "modified")]


def test_interrupted_parent_stops_the_worker(tmp_path, monkeypatch):
    # ^C in this process, which loads the study's first scheme, terminates
    # a worker that would run for a minute, in both forked studies
    def interrupt():
        raise KeyboardInterrupt

    _cores(monkeypatch, 2)
    for split in sorted(FORKED):
        first = cli.RunConfig(scheme=FORKED[split]["scheme"]).schemes[0]
        with monkeypatch.context() as patch:
            _fail_scheme(patch, first, interrupt)
            _fail_worker(patch, split, lambda: time.sleep(60))
            t0 = time.perf_counter()
            with _deadline(30):
                rc = cli.main(_argv(split, tmp_path))
        assert rc == 130
        assert time.perf_counter() - t0 < 30



def test_deadline_passes_through_main(tmp_path, monkeypatch):
    # a deadline that passes inside ``cli.main``, here in the load, leaves
    # it as itself: not as a configuration error's exit code
    _fail_scheme(monkeypatch, "modified", lambda: time.sleep(60))
    _cores(monkeypatch, 1)
    t0 = time.perf_counter()
    with pytest.raises(_Expired), _deadline(1):
        cli.main(["--n", "3", "--out", str(tmp_path)])
    assert time.perf_counter() - t0 < 30


def _bench_script():
    """scripts/bench.py as a module."""
    path = BENCH_DIR.parent / "scripts" / "bench.py"
    spec = importlib.util.spec_from_file_location("bench_script", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_bench_script_reads_records_and_sums_the_tree_pss(tmp_path):
    script = _bench_script()
    # a run's record lines, and its solves' facts at full precision
    record = tmp_path / "record.jsonl"
    argv = ["--n", "3", "--task", "all", "--out", str(tmp_path)]
    assert cli.main(argv + ["--record", str(record)]) == cli.EXIT_OK
    [line] = golden.load(record)
    [rec] = cli.study(cli.RunConfig(ns=(3,), tasks=ALL_TASKS))
    assert line["velocity_unknowns"] == rec.velocity_unknowns
    assert line["elapsed"] > 0 and line["peak_mb"] > 0
    assert script.facts([line]) == [(
        3, "modified", rec.info["iterations"], rec.info["residual"],
        {task: list(trip.as_tuple()) for task, trip in rec.triples.items()})]
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


def test_bench_script_checks_its_runs_against_the_golden_records():
    # the one comparison, which scripts/bench.py runs on every solve of its
    # runs: the CG count exactly and each triple to 1e-10; a solve that the
    # golden file does not hold (n = 36) is not compared
    def drift(task="errors", col=0, scale=1.0, iterations=0):
        """The drift of two runs of the golden solves, one value of the
        first scaled and its CG count moved."""
        solves = golden.load()
        solves.append(dict(solves[0], n=36, iterations=99))
        solves[0]["triples"][task][col] *= scale
        solves[0]["iterations"] += iterations
        return golden.compare(solves * 2)

    assert drift() == 0.0
    assert drift(col=1, scale=1 + 5e-11) == pytest.approx(5e-11, rel=1e-3)
    for miss in ({"task": "superclose", "col": 2, "scale": 0.0},
                 {"scale": np.nan}, {"iterations": 1}):
        with pytest.raises(ValueError):
            drift(**miss)
    with pytest.raises(ValueError):     # no solve in common
        golden.compare([dict(golden.load()[0], n=36)])


# -- every mesh size solves ----------------------------------------------------

def test_validate_accepts_every_size_when_extended():
    # every hierarchy is accepted: a coarsest level above 3 cells per edge,
    # n_c, and a one-level hierarchy (n coprime to 6) smooths with degree
    # 2 n_c; only n > 24 needs --extended
    for n in range(2, 61):
        cli.RunConfig(ns=(n,), extended=True).validate()
    with pytest.raises(ValueError, match="need --extended"):
        cli.RunConfig(ns=(25,)).validate()


def test_size_without_coarse_level_is_a_configuration_error(tmp_path, capsys):
    # n = 25 is coprime to 6, so its hierarchy has no coarse level; that
    # alone is no error, but without --extended n > 24 is, and the CLI
    # refuses it before it solves n = 6 or writes a report
    assert system._coarsening(25) is None
    rc = cli.main(["--n", "6,25", "--out", str(tmp_path / "r")])
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "solved" not in captured.out
    assert "[25]" in captured.err and "--extended" in captured.err
    assert not (tmp_path / "r").exists()


def test_every_accepted_size_up_to_26_solves(tmp_path, capsys):
    # a coarsest level above 3 cells per edge, n_c, smooths with degree
    # 2 n_c, so every size solves: at most 19 CG iterations from I_h u, at
    # n = 15 and 21 (22 from zero, at n = 21; from zero with degree 4, 17
    # took 50 and 19, 23 and 25 stagnated).  A study solves all but 6 and
    # 17, which the CLI solves without --extended
    config = cli.RunConfig(scheme="modified", tasks=("errors",),
                           ns=tuple(n for n in range(2, 27) if n not in
                                    (6, 17)), extended=True)
    its = {rec.n: rec.info["iterations"] for rec in cli.study(config)}
    rc = cli.main(["--n", "6,17", "--out", str(tmp_path / "r")])
    assert rc == cli.EXIT_OK
    its.update({int(n): int(k) for n, k in re.findall(
        r"n=(\d+) scheme=modified: solved \(mgcg, (\d+) its",
        capsys.readouterr().out)})
    assert sorted(its) == list(range(2, 27))
    assert max(its.values()) <= 25


def test_iteration_cap_names_itself(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(system, "MAX_ITERATIONS", 3)
    rc = cli.main(["--scheme", "modified", "--n", "6", "--out",
                   str(tmp_path)])
    assert rc == cli.EXIT_SOLVER
    assert "after 3 CG iterations (stopped at the iteration cap)" in \
        capsys.readouterr().err

