import importlib.util
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from quadcurl import analysis, checks, cli, polyquad, system

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


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
    its = int(re.search(r"after (\d+) CG iterations",
                        capsys.readouterr().err).group(1))
    assert its < 30


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
    # the solver facts from stdout with its SOLVED pattern
    bench = _load_bench(monkeypatch)
    calls = []
    solve = system.solve_saddle

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(system, "solve_saddle", counting)
    cli.run(cli.RunConfig(scheme="both", ns=(3,), out_dir=str(tmp_path),
                          fmt="csv"))
    assert len(calls) == 2
    out = capsys.readouterr().out
    solved = bench.SOLVED.findall(out)
    assert [(m[0], m[1]) for m in solved] == [("3", "original"),
                                              ("3", "modified")]
    # each solved line ends with the process peak so far, in MB
    peaks = [float(p) for p in re.findall(
        r"solved .*s elapsed, peak (\d+\.\d) MB$", out, flags=re.M)]
    assert len(peaks) == 2 and 0 < peaks[0] <= peaks[1] <= \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 + 0.05


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
