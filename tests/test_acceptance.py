"""Acceptance suite: reproduces the four convergence tables of the
manufactured-solution study and runs the exact-identity battery.

Reference error values are the published study tables this project
regression-tests against; each criterion prints one [PASS]/[FAIL] line.
Every published value is asserted except columns 2 and 3 of the
postprocessed table (criterion 4): its column 2 lies below the per-macro
best approximation of curl u from curl(V_M) at n = 12 and 18, which no field
in V_M can undercut, and column 3 comes from the same untraceable row.
Criterion 4 prints those digits beside the measured value and the bound, and
asserts the bound, the Pythagorean split of the error into the bound and
|P_M u - I3h u_h|, and the O(h^2) convergence of I3h(I_h u - u_h) instead.
Criterion 8 shows which of the paper's two modifications sets the superclose
rate: on the same modified solves, I_h without its h^2/12 correction gives a
column-1 EOC of 1, the corrected I_h one of 2.
Heavy solves run once in a session fixture, through ``cli.study`` (the
pipeline the CLI runs), and are shared.
"""

import time

import numpy as np
import pytest

from quadcurl import analysis, checks, cli, interp, mms, system
from quadcurl.analysis import ErrorTriple, compute_eoc
from quadcurl.mesh import build_mesh
from macro_oracles import macro_norms

# reference study tables: n -> (|curl_h e|_1h, ||curl_h e||_0, ||e||_0);
# all asserted at VALUE_RTOL except columns 2-3 of "superconv", which are
# printed only (see the module docstring)
REFERENCE = {
    ("modified", "errors"): {
        6: (4.332e1, 1.836e0, 2.344e-1),
        12: (2.159e1, 4.734e-1, 1.081e-1),
        18: (1.439e1, 2.118e-1, 7.112e-2),
        24: (1.079e1, 1.194e-1, 5.309e-2),
    },
    ("original", "errors"): {
        6: (4.351e1, 1.548e0, 2.244e-1),
        12: (2.166e1, 4.096e-1, 1.076e-1),
        18: (1.441e1, 1.841e-1, 7.105e-2),
    },
    ("modified", "superclose"): {
        6: (1.092e1, 8.394e-1, 8.565e-2),
        12: (2.577e0, 2.092e-1, 2.242e-2),
        18: (1.125e0, 9.300e-2, 1.000e-2),
        24: (6.284e-1, 5.231e-2, 5.636e-3),
    },
    ("modified", "superconv"): {
        12: (1.833e1, 1.998e-1, 2.329e-2),
        18: (8.420e0, 8.965e-2, 9.825e-3),
        24: (4.790e0, 5.107e-2, 5.534e-3),
    },
}

VALUE_RTOL = 0.02


@pytest.fixture(scope="session")
def study():
    """Run the modified and the original study once through ``cli.study`` and
    collect all quantities."""
    exact = mms.build_exact_fields()
    data = {"triples": {}, "bounds": {}, "split": {}, "iterations": {},
            "u": {}, "walltime_n24": None}
    modified = cli.RunConfig(scheme="modified", ns=(6, 12, 18, 24),
                             tasks=("errors", "superclose", "superconv"))
    t0 = time.perf_counter()
    for rec in cli.study(modified):
        n = rec.n
        if n == 24:
            data["walltime_n24"] = time.perf_counter() - t0
        data["iterations"][n] = rec.info["iterations"]
        data["u"][n] = rec.u
        for task, trip in rec.triples.items():
            data["triples"][("modified", task, n)] = trip
        # lower bounds and their Pythagorean split, outside the timed leg;
        # the measured triple by the direct walk, since a study that forks
        # measures it by that split
        part = rec.partition
        data["triples"][("modified", "superconv", n)] = \
            analysis.superconvergent_error(rec.i3h_u, exact, rec.mesh)
        sq, _, proj = analysis.best_approximation("VM", exact, rec.mesh)
        data["bounds"][n] = ErrorTriple(*np.sqrt(sq))
        data["split"][n] = tuple(
            macro_norms(interp.MacroField(part, "VM", c - rec.i3h_u.coeffs))
            .as_tuple()[col] for col, c in enumerate(proj))
        data["triples"][("modified", "postclose", n)] = macro_norms(
            interp.global_I3h(rec.ihu - rec.u, rec.mesh, rec.gmap, part))
        del rec
        t0 = time.perf_counter()
    original = cli.RunConfig(scheme="original", ns=(6, 12, 18))
    for rec in cli.study(original):
        data["triples"][("original", "errors", rec.n)] = rec.triples["errors"]
    return data


def _rows(data, scheme, task, ns):
    return [(n, data["triples"][(scheme, task, n)]) for n in ns]


def _value_failures(rows, ref, cols=(0, 1, 2)):
    out = []
    for n, trip in rows:
        for col, (got, want) in enumerate(zip(trip.as_tuple(), ref[n])):
            if col not in cols:
                continue
            rel = abs(got - want) / want
            if rel > VALUE_RTOL:
                out.append(f"n={n} col{col + 1}: got {got:.4E} "
                           f"want {want:.4E} (rel {rel:.3f})")
    return out


def _eoc_failures(rows, targets, window, pairs="all", cols=(0, 1, 2)):
    """EOCs outside target +- window; ``window`` is one number or one per
    column."""
    eocs = compute_eoc(rows)
    windows = window if isinstance(window, tuple) else (window,) * 3
    out = []
    idx = range(1, len(rows)) if pairs == "all" else [len(rows) - 1]
    for i in idx:
        for col, (target, win) in enumerate(zip(targets, windows)):
            if col not in cols:
                continue
            got = eocs[i][col]
            if abs(got - target) > win:
                out.append(f"EOC rows {rows[i - 1][0]}->{rows[i][0]} "
                           f"col{col + 1}: got {got:.3f} want "
                           f"{target} +- {win}")
    return out


def _report(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num}] {status}: {label}"
          + ("" if not failures else " | " + "; ".join(failures)))
    assert not failures, f"criterion {num}: " + "\n".join(failures)


def test_criterion_1_modified_scheme_errors(study):
    rows = _rows(study, "modified", "errors", (6, 12, 18, 24))
    failures = _value_failures(rows, REFERENCE[("modified", "errors")])
    # asymptotic orders: finest refinement pair (the coarse-pair L2 order in
    # the reference table itself sits outside the window)
    failures += _eoc_failures(rows, (1.0, 2.0, 1.0), 0.1, pairs="last")
    wall = study["walltime_n24"]
    if wall > 900.0:
        failures.append(f"n=24 leg took {wall:.0f}s (> 900s)")
    # the V-cycle keeps the velocity CG count about constant in n (Jacobi
    # took 42/134/279/480 iterations at n = 6..24)
    its = study["iterations"]
    failures += [f"n={n}: {k} velocity CG iterations (> 30)"
                 for n, k in its.items() if k > 30]
    # refinement must strictly decrease every column
    for col in range(3):
        vals = [t.as_tuple()[col] for _, t in rows]
        if not all(a > b for a, b in zip(vals, vals[1:])):
            failures.append(f"column {col + 1} not strictly decreasing")
    _report(1, f"modified-scheme error table, n=24 in {wall:.0f}s, "
            f"velocity CG iterations {its}", failures)


def test_criterion_2_original_scheme_errors(study):
    rows = _rows(study, "original", "errors", (6, 12, 18))
    failures = _value_failures(rows, REFERENCE[("original", "errors")])
    failures += _eoc_failures(rows, (1.0, 2.0, 1.0), 0.1, pairs="last")
    _report(2, "original-scheme error table", failures)


def test_criterion_3_supercloseness(study):
    rows = _rows(study, "modified", "superclose", (6, 12, 18, 24))
    failures = _value_failures(rows, REFERENCE[("modified", "superclose")])
    failures += _eoc_failures(rows, (2.0, 2.0, 2.0), 0.15, pairs="all")
    _report(3, "supercloseness table", failures)


def _sci(x, digits):
    mant, exp = f"{x:.{digits}e}".split("e")
    return f"{mant}e{int(exp)}"


def test_criterion_4_superconvergence(study):
    ns = (12, 18, 24)
    ref = REFERENCE[("modified", "superconv")]
    rows = _rows(study, "modified", "superconv", ns)
    failures = _value_failures(rows, ref, cols=(0,))
    # column 2 is the Pythagorean sum of an O(h^2) part and an O(H^3)
    # best-approximation part, so its EOC lies between 2 and 3
    failures += _eoc_failures(rows, (2.0, 2.5, 2.0), (0.2, 0.7, 0.2),
                              pairs="all")
    # the O(h^2) mechanism: I3h(I_h u - u_h) = I_M u - I3h u_h
    failures += ["I3h(I_h u - u_h) " + f for f in _eoc_failures(
        _rows(study, "modified", "postclose", ns), (2.0, 2.0, 2.0), 0.2,
        pairs="all")]
    shown = []
    for n, trip in rows:
        got, low = trip.as_tuple(), study["bounds"][n].as_tuple()
        for col in range(3):
            rest = study["split"][n][col]
            if low[col] > got[col]:
                failures.append(f"n={n} col{col + 1}: got {got[col]:.4E} "
                                f"below its bound {low[col]:.4E}")
            gap = abs(got[col]**2 - low[col]**2 - rest**2) / got[col]**2
            if gap > 1e-8:
                failures.append(f"n={n} col{col + 1}: got^2 - bound^2 - "
                                f"|P_M u - I3h u_h|^2 off by {gap:.1E} rel")
        shown += [f"n={n} col{col + 1} published {_sci(ref[n][col], 3)} "
                  f"measured {_sci(got[col], 4)} bound {_sci(low[col], 3)}"
                  for col in (1, 2)]
    _report(4, "postprocessed superconvergence table (" + "; ".join(shown)
            + ")", failures)


def test_criterion_8_correction_sets_the_superclose_rate(study, monkeypatch):
    # the same modified solves against I_h without its h^2/12 correction of
    # the face-curl DoFs: column 1 of |I_h u - u_h| drops to O(h)
    ns = (6, 12, 18, 24)
    exact = mms.build_exact_fields()
    monkeypatch.setattr(interp, "CORRECTION_WEIGHT", 0.0)
    plain = []
    for n in ns:
        mesh = build_mesh(n)
        gmap = system.build_dof_map(mesh)
        ihu = interp.global_interp_Ih(exact, mesh, gmap)
        plain.append((n, analysis.superclose_error(study["u"][n], ihu, mesh,
                                                   gmap)))
    corrected = _rows(study, "modified", "superclose", ns)
    failures = ["uncorrected " + f for f in _eoc_failures(
        plain, (1.0,) * 3, 0.2, cols=(0,))]
    failures += ["corrected " + f for f in _eoc_failures(
        corrected, (2.0,) * 3, 0.2, cols=(0,))]
    eocs = ", ".join(f"{a[0]:.2f}/{b[0]:.2f}" for a, b in zip(
        compute_eoc(plain)[1:], compute_eoc(corrected)[1:]))
    _report(8, "the interpolation correction sets the superclose rate "
            f"(column-1 EOC uncorrected/corrected: {eocs})", failures)


def test_criterion_5_identity_battery(battery):
    results, elapsed = battery
    failures = [r.line() for r in results if not r.passed]
    if elapsed > 60.0:
        failures.append(f"battery took {elapsed:.0f}s (> 60s)")
    _report(5, f"exact-identity battery ({elapsed:.1f}s)", failures)


def test_criterion_6_solver_oracle():
    r = checks.check_solver_oracle()
    _report(6, r.detail, [] if r.passed else [r.line()])


def test_criterion_7_manufactured_solution_integrity():
    failures = []
    for check in (checks.check_divergence_free(), checks.check_load_fd_oracle()):
        if not check.passed:
            failures.append(check.line())
    _report(7, "divergence-free and FD load oracle", failures)
