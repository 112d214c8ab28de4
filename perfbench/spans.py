"""In-memory spans around the quadcurl calls that ``cli.run`` makes.

``cli.run`` looks its collaborators up as module attributes at call time, so
replacing those attributes for the length of a ``with tracer.installed(phase):``
block records one span per call without touching the package.  A span is
(name, phase, start, end, parent); self time is its duration minus the time
its direct children cover.  Spans are kept in a list and written out by the
caller when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time

# (module, attribute, span name): the calls cli.run resolves at call time
WRAPPED = (
    ("mesh", "build_mesh", "mesh.build"),
    ("mesh", "macro_partition", "mesh.partition"),
    ("system", "build_dof_map", "system.dof_map"),
    ("system", "assemble_A", "system.assemble"),
    ("system", "assemble_B", "system.assemble"),
    ("system", "assemble_rhs", "system.rhs"),
    ("system", "solve_saddle", "system.solve"),
    ("interp", "global_interp_Ih", "interp.ih"),
    ("interp", "global_I3h", "interp.i3h"),
    ("analysis", "error_vs_exact", "analysis.errors"),
    ("analysis", "superclose_error", "analysis.superclose"),
    ("analysis", "superconvergent_error", "analysis.superconv"),
    ("mms", "build_exact_fields", "mms.build"),
)

# ExactFields methods the pipeline evaluates at points; each takes the point
# array as its last positional argument
EXACT_METHODS = ("u_value", "curl_u_value", "grad_curl_u_value", "f_value",
                 "value", "curl_value", "curl_d2")


class CountingExact:
    """Proxy for ``mms.ExactFields`` that records one ``mms.eval`` span and
    the number of points for every field evaluation."""

    def __init__(self, exact, tracer):
        self._exact = exact
        self._tracer = tracer
        for name in EXACT_METHODS:
            setattr(self, name, self._counted(getattr(exact, name)))

    def _counted(self, method):
        tracer = self._tracer

        @functools.wraps(method)
        def call(*args):
            pts = args[-1]
            tracer.count("mms.points", pts.size // pts.shape[-1])
            with tracer.span("mms.eval"):
                return method(*args)
        return call

    def __getattr__(self, name):
        return getattr(self._exact, name)


class Tracer:
    def __init__(self):
        self.spans = []          # dicts: name, phase, start, end, parent
        self.counts = {}
        self.solves = []         # solver facts, one dict per solve_saddle call
        self.phase = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = {"name": name, "phase": self.phase,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name, k=1):
        key = f"{self.phase}:{name}"
        self.counts[key] = self.counts.get(key, 0) + k

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if name == "system.solve":
                self._record_solve(args[0] if args else kwargs["system"], out)
            elif name == "mms.build":
                out = CountingExact(out, self)
            return out
        return call

    def _record_solve(self, system, out):
        info = out[2]
        self.solves.append({
            "phase": self.phase,
            "method": info["method"],
            "iterations": int(info["iterations"]),
            "residual": float(info["residual"]),
            "unknowns": int(system.n_unknowns),
            # nnz of [[A, B], [B^T, 0]]
            "nnz": int(system.A.nnz + 2 * system.B.nnz),
        })

    @contextlib.contextmanager
    def installed(self, phase):
        """Wrap every WRAPPED attribute (and ConvergenceReport.save) for the
        length of the block; spans recorded inside carry ``phase``."""
        import importlib
        targets = [(importlib.import_module(f"quadcurl.{mod}"), attr, name)
                   for mod, attr, name in WRAPPED]
        report_cls = importlib.import_module("quadcurl.analysis").ConvergenceReport
        targets.append((report_cls, "save", "cli.save"))
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in targets]
        self.phase = phase
        try:
            for owner, attr, name in targets:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name))
            yield self
        finally:
            for owner, attr, orig in saved:
                setattr(owner, attr, orig)
            self.phase = None

    # -- summaries ----------------------------------------------------------

    def self_times(self, phase):
        """Total self time and call count per span name within ``phase``."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None and "end" in rec:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out = {}
        for i, rec in enumerate(self.spans):
            if rec["phase"] != phase:
                continue
            tot, calls = out.get(rec["name"], (0.0, 0))
            out[rec["name"]] = (tot + rec["end"] - rec["start"] - child[i],
                                calls + 1)
        return out

    def dump(self):
        return {"spans": self.spans, "counts": self.counts,
                "solves": self.solves}
