"""Span tracing around gausskey's public functions, from outside the library.

``Tracer.install`` replaces every binding of each traced function inside the
loaded ``gausskey`` modules -- not only the defining module, because
``from .x import y`` copies the binding into the importing module and a
wrapper on the origin alone would never see those calls.  ``scipy.linalg`` as
seen by ``gausskey.solver`` is swapped for a proxy whose ``expm`` is wrapped,
so the solver's use is counted without touching scipy itself.
``Tracer.uninstall`` restores every binding.

Each wrapped call records one span: id, parent span, name, start, end, self
time (duration minus the time covered by its child spans), the id of the
boundary being computed, and a few per-call facts (mx, warm/full inner
solve, Newton steps, grid points, samples, error).  Spans stay in memory and
are written out by ``write_csv`` when the run ends.
"""

import csv
import importlib
import sys
import time
from collections import defaultdict

# (span name, defining module, attribute)
TARGETS = (
    ("cli.run", "gausskey.cli", "run"),
    ("solver.sweep_boundary", "gausskey.solver", "sweep_boundary"),
    ("solver.inner_convex", "gausskey.solver", "inner_convex"),
    ("solver.brute_force_grid", "gausskey.solver", "brute_force_grid"),
    ("solver.solve_at_rate", "gausskey.solver", "solve_at_rate"),
    ("rates.rates_aligned", "gausskey.rates", "rates_aligned"),
    ("rates.asymptotic_limit", "gausskey.rates", "asymptotic_limit"),
    ("models.validate_model", "gausskey.models", "validate_model"),
    ("kkt.certify", "gausskey.kkt", "certify"),
    ("kkt.recover_multipliers", "gausskey.kkt", "recover_multipliers"),
    ("kkt.enhance", "gausskey.kkt", "enhance"),
    ("kkt.multiplier_composite", "gausskey.kkt", "multiplier_composite"),
    ("mc.cross_validate", "gausskey.mc", "cross_validate"),
    ("mc.sample", "gausskey.mc", "sample"),
    ("mc.estimate_rates", "gausskey.mc", "estimate_rates"),
)
EXPM = "solver.ascent.expm"

CERT_GATE = 1e-6


def _note_inner_convex(args, kwargs, out):
    # _sweep_row hands tau_final to warm cells; refinement probes, cold
    # starts and max-iter retries run the default schedule from tau0 = 1
    kind = "warm" if kwargs.get("tau0", 1.0) != 1.0 else "full"
    return kind, args[0].mx, (out.iterations if out is not None else 0)


def _note_grid(args, kwargs, out):
    density = kwargs.get("grid_density", args[2] if len(args) > 2 else 60)
    mx = args[0].mx
    return "", mx, int(density) ** (3 if mx == 2 else 1)


def _note_solve(args, kwargs, out):
    return ("" if out is None or out.converged else "unconverged"), args[0].mx, 0


def _note_certify(args, kwargs, out):
    ok = out is not None and out.max_residual < CERT_GATE
    return ("" if ok else "uncertified"), args[0].mx, 0


def _note_sample(args, kwargs, out):
    if out is None:
        return "", 0, 0
    return "", 0, out.samples.nbytes


_NOTES = {
    "solver.inner_convex": _note_inner_convex,
    "solver.brute_force_grid": _note_grid,
    "solver.solve_at_rate": _note_solve,
    "kkt.certify": _note_certify,
    "mc.sample": _note_sample,
}


class _ScipyLinalgProxy:
    """Stands in for ``scipy.linalg`` inside one module; ``expm`` is traced."""

    def __init__(self, module, expm):
        self._module = module
        self.expm = expm

    def __getattr__(self, name):
        return getattr(self._module, name)


class Span:
    __slots__ = ("sid", "parent", "name", "t0", "t1", "self_s", "boundary",
                 "kind", "mx", "work", "error", "child_s")

    def __init__(self, sid, parent, name, t0, boundary):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.self_s = 0.0
        self.boundary = boundary
        self.kind = ""
        self.mx = 0
        self.work = 0
        self.error = ""
        self.child_s = 0.0

    @property
    def duration(self):
        return self.t1 - self.t0


class Tracer:
    """Collects spans for calls into gausskey while installed."""

    def __init__(self):
        self.spans = []
        self.boundary = -1
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        note = _NOTES.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(spans), parent.sid if parent else -1, name, clock(),
                        self.boundary)
            spans.append(span)
            stack.append(span)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.t1 = clock()
                stack.pop()
                span.self_s = span.duration - span.child_s
                if parent is not None:
                    parent.child_s += span.duration
                if note is not None:
                    span.kind, span.mx, span.work = note(args, kwargs, out)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every binding of every target across the gausskey modules."""
        origins = {origin: importlib.import_module(origin) for _, origin, _ in TARGETS}
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if (key == "gausskey" or key.startswith("gausskey."))
                   and mod is not None]
        for name, origin, attr in TARGETS:
            original = getattr(origins[origin], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
        solver = origins["gausskey.solver"]
        sla = solver.sla
        solver.sla = _ScipyLinalgProxy(sla, self._wrap(EXPM, sla.expm))
        self._restore.append((solver, "sla", sla))

    def uninstall(self):
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "name", "start_s", "end_s", "self_s",
                          "boundary", "kind", "mx", "work", "error"])
            base = self.spans[0].t0 if self.spans else 0.0
            for s in self.spans:
                out.writerow([s.sid, s.parent, s.name, f"{s.t0 - base:.9f}",
                              f"{s.t1 - base:.9f}", f"{s.self_s:.9f}", s.boundary,
                              s.kind, s.mx, s.work, s.error])


class Totals:
    """Per-name aggregates of a span list."""

    def __init__(self, spans):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_s = defaultdict(float)
        self.work = defaultdict(int)
        self.errors = defaultdict(int)
        for s in spans:
            keys = [s.name]
            if s.kind:
                keys.append(f"{s.name}.{s.kind}")
            if s.mx and s.name == "solver.inner_convex":
                keys.append(f"{s.name}.mx{s.mx}")
            for key in keys:
                self.calls[key] += 1
                self.seconds[key] += s.duration
                self.self_s[key] += s.self_s
                self.work[key] += s.work
            if s.error:
                self.errors[s.name] += 1
                self.errors[f"{s.name}.{s.error}"] += 1


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals, samples_drawn):
    """The per-layer metrics published by the traced run.

    A ratio whose base is zero (the layer was bypassed) reads 0.0; the
    matching ``calls`` metric says the layer did not run.
    """
    t = totals
    ic = "solver.inner_convex"
    attempted = t.calls[ic]
    infeasible = t.errors[f"{ic}.Infeasible"]
    max_iter = t.errors[f"{ic}.MaxIterationsExceeded"]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for kind in ("warm", "full"):
        key = f"{ic}.{kind}"
        put(f"{key}.calls", t.calls[key], "count")
        put(f"{key}.s", t.seconds[key], "s")
        put(f"{key}.newton_steps", t.work[key], "count")
    for mx in (2, 3):
        key = f"{ic}.mx{mx}"
        put(f"{key}.us_per_call", 1e6 * _ratio(t.seconds[key], t.calls[key]), "us")
    put(f"{ic}.infeasible", infeasible, "count")
    put(f"{ic}.max_iter", max_iter, "count")
    put(f"{ic}.useful_ratio", _ratio(attempted - t.errors[ic], attempted), "ratio")
    put("solver.sweep_boundary.s", t.seconds["solver.sweep_boundary"], "s")
    put("solver.sweep_boundary.self_s", t.self_s["solver.sweep_boundary"], "s")

    bf = "solver.brute_force_grid"
    put(f"{bf}.calls", t.calls[bf], "count")
    put(f"{bf}.s", t.seconds[bf], "s")
    put(f"{bf}.grid_points_per_s", _ratio(t.work[bf], t.seconds[bf]), "1/s")

    sr = "solver.solve_at_rate"
    put(f"{sr}.calls", t.calls[sr], "count")
    put(f"{sr}.s", t.seconds[sr], "s")
    put(f"{sr}.self_s", t.self_s[sr], "s")
    converged = t.calls[sr] - t.errors[sr] - t.calls[f"{sr}.unconverged"]
    put(f"{sr}.converged_frac", _ratio(converged, t.calls[sr]), "ratio")
    put("rates.rates_aligned.calls", t.calls["rates.rates_aligned"], "count")
    put("rates.rates_aligned.s", t.seconds["rates.rates_aligned"], "s")
    put(f"{EXPM}.calls", t.calls[EXPM], "count")
    put(f"{EXPM}.s", t.seconds[EXPM], "s")

    ce = "kkt.certify"
    put(f"{ce}.calls", t.calls[ce], "count")
    put(f"{ce}.s", t.seconds[ce], "s")
    # raised or missed the gate; a raising call is noted "uncertified" too
    put(f"{ce}.failed", t.calls[f"{ce}.uncertified"], "count")
    put("kkt.recover_multipliers.s", t.seconds["kkt.recover_multipliers"], "s")
    put("kkt.enhance.s", t.seconds["kkt.enhance"], "s")
    put("kkt.multiplier_composite.calls", t.calls["kkt.multiplier_composite"], "count")
    put("kkt.multiplier_composite.s", t.seconds["kkt.multiplier_composite"], "s")

    put("mc.sample.calls", t.calls["mc.sample"], "count")
    put("mc.sample.s", t.seconds["mc.sample"], "s")
    put("mc.sample.samples_per_s", _ratio(samples_drawn, t.seconds["mc.sample"]), "1/s")
    put("mc.sample.bytes_computed", t.work["mc.sample"], "bytes")
    put("mc.estimate_rates.s", t.seconds["mc.estimate_rates"], "s")

    put("models.validate_model.calls", t.calls["models.validate_model"], "count")
    put("models.validate_model.s", t.seconds["models.validate_model"], "s")
    put("rates.asymptotic_limit.s", t.seconds["rates.asymptotic_limit"], "s")
    put("cli.run.self_s", t.self_s["cli.run"], "s")
    return m


def repeatable_counts(totals):
    """Counts that must repeat exactly across traced runs on one seed."""
    out = {}
    for name, _, _ in TARGETS + ((EXPM, None, None),):
        out[f"{name}.calls"] = totals.calls[name]
    for key in ("solver.inner_convex.warm", "solver.inner_convex.full"):
        out[f"{key}.calls"] = totals.calls[key]
        out[f"{key}.newton_steps"] = totals.work[key]
    out["solver.brute_force_grid.grid_points"] = totals.work["solver.brute_force_grid"]
    return out
