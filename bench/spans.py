"""In-memory span tracer for metronlab's layers, installed from outside.

Each traced function is replaced by a wrapper wherever a metronlab module
binds it under its public name (``trapped_modes.solve_radial_eigen``,
``bragg.integrate_ivp``, ``cli.write_csv``, ...), so calls between modules
are seen without touching ``src/``.  A name that no longer exists is
reported as an absent layer instead of failing the run.

A span is ``(span_id, parent_id, name, item_id, start, end, error, attrs)``.
Spans opened on a worker thread with no open span of their own (the
``bragg-sweep`` executor threads) attach to the innermost span open on the
thread that installed the tracer, i.e. to their command's ``cli.run`` span.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

# module -> public functions wrapped one by one
TARGETS = {
    "numerics": ("solve_radial_eigen", "solve_radial_poisson", "integrate_ivp"),
    "trapped_modes": ("iterate_single_mode", "solve_fifth_order",
                      "solve_multimode", "rescale"),
    "bragg": ("trap_verdict_by_integration", "classify_trapping",
              "equilibrium_phases", "bragg_scatter_set"),
    "orbits": ("integrate_drift", "integrate_three_mode", "evolve_variances"),
    "greens": ("greens_dispersive", "greens_stationary_phase", "momentum_exchange"),
    "io": ("write_csv", "write_json"),
    "cli": ("run",),
}

# the algebra check suite is reported as one aggregate span name
ALGEBRA_SPAN = "algebra.checks"
ALGEBRA_CHECKS = (
    "verify_gamma", "check_gauge_conditions", "spinor_metric", "kg_factorization",
    "quark_star", "electroweak_config", "find_mass_ratio_config",
    "quark_ew_wavenumbers", "gauge_correspondence", "calibrate_constants",
    "scale_ratio",
)

SOLVERS = ("trapped_modes.iterate_single_mode", "trapped_modes.solve_fifth_order",
           "trapped_modes.solve_multimode")
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns) + (
    ALGEBRA_SPAN,
)


def _attrs_of(name, args, out):
    """Machine-independent counts read off a call's arguments or result."""
    if name in SOLVERS:
        sweeps = getattr(out, "iterations_used", None)
        return None if sweeps is None else {"sweeps": int(sweeps)}
    if name == "numerics.integrate_ivp":
        t = getattr(out, "t", None)
        return None if t is None else {"steps": len(t) - 1}
    if name == "io.write_csv":
        return {"bytes": _file_size(out), "rows": _csv_rows(out)}
    if name == "io.write_json":
        return {"bytes": _file_size(out)}
    if name == "greens.momentum_exchange" and len(args) >= 2:
        return {"pairs": len(args[0].s) * len(args[1].s)}
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self.item = None
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self):
        """Wrap every target where metronlab binds it; returns absent names."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "metronlab" or n.startswith("metronlab.")]
        for mod_name, fns in TARGETS.items():
            home = sys.modules.get(f"metronlab.{mod_name}")
            for fn in fns:
                self._install_one(mods, home, fn, f"{mod_name}.{fn}")
        algebra = sys.modules.get("metronlab.algebra")
        found = 0
        for fn in ALGEBRA_CHECKS:
            found += self._install_one(mods, algebra, fn, ALGEBRA_SPAN, quiet=True)
        if not found:
            self.absent.append(ALGEBRA_SPAN)
        return self.absent

    def _install_one(self, mods, home, fn, span_name, quiet=False):
        orig = getattr(home, fn, None) if home is not None else None
        if not callable(orig):
            if not quiet:
                self.absent.append(span_name)
            return 0
        wrapper = self._wrap(span_name, orig)
        for mod in mods:
            if getattr(mod, fn, None) is orig:
                setattr(mod, fn, wrapper)
        return 1

    def _wrap(self, name, fn):
        tracer = self
        aggregate = name == ALGEBRA_SPAN

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if aggregate and stack and stack[-1][1] == ALGEBRA_SPAN:
                return fn(*args, **kwargs)  # nested check inside the aggregate
            if stack:
                parent = stack[-1][0]
            elif tracer._home:
                parent = tracer._home[-1][0]
            else:
                parent = 0
            sid = next(tracer._ids)
            stack.append((sid, name))
            item = tracer.item
            error = True
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                error = name == "cli.run" and out != 0
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                attrs = None if error else _attrs_of(name, args, out)
                tracer.spans.append((sid, parent, name, item, t0, t1, error, attrs))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def dump(self, path):
        Path(path).write_text(json.dumps({
            "fields": ["id", "parent", "name", "item", "start", "end", "error", "attrs"],
            "absent": self.absent,
            "spans": self.spans,
        }), encoding="utf-8")


def merge(paths):
    """Spans of several processes' dumps as one list, and the absent layers.

    Span ids restart in each process, so each dump's ids are shifted past
    the previous ones; a parent id of 0 (no parent) stays 0.
    """
    merged, absent, offset = [], [], 0
    for path in paths:
        dump = json.loads(Path(path).read_text(encoding="utf-8"))
        absent += [a for a in dump["absent"] if a not in absent]
        top = 0
        for sid, parent, *rest in dump["spans"]:
            merged.append([sid + offset, parent + offset if parent else 0, *rest])
            top = max(top, sid)
        offset += top
    return merged, absent


def _self_times(spans):
    """Span duration minus the part of it covered by its children."""
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[4], s[5]))
    out = {}
    for s in spans:
        t0, t1 = s[4], s[5]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s[0], ())):
            lo, hi = max(lo, t0), min(hi, t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[0]] = (t1 - t0) - covered
    return out


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _csv_rows(path):
    try:
        with open(path, "rb") as fh:
            return max(fh.read().count(b"\n") - 1, 0)
    except OSError:
        return 0


def layer_metrics(spans, rounds, rhs_evals):
    """Per-layer numbers of a traced run's spans, normalised to one round.

    Every round runs the same inputs, so the counts repeat exactly; an
    absent or unused layer reads 0.
    """
    selft = _self_times(spans)
    by_name = {n: [] for n in SPAN_NAMES}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
    m = {}
    for name in SPAN_NAMES:
        group = by_name[name]
        durs = [s[5] - s[4] for s in group]
        m[f"{name}.calls"] = (len(group) / rounds, "count")
        m[f"{name}.busy_s"] = (sum(durs) / rounds, "s")
        m[f"{name}.self_s"] = (sum(selft[s[0]] for s in group) / rounds, "s")
        m[f"{name}.call_p50_s"] = (statistics.median(durs) if durs else 0.0, "s")
        m[f"{name}.errors"] = (sum(1 for s in group if s[6]) / rounds, "count")

    solves = [s for n in SOLVERS for s in by_name[n] if s[7]]
    eigen = by_name["numerics.solve_radial_eigen"]
    poisson = by_name["numerics.solve_radial_poisson"]
    n_solves = len(solves)
    m["trapped_modes.sweeps_per_solve"] = (
        sum(s[7]["sweeps"] for s in solves) / n_solves if n_solves else 0.0, "count")
    m["numerics.solve_radial_eigen.calls_per_solve"] = (
        len(eigen) / n_solves if n_solves else 0.0, "count")
    m["numerics.solve_radial_eigen.useful_ratio"] = (
        sum(1 for s in eigen if not s[6]) / len(eigen) if eigen else 0.0, "ratio")
    m["numerics.solve_radial_poisson.calls_per_solve"] = (
        len(poisson) / n_solves if n_solves else 0.0, "count")

    ivp = [s for s in by_name["numerics.integrate_ivp"] if s[7]]
    steps = sum(s[7]["steps"] for s in ivp)
    m["numerics.integrate_ivp.steps"] = (steps / rounds, "count")
    m["numerics.integrate_ivp.step_s"] = (
        sum(s[5] - s[4] for s in ivp) / steps if steps else 0.0, "s")
    grid_steps = rhs_evals.get("steps", 0)
    m["numerics.integrate_ivp.rhs_evals"] = (rhs_evals.get("evals", 0) / rounds, "count")
    # accepted steps per 7 right-hand-side evaluations, the stage count of
    # one Dormand-Prince 4(5) attempt
    m["numerics.integrate_ivp.accept_ratio"] = (
        7.0 * grid_steps / rhs_evals["evals"] if rhs_evals.get("evals") else 0.0,
        "ratio")

    csv_files = [s[7] for s in by_name["io.write_csv"] if s[7]]
    json_files = [s[7] for s in by_name["io.write_json"] if s[7]]
    m["io.write_csv.rows"] = (sum(a["rows"] for a in csv_files) / rounds, "count")
    m["io.write_csv.bytes"] = (sum(a["bytes"] for a in csv_files) / rounds, "bytes")
    m["io.write_json.bytes"] = (sum(a["bytes"] for a in json_files) / rounds, "bytes")
    m["greens.momentum_exchange.pairs"] = (
        sum(s[7]["pairs"] for s in by_name["greens.momentum_exchange"] if s[7]) / rounds,
        "count")
    return m


def item_counts(spans, rounds):
    """Per item and round: sweeps, eigen calls (and how many raised), Poisson
    calls and integrator steps.  Every round plays the same inputs, so the
    totals divide exactly."""
    out = {}
    for s in spans:
        if s[3] is None:
            continue
        c = out.setdefault(s[3], {"sweeps": 0, "eigen": 0, "eigen_raised": 0,
                                  "poisson": 0, "ivp_steps": 0})
        if s[2] in SOLVERS and s[7]:
            c["sweeps"] += s[7]["sweeps"]
        elif s[2] == "numerics.solve_radial_eigen":
            c["eigen"] += 1
            c["eigen_raised"] += int(s[6])
        elif s[2] == "numerics.solve_radial_poisson":
            c["poisson"] += 1
        elif s[2] == "numerics.integrate_ivp" and s[7]:
            c["ivp_steps"] += s[7]["steps"]
    return {item: {k: v // rounds if v % rounds == 0 else v / rounds
                   for k, v in c.items()} for item, c in out.items()}
