"""Outside-in tracing of modelspace: spans and work counters per layer.

`Tracer.install()` replaces the public functions of every library module
with timing wrappers, at every place they are bound.  Modules import each
other's functions by name (`from .inner import phase_arrays`), so a wrapper
installed only on `modelspace.inner` would miss most calls; instead every
module namespace of the package is scanned and each binding of a wrapped
function is replaced.  Nothing inside the package changes on disk, and
`uninstall()` restores every binding.

Spans nest through a stack.  A span's self time is its duration minus the
time covered by its child spans, so `quadrature.integrate_panels.self_s` is
the Gauss-Kronrod bookkeeping with the integrand (a child span) left out,
and `cli.main.self_s` is parsing, formatting and writing with every library
call left out.  Spans are aggregated per name as they close.
"""
from __future__ import annotations

import functools
import importlib
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("inner", "quadrature", "kernel", "clark", "reconstruct", "sieve", "harness", "cli")
RECONSTRUCTIONS = ("shannon_reconstruct", "pw_oversample_reconstruct",
                   "clark_reconstruct", "model_oversample_reconstruct")


def _modules():
    return {name: importlib.import_module(f"modelspace.{name}") for name in LAYERS}


class Tracer:
    """Aggregated spans and counters for one traced pass."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = defaultdict(float)
        self._stack = []  # [name, start, time covered by children]
        self._bindings = []  # (namespace object, attribute, original)
        self._cert_points = []  # per open certification: points of each radius tried

    # -- spans -------------------------------------------------------------
    def _enter(self, name):
        self._stack.append([name, perf_counter(), 0.0])

    def _exit(self):
        name, start, covered = self._stack.pop()
        duration = perf_counter() - start
        self.self_s[name] += duration - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, name, fn, before=None, after=None):
        """Span `name` around fn.  before(args, kwargs) may return replacement
        (args, kwargs); after(args, kwargs, result) records counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- counters ----------------------------------------------------------
    def _count_size(self, key, index):
        def after(args, kwargs, result):
            self.counts[key] += int(np.size(args[index]))
        return after

    def _integrate_before(self, args, kwargs):
        f = args[0]

        def integrand(x):
            self.counts["quadrature.integrate_panels.rounds"] += 1
            self.counts["quadrature.integrate_panels.points"] += int(np.size(x))
            self._enter("quadrature.integrand")
            try:
                return f(x)
            finally:
                self._exit()

        return (integrand,) + tuple(args[1:]), kwargs

    def _integrate_after(self, args, kwargs, result):
        abs_tol = args[2] if len(args) > 2 else kwargs["abs_tol"]
        self.counts["quadrature.integrate_panels.panels"] += int(result.panel_count)
        self.counts["quadrature.integrate_panels.unconverged"] += int(result.error_bound > abs_tol)

    def _wrap_p_mass(self, fn):
        points = "quadrature.integrate_panels.points"

        def p_mass(*args, **kwargs):
            before = self.counts[points]
            try:
                return fn(*args, **kwargs)
            finally:
                if self._cert_points:
                    self._cert_points[-1].append(self.counts[points] - before)

        return self._wrap("harness._p_mass", p_mass)

    def _wrap_certified_mass(self, fn):
        def certified_mass(*args, **kwargs):
            self._cert_points.append([])
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                spent = self._cert_points.pop()
                useful = spent[-1] if ok and spent else 0
                self.counts["harness.certified_points"] += sum(spent)
                self.counts["harness.wasted_points"] += sum(spent) - useful
            self.counts[f"harness.radius_{int(result[3])}"] += 1
            self.counts["harness.certifications"] += 1
            return result

        return self._wrap("harness._certified_mass", certified_mass)

    def _solve_after(self, args, kwargs, grid):
        self.counts["clark.solve_nodes.nodes"] += len(grid)
        self.maxima["clark.residual_max"] = max(self.maxima["clark.residual_max"],
                                                float(grid.residual_bound))

    def _wrap_reconstruction(self, name, fn):
        """Counts node x query terms and records the tracemalloc peak."""
        def reconstruction(*args, **kwargs):
            samples, x = args[0], args[-1]
            n = len(samples.grid) if hasattr(samples, "grid") else int(np.size(samples))
            self.counts["reconstruct.terms"] += n * int(np.size(x))
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                if started:
                    tracemalloc.stop()
                self.maxima["reconstruct.peak_mb"] = max(self.maxima["reconstruct.peak_mb"], peak)

        return self._wrap(f"reconstruct.{name}", reconstruction)

    # -- installation ------------------------------------------------------
    def _replacements(self, mods):
        """original function -> wrapper, for every public library function."""
        special = {
            "inner.evaluate": dict(after=self._count_size("inner.evaluate.points", 1)),
            "inner.phase_arrays": dict(after=self._count_size("inner.phase_arrays.points", 1)),
            "kernel.sinc": dict(after=self._count_size("kernel.sinc.points", 0)),
            "clark.invert_phase": dict(after=self._count_size("clark.invert_phase.targets", 1)),
            "clark.solve_nodes": dict(after=self._solve_after),
            "quadrature.integrate_panels": dict(before=self._integrate_before,
                                                after=self._integrate_after),
        }
        out = {}
        for layer, mod in mods.items():
            if layer == "cli":
                continue
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if (not callable(fn) or isinstance(fn, type) or fn in out
                        or fn.__module__ != mod.__name__):
                    continue
                # aliases such as kernel.xi = sinc are named after the function
                name = f"{layer}.{fn.__name__}"
                if layer == "reconstruct" and fn.__name__ in RECONSTRUCTIONS:
                    out[fn] = self._wrap_reconstruction(fn.__name__, fn)
                else:
                    out[fn] = self._wrap(name, fn, **special.get(name, {}))
        harness = mods["harness"]
        out[harness._p_mass] = self._wrap_p_mass(harness._p_mass)
        out[harness._certified_mass] = self._wrap_certified_mass(harness._certified_mass)
        out[mods["cli"].main] = self._wrap("cli.main", mods["cli"].main)
        return out

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer already installed")
        mods = _modules()
        repl = self._replacements(mods)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                wrapper = repl.get(value) if callable(value) else None
                if wrapper is not None:
                    self._bindings.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        kc = mods["harness"].KernelCombination
        for attr, label in (("__call__", "call"), ("derivative", "derivative")):
            original = kc.__dict__[attr]
            self._bindings.append((kc, attr, original))
            setattr(kc, attr, self._wrap(f"harness.KernelCombination.{label}", original,
                                         after=self._count_size(
                                             f"harness.KernelCombination.{label}.points", 1)))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    # -- results -----------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer metrics: self times, work counters, maxima and the two
        waste ratios.  Everything but the times repeats exactly."""
        out = {f"{name}.self_s": t for name, t in self.self_s.items()}
        out.update({f"{name}.calls": n for name, n in self.calls.items()})
        out.update(self.counts)
        out.update(self.maxima)
        certs = self.counts["harness.certifications"]
        out["harness.first_radius_share"] = self.counts["harness.radius_2000"] / certs if certs else 0.0
        points = self.counts["harness.certified_points"]
        out["harness.wasted_points_share"] = (
            self.counts["harness.wasted_points"] / points if points else 0.0)
        return out
