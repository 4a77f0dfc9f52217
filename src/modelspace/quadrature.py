"""Adaptive Gauss-Kronrod quadrature with batched panel evaluation.

A 15-point Kronrod rule with embedded 7-point Gauss estimate is applied to a
worklist of panels.  Panels whose error estimate exceeds their share of the
budget are bisected, and all new panels of a round are evaluated in a single
vectorised call, so integrands only ever see one flat ndarray per round.
One driver advances many such integrals in lockstep, each on its own
panels, tolerance and error total; integrate_panels is its one-integral case.

Integrands must accept a 1-d float ndarray and return an ndarray of the same
length (real or complex).
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureError", "QuadratureResult", "integrate", "integrate_panels", "two_sided_panels"]

# Kronrod-15 abscissae on [-1, 1]; odd entries are the embedded Gauss-7 points.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769, -0.741531185599394,
    -0.586087235467691, -0.405845151377397, -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691, 0.741531185599394,
    0.864864423359769, 0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])


# Most initial panels of integrate, and most panels of one integral, past
# which refinement stops unconverged.
MAX_INITIAL_PANELS = 4096
MAX_PANELS = 60000

# Integrals a lockstep pass keeps open at once, and the least panels it
# evaluates in one group of whole integrals: both bound its memory.
_MAX_OPEN = 32
_GROUP_ROWS = 512


class QuadratureError(ArithmeticError):
    """Adaptive quadrature stopped before its error estimate met its
    tolerance, max(abs_tol, rel_tol |Re I1|)."""


@dataclass
class QuadratureResult:
    value: complex
    error_bound: float
    panel_count: int
    converged: bool = True  # error_bound <= max(abs_tol, rel_tol |Re I1|)

    def require_converged(self, what: str) -> "QuadratureResult":
        """self, or QuadratureError naming `what` when refinement fell short."""
        if not self.converged:
            raise QuadratureError(
                f"{what}: quadrature stopped at error estimate {self.error_bound:.3e} "
                f"over {self.panel_count} panels, above its tolerance")
        return self


def _gk_apply(rows, keys, counts, panels: np.ndarray):
    a, b = panels[:, 0], panels[:, 1]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = mid[:, None] + half[:, None] * _XK[None, :]
    ys = np.asarray(rows(keys, counts, xs)).reshape(xs.shape)
    ik = (ys * _WK[None, :]).sum(axis=1) * half
    ig = (ys[:, 1::2] * _WG[None, :]).sum(axis=1) * half
    return ik, np.abs(ik - ig)


def _in_turn(*counts) -> np.ndarray:
    """The stable order that gathers a concatenation of blocks by integral,
    block j holding counts[j][i] items of integral i in turn."""
    label = np.concatenate([np.repeat(np.arange(len(c)) * len(counts) + j, c)
                            for j, c in enumerate(counts)])
    return np.argsort(label, kind="stable")


def _lockstep(jobs, rows, abs_tol: float, rel_tol: float = 0.0):
    """Adaptive GK15 integrals in lockstep; yields (key, QuadratureResult) as
    each finishes.

    jobs is a deque of (key, panels), drawn whenever fewer than _MAX_OPEN
    integrals are open; the caller may append to it between results.  Each
    integral keeps the rule of integrate_panels on its own (its panels in
    order, its own error total, tolerance max(abs_tol, rel_tol |Re I1|)), so
    its result does not depend on the others.  A round splits the panels of
    all open integrals at once and evaluates the new ones in groups of whole
    integrals of at least _GROUP_ROWS panels: rows(keys, counts, x) gives the
    integrand at the (n, 15) Kronrod rows x, counts[i] panels of keys[i] in
    turn, each integral's rows as it alone would evaluate them.
    """
    keys, sizes, tols, rounds = [], np.zeros(0, np.intp), np.zeros(0), np.zeros(0, np.intp)
    # each open integral's panels in turn: the kept ones, then the new ones
    panels, vals, errs = np.zeros((0, 2)), np.zeros(0), np.zeros(0)
    while True:
        starts = np.cumsum(sizes) - sizes
        totals = np.array([errs[s:s + n].sum() for s, n in zip(starts.tolist(), sizes.tolist())])
        err_max = np.maximum.reduceat(errs, starts)
        cut = np.fmin(np.fmax(tols / sizes, 0.25 * err_max), 0.999999 * err_max)
        a, b = panels[:, 0], panels[:, 1]
        # never split panels already at floating-point width
        split = (errs > np.repeat(cut, sizes)) & ((b - a) > 1e-13 * (1.0 + np.abs(a) + np.abs(b)))
        halves = np.add.reduceat(split, starts, dtype=np.intp)
        # round cap is generous: oscillatory integrands can need hundreds of
        # small rounds when one stubborn panel keeps the split threshold high
        done = (totals <= tols) | (sizes >= MAX_PANELS) | (rounds >= 512) | (halves == 0)
        for i in np.flatnonzero(done):
            value = vals[starts[i]:starts[i] + sizes[i]].sum()
            yield keys[i], QuadratureResult(value if np.iscomplexobj(value) else float(value),
                                            float(totals[i]), int(sizes[i]),
                                            bool(totals[i] <= tols[i]))
        live = ~done
        on = np.repeat(live, sizes)
        split &= on
        kept = np.flatnonzero(on & ~split)
        keys = [key for key, keep in zip(keys, live) if keep]
        held, halves = (sizes - halves)[live], halves[live]
        a, b = panels[split, 0], panels[split, 1]
        mid = 0.5 * (a + b)
        # each integral's left halves, then its right halves
        new = np.concatenate([np.column_stack([a, mid]), np.column_stack([mid, b])])
        if len(keys) > 1:
            new = new[_in_turn(halves, halves)]
        counts, tols, rounds = 2 * halves, tols[live], rounds[live] + 1
        opened = []
        while jobs and len(keys) < _MAX_OPEN:
            key, job = jobs.popleft()
            job = np.asarray(job, dtype=float).reshape(-1, 2)
            if not len(job):
                yield key, QuadratureResult(0.0, 0.0, 0, 0.0 <= abs_tol)
                continue
            keys.append(key)
            opened.append(job)
        if not keys:
            return
        if opened:
            new = np.concatenate([new] + opened)
            counts = np.concatenate([counts, [len(job) for job in opened]]).astype(np.intp)
            held = np.concatenate([held, np.zeros(len(opened), np.intp)])
            rounds = np.concatenate([rounds, np.zeros(len(opened), np.intp)])
        ends = np.cumsum(counts).tolist()
        parts, lo, first = [], 0, 0
        for i, end in enumerate(ends):
            if end - lo >= _GROUP_ROWS or i == len(ends) - 1:
                parts.append(_gk_apply(rows, keys[first:i + 1], counts[first:i + 1], new[lo:end]))
                lo, first = end, i + 1
        new_vals = np.concatenate([v for v, _ in parts])
        new_errs = np.concatenate([e for _, e in parts])
        firsts = [new_vals[end - n:end].sum() for n, end in zip(counts[len(tols):].tolist(),
                                                              ends[len(tols):])]
        tols = np.concatenate([tols, [max(abs_tol, rel_tol * abs(float(np.real(s))))
                                      for s in firsts]])
        # the kept panels of the open integrals, then the new ones, each
        # integral's gathered in turn
        take = np.concatenate([kept, len(errs) + np.arange(len(new))])
        if len(keys) > 1:
            take = take[_in_turn(held, counts)]
        panels = np.concatenate([panels, new]).take(take, axis=0)
        vals = np.concatenate([vals, new_vals]).take(take)
        errs = np.concatenate([errs, new_errs]).take(take)
        sizes = held + counts


def integrate_panels(f, panels, abs_tol: float, rel_tol: float = 0.0) -> QuadratureResult:
    """Integrate f over a union of panels, refining until the summed GK error
    estimate drops below the tolerance or MAX_PANELS is reached.  The
    tolerance is abs_tol, or rel_tol |Re I1| when that is larger, I1 being
    the estimate from the given panels.  The result's converged flag is False
    when refinement stopped short of the tolerance (panel budget, round cap or
    floating-point width)."""
    ((_, result),) = _lockstep(deque([(None, panels)]), lambda keys, counts, x: f(x.ravel()),
                               abs_tol, rel_tol)
    return result


def integrate(f, lo: float, hi: float, abs_tol: float = 1e-10) -> QuadratureResult:
    """Integrate f over [lo, hi] from uniform panels, four per unit of
    length, at least 8 and at most MAX_INITIAL_PANELS.  Raises ValueError
    when lo, hi or hi - lo is not finite."""
    if not math.isfinite(hi - lo):
        raise ValueError(f"integration range [{lo}, {hi}] is not finite")
    if not hi > lo:
        raise ValueError(f"empty integration range [{lo}, {hi}]")
    initial = min(MAX_INITIAL_PANELS, max(8, int((hi - lo) * 4)))
    edges = np.linspace(lo, hi, initial + 1)
    return integrate_panels(f, np.column_stack([edges[:-1], edges[1:]]), abs_tol)


def two_sided_panels(radius: float, inner: float = 16.0) -> np.ndarray:
    """Symmetric panelling of [-radius, radius]: unit-width panels out to
    inner, then widths growing by 1.35 per panel.  Adaptive refinement
    restores any resolution lost in the tails."""
    edges = [0.0]
    while edges[-1] < min(inner, radius):
        edges.append(min(radius, edges[-1] + 1.0))
    step = 1.0
    while edges[-1] < radius:
        step *= 1.35
        edges.append(min(radius, edges[-1] + step))
    e = np.asarray(edges)
    right = np.column_stack([e[:-1], e[1:]])
    left = np.column_stack([-e[1:], -e[:-1]])
    return np.vstack([left[::-1], right])

