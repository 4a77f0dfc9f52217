"""Sliding-window measure densities and embedding-inequality certificates.

A measure is a finite list of point masses plus a piecewise-constant density.
For that class the window functional sup_x mu([x, x+delta])/delta is exact:
the window mass is piecewise linear in x with upward jumps exactly at the
breakpoint candidates, so a breakpoint sweep attains the supremum.  The
phase-adapted variant measures windows by phase increment instead of length
and needs a scan-plus-zoom search since the objective is then smooth between
breakpoints rather than linear.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import quadrature
from .clark import invert_phase
from .inner import InnerFunctionSpec, _phase_values, _require_number, derivative_sup_norm
from .kernel import sinc

__all__ = ["MassAtom", "DensityPiece", "MeasureSpec", "DensityReport",
           "UnsupportedSpecError", "ZeroNormError", "d_mu", "d_mu_theta",
           "d_mu_theta_many",
           "donoho_logan_bound_p2", "donoho_logan_bound_p1",
           "model_sieve_bound", "nyquist_density", "empirical_embedding_ratio",
           "measure_from_dict", "measure_to_dict"]


class UnsupportedSpecError(ValueError):
    """Phase-adapted density needs a spec with strictly increasing unbounded phase."""


class ZeroNormError(ValueError):
    """Embedding ratios are undefined against a zero-norm function."""


@dataclass(frozen=True)
class MassAtom:
    position: float
    mass: float

    def __post_init__(self):
        object.__setattr__(self, "position", float(self.position))
        object.__setattr__(self, "mass", float(self.mass))
        if not math.isfinite(self.position):
            raise ValueError(f"atom position must be finite, got {self.position}")
        if not self.mass > 0.0:
            raise ValueError(f"atom mass must be > 0, got {self.mass}")


@dataclass(frozen=True)
class DensityPiece:
    left: float
    right: float
    height: float

    def __post_init__(self):
        object.__setattr__(self, "left", float(self.left))
        object.__setattr__(self, "right", float(self.right))
        object.__setattr__(self, "height", float(self.height))
        if not (math.isfinite(self.left) and self.left < self.right and math.isfinite(self.right)):
            raise ValueError(f"piece needs left < right, got [{self.left}, {self.right})")
        if not self.height >= 0.0:
            raise ValueError(f"piece height must be >= 0, got {self.height}")


@dataclass(frozen=True)
class MeasureSpec:
    """Point masses plus a piecewise-constant density with disjoint pieces."""

    atoms: tuple = ()
    pieces: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "pieces", tuple(self.pieces))
        for a in self.atoms:
            if not isinstance(a, MassAtom):
                raise TypeError(f"atoms must be MassAtom instances, got {a!r}")
        for piece in self.pieces:
            if not isinstance(piece, DensityPiece):
                raise TypeError(f"pieces must be DensityPiece instances, got {piece!r}")
        ordered = sorted(self.pieces, key=lambda q: q.left)
        for prev, nxt in zip(ordered, ordered[1:]):
            if nxt.left < prev.right - 1e-15:
                raise ValueError(
                    f"piece interiors overlap: [{prev.left}, {prev.right}) and "
                    f"[{nxt.left}, {nxt.right})")

    @property
    def is_empty(self) -> bool:
        return not self.atoms and all(q.height == 0.0 for q in self.pieces)

    def support_hull(self):
        """(min, max) of the support, or None for the empty measure."""
        lo, hi = math.inf, -math.inf
        for a in self.atoms:
            lo = min(lo, a.position)
            hi = max(hi, a.position)
        for q in self.pieces:
            if q.height > 0.0:
                lo = min(lo, q.left)
                hi = max(hi, q.right)
        if lo > hi:
            return None
        return lo, hi

    def window_mass(self, start, length):
        """mu([start, start + length]) with closed endpoints; vectorized."""
        x = np.asarray(start, dtype=float)
        ln = np.asarray(length, dtype=float)
        out = np.zeros(np.broadcast(x, ln).shape)
        for a in self.atoms:
            out = out + a.mass * ((x <= a.position) & (a.position <= x + ln))
        for q in self.pieces:
            cover = np.minimum(x + ln, q.right) - np.maximum(x, q.left)
            out = out + q.height * np.maximum(0.0, cover)
        return out


def measure_to_dict(measure: MeasureSpec) -> dict:
    return {
        "atoms": [{"x": a.position, "mass": a.mass} for a in measure.atoms],
        "pieces": [{"l": q.left, "r": q.right, "h": q.height} for q in measure.pieces],
    }


def measure_from_dict(data: dict, where: str = "measure") -> MeasureSpec:
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object, got {type(data).__name__}")
    unknown = set(data) - {"atoms", "pieces"}
    if unknown:
        raise ValueError(f"{where}: unknown fields {sorted(unknown)}")
    atoms = []
    for i, raw in enumerate(data.get("atoms", [])):
        spot = f"{where}.atoms[{i}]"
        if not isinstance(raw, dict) or set(raw) != {"x", "mass"}:
            raise ValueError(f"{spot}: expected fields x, mass")
        atoms.append(MassAtom(position=_require_number(raw["x"], f"{spot}.x"),
                              mass=_require_number(raw["mass"], f"{spot}.mass")))
    pieces = []
    for i, raw in enumerate(data.get("pieces", [])):
        spot = f"{where}.pieces[{i}]"
        if not isinstance(raw, dict) or set(raw) != {"l", "r", "h"}:
            raise ValueError(f"{spot}: expected fields l, r, h")
        pieces.append(DensityPiece(left=_require_number(raw["l"], f"{spot}.l"),
                                   right=_require_number(raw["r"], f"{spot}.r"),
                                   height=_require_number(raw["h"], f"{spot}.h")))
    return MeasureSpec(atoms=tuple(atoms), pieces=tuple(pieces))


@dataclass(frozen=True)
class DensityReport:
    """Window-density value with the witness interval that attains it."""

    delta: float
    value: float
    witness: tuple


def _breakpoints(measure: MeasureSpec, shift: float) -> np.ndarray:
    pts = []
    for a in measure.atoms:
        pts.extend((a.position - shift, a.position))
    for q in measure.pieces:
        pts.extend((q.left - shift, q.left, q.right - shift, q.right))
    return np.unique(np.asarray(pts, dtype=float))


def d_mu(measure: MeasureSpec, delta: float) -> DensityReport:
    """sup over closed length-delta windows of mu(window)/delta, exactly.

    The window mass is piecewise linear in the left endpoint; every jump and
    kink happens when an endpoint crosses an atom or a piece edge, and the
    closed-window convention makes the value at those points the larger
    one-sided limit.  Evaluating all of them is therefore exact.
    """
    delta = float(delta)
    if not delta > 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    cand = _breakpoints(measure, delta)
    if cand.size == 0:
        return DensityReport(delta=delta, value=0.0, witness=(0.0, delta))
    masses = measure.window_mass(cand, delta)
    best = int(np.argmax(masses))
    return DensityReport(delta=delta, value=float(masses[best] / delta),
                         witness=(float(cand[best]), float(cand[best] + delta)))


# Points the phase-adapted search may hold in one stage, summed over the
# deltas of one call: each delta's scan grid, breakpoint candidates and zoom
# rows.  The scan step shrinks with delta, so without a limit a small delta
# asks for an array of any size.
_SEARCH_POINTS = 2 ** 20


def _phase_window_objective(measure: MeasureSpec, spec: InnerFunctionSpec,
                            shifts, a: np.ndarray):
    """mu([a, b])/(b - a) and b, where phi(b) = phi(a) + shift, elementwise."""
    b = invert_phase(spec, _phase_values(spec, a) + shifts)
    length = b - a
    return measure.window_mass(a, length) / length, b


def _objective_parts(measure: MeasureSpec, spec: InnerFunctionSpec,
                     deltas: np.ndarray, parts: list) -> list:
    """Objective values at each delta's left endpoints, from one batch."""
    sizes = [part.size for part in parts]
    vals, _ = _phase_window_objective(measure, spec, np.repeat(deltas, sizes),
                                      np.concatenate(parts))
    return np.split(vals, np.cumsum(sizes)[:-1])


def d_mu_theta(measure: MeasureSpec, spec: InnerFunctionSpec, delta: float) -> DensityReport:
    """sup of mu([a, b])/(b - a) over intervals with phase increment delta.

    Linear phase reduces exactly to the fixed-length sweep at length delta/c.
    Otherwise the right endpoint b(a) follows from phase inversion and the
    search runs over breakpoint events (window edge meets a measure
    breakpoint) plus a uniform scan with zoom refinement; between events the
    objective is smooth, so the scan step bounds the sup gap.
    """
    return d_mu_theta_many(measure, spec, [delta])[0]


def d_mu_theta_many(measure: MeasureSpec, spec: InnerFunctionSpec,
                    deltas) -> list[DensityReport]:
    """d_mu_theta at each of deltas, in order, from one search.

    Every stage (breakpoint preimages, scan, each zoom round, the witness
    ends) evaluates the candidates of all deltas in one batch; the phase,
    invert_phase and window_mass give a point the same bits in any batch,
    so each report equals the search for its delta alone.  Raises ValueError
    before any evaluation for a delta that is not > 0, or when the search
    would hold more than _SEARCH_POINTS points at once.
    """
    deltas = [float(delta) for delta in deltas]
    for delta in deltas:
        if not delta > 0.0:
            raise ValueError(f"delta must be > 0, got {delta}")
    if not spec.c > 0.0:
        raise UnsupportedSpecError("phase-adapted density requires exponential type c > 0")
    if not spec.zeros:
        return [replace(d_mu(measure, delta / spec.c), delta=delta) for delta in deltas]
    hull = measure.support_hull()
    if hull is None or not deltas:
        return [DensityReport(delta=delta, value=0.0, witness=(0.0, delta / spec.c))
                for delta in deltas]
    bps = _breakpoints(measure, 0.0)
    widths = [q.right - q.left for q in measure.pieces]
    scans = []  # (lo, hi, step, max_len) of each delta
    points = 0.0
    for delta in deltas:
        max_len = delta / spec.c
        step = min(min(widths) if widths else max_len, max_len) / 8.0
        lo, hi = hull[0] - max_len, hull[1]
        scans.append((lo, hi, step, max_len))
        grid = (hi + step - lo) / step if step > 0.0 else math.inf
        # the candidates (grid, breakpoints, preimages, lo, hi) plus 8 x 101 zoom points
        points += grid + 2 * bps.size + 2 + 8 * 101
    if not points <= _SEARCH_POINTS:
        raise ValueError(f"phase-adapted density search needs {points:.3g} points for "
                         f"{len(deltas)} deltas, over the limit of {_SEARCH_POINTS}")
    shifts = np.asarray(deltas)
    preimages = invert_phase(spec, _phase_values(spec, bps)[None, :] - shifts[:, None])
    cands = []
    for (lo, hi, step, max_len), pre in zip(scans, preimages):
        grid = np.arange(lo, hi + step, step)
        cand = np.unique(np.concatenate([bps, pre, grid, [lo, hi]]))
        cands.append(cand[(cand >= lo - max_len) & (cand <= hi + max_len)])
    tops, best = [], []  # best: (value, left end) of each delta
    for cand, vals in zip(cands, _objective_parts(measure, spec, shifts, cands)):
        order = np.argsort(vals)[::-1]
        tops.append(cand[order[:8]])
        best.append((float(vals[order[0]]), float(cand[order[0]])))
    spans = [scan[2] for scan in scans]
    for _ in range(4):
        locals_ = [(top[:, None] + np.linspace(-span, span, 101)[None, :]).ravel()
                   for top, span in zip(tops, spans)]
        parts = _objective_parts(measure, spec, shifts, locals_)
        for i, (local, lv) in enumerate(zip(locals_, parts)):
            idx = int(np.argmax(lv))
            if float(lv[idx]) > best[i][0]:
                best[i] = (float(lv[idx]), float(local[idx]))
            tops[i] = local[np.argsort(lv)[::-1][:8]]
        spans = [span / 25.0 for span in spans]
    _, ends = _phase_window_objective(measure, spec, shifts,
                                      np.array([a for _, a in best]))
    return [DensityReport(delta=delta, value=value, witness=(a, float(b)))
            for delta, (value, a), b in zip(deltas, best, ends)]


def donoho_logan_bound_p2(c: float, delta: float, d: float) -> float:
    """(1 + c delta / pi) * d for band-c functions.

    c here is the transform band edge, i.e. half the exponential type of the
    associated inner spec e^{2icz}."""
    if not (c > 0.0 and delta > 0.0 and d >= 0.0):
        raise ValueError("need c > 0, delta > 0, d >= 0")
    return (1.0 + c * delta / math.pi) * d


def donoho_logan_bound_p1(c: float, delta: float, d: float) -> float:
    """d / sinc(c delta / 2); only valid while the sinc stays positive."""
    if not (c > 0.0 and delta > 0.0 and d >= 0.0):
        raise ValueError("need c > 0, delta > 0, d >= 0")
    s = sinc(0.5 * c * delta)
    if c * delta >= 2.0 * math.pi or s <= 0.0:
        raise ValueError(f"bound undefined for c*delta >= 2pi (sinc(c delta/2) = {s:.3g})")
    return d / s


def model_sieve_bound(spec: InnerFunctionSpec, delta: float, d: float, p: float) -> float:
    """(1 + delta * sup|Theta'|)^p * d."""
    if not (delta > 0.0 and d >= 0.0 and p >= 1.0):
        raise ValueError("need delta > 0, d >= 0, p >= 1")
    return (1.0 + delta * derivative_sup_norm(spec)) ** p * d


def nyquist_density(set_pieces, c: float) -> float:
    """Peak fraction of a length-1/(2c) window covered by the given set."""
    if not c > 0.0:
        raise ValueError(f"c must be > 0, got {c}")
    pieces = tuple(DensityPiece(left=l, right=r, height=1.0) for l, r in set_pieces)
    if not pieces:
        return 0.0
    measure = MeasureSpec(pieces=pieces)
    delta = 1.0 / (2.0 * c)
    return 2.0 * c * delta * d_mu(measure, delta).value


def empirical_embedding_ratio(f, measure: MeasureSpec, p: float, norm: float) -> float:
    """integral of |f|^p against the measure, divided by norm**p, where norm
    is the certified ‖f‖_p of the callable f.

    Raises QuadratureError when a density piece's quadrature falls short of
    its tolerance.
    """
    p = float(p)
    if not norm > 0.0:
        raise ZeroNormError("embedding ratio needs a nonzero certified norm")
    num = 0.0
    if measure.atoms:
        spots = np.array([a.position for a in measure.atoms])
        weights = np.array([a.mass for a in measure.atoms])
        num += float(weights @ (np.abs(f(spots)) ** p))
    for q in measure.pieces:
        if q.height == 0.0:
            continue
        res = quadrature.integrate(
            lambda t: np.abs(f(t)) ** p, q.left, q.right,
            abs_tol=1e-10 * max(1.0, norm ** p)).require_converged("empirical_embedding_ratio")
        num += q.height * float(np.real(res.value))
    return num / norm ** p
