"""Sampling grids from the phase-crossing equation phi(x_n) = gamma + 2 pi n.

For an inner spec with c > 0 the total phase is a strictly increasing
bijection of the line, so every integer index has exactly one node.  Nodes
carry the squared kernel norms phi'(x_n) / 2pi as weights; together they form
the sampling grid used by the interpolation and certification modules.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .inner import TWO_PI, InnerFunctionSpec, derivative_sup_norm, phase_arrays, shaped_like

# Certification threshold on |phi(x_n) - gamma - 2 pi n| for emitted grids;
# the floor of _residual_tolerance.
RESIDUAL_TOL = 1e-10
# ulps of the largest |target| a node residual may reach: the rounding of
# phi's sum of terms plus the phase step between adjacent floats x.
_RESIDUAL_ULPS = 4.0

# Safeguarded Newton steps allowed per phase inversion before it gives up.
_MAX_STEPS = 64
# Targets invert_phase solves together; bounds its workspace, which would
# otherwise grow with the node window.
_CHUNK = 8192
# Most nodes one grid may hold; refused before any array is allocated.
_MAX_NODES = 2**22

__all__ = ["NoNodesError", "SamplingGrid", "invert_phase", "solve_nodes",
           "node_spacing_bounds"]


class NoNodesError(ValueError):
    """Raised when the phase equation has no solution for the requested spec."""


@dataclass(eq=False)
class SamplingGrid:
    """Certified phase-crossing nodes with their kernel-norm weights.

    indices, nodes and weights are parallel arrays ordered by index; nodes
    are strictly increasing and every weight is positive.  residual_bound is
    the largest |phi(x_n) - gamma - 2 pi n| over the grid; solve_nodes keeps
    it within _residual_tolerance(targets).
    """

    spec: InnerFunctionSpec
    gamma: float
    indices: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    residual_bound: float = field(default=RESIDUAL_TOL)

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=int)
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if not (self.indices.size == self.nodes.size == self.weights.size):
            raise ValueError("indices, nodes, weights must have equal length")
        if self.nodes.size == 0:
            raise ValueError("grid must contain at least one node")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be positive")

    def __len__(self) -> int:
        return int(self.nodes.size)


def invert_phase(spec: InnerFunctionSpec, target):
    """Solve phi(x) = target for scalar or array targets (any shape).

    Safeguarded Newton iteration (rtsafe, Numerical Recipes 9.4).  With
    x0 = (target - tau) / c, the bounded Blaschke phase puts the root inside
    [x0 - pad, x0 + pad], pad = 2 pi M / c + 1 for total multiplicity M.
    Starting from x0, each step shrinks that bracket by the sign of
    phi(x) - target and then takes the Newton step, or the bracket midpoint
    when the Newton step would leave the open bracket or not halve the step
    before it.  Targets go in chunks of _CHUNK, and only targets still open
    are evaluated.  A target is done once its residual is at most
    1e-14 (1 + |target|) or its Newton step at most 1e-15 (1 + |x|), and
    that last Newton step is kept; or once no float lies strictly inside its
    bracket.  Raises RuntimeError when a target is still open after
    _MAX_STEPS steps, and ValueError for a non-finite target.  Requires
    c > 0 (otherwise the phase has bounded range).
    """
    if not spec.c > 0.0:
        raise NoNodesError("phase inversion requires exponential type c > 0")
    t = np.asarray(target, dtype=float).ravel()
    if not np.all(np.isfinite(t)):
        raise ValueError("phase targets must be finite")
    x = np.empty_like(t)
    for start in range(0, t.size, _CHUNK):
        x[start:start + _CHUNK] = _newton_bracketed(spec, t[start:start + _CHUNK])
    return shaped_like(x, target)


def _newton_bracketed(spec: InnerFunctionSpec, t: np.ndarray) -> np.ndarray:
    """invert_phase on a 1-d array of finite targets."""
    x = (t - spec.tau) / spec.c
    pad = TWO_PI * spec.total_multiplicity / spec.c + 1.0
    lo = x - pad
    hi = x + pad
    step = np.full_like(x, 2.0 * pad)
    todo = np.arange(t.size)
    for _ in range(_MAX_STEPS):
        if todo.size == 0:
            return x
        xa, ta = x[todo], t[todo]
        vals, derivs = phase_arrays(spec, xa)
        resid = vals - ta
        la = np.where(resid < 0.0, xa, lo[todo])
        ha = np.where(resid > 0.0, xa, hi[todo])
        newton = resid / derivs
        small = ((np.abs(resid) <= 1e-14 * (1.0 + np.abs(ta)))
                 | (np.abs(newton) <= 1e-15 * (1.0 + np.abs(xa))))
        xn = xa - newton
        mid = 0.5 * (la + ha)
        bisect = ~small & ((xn <= la) | (xn >= ha)
                           | (np.abs(newton) > 0.5 * np.abs(step[todo])))
        xn = np.where(bisect, mid, xn)
        done = small | (mid == la) | (mid == ha)
        x[todo], lo[todo], hi[todo], step[todo] = xn, la, ha, xn - xa
        todo = todo[~done]
    if todo.size:
        raise RuntimeError(f"phase inversion left {todo.size} targets unconverged "
                           f"after {_MAX_STEPS} steps")
    return x


def _residual_tolerance(targets) -> float:
    """max(RESIDUAL_TOL, 4 ulp(max |target|)): the node residual certified.

    phi(x) near a target t is a rounded sum of terms as large as |t|, and
    adjacent floats x move it by about ulp(t), so no solver gets below about
    one ulp(t) (the largest seen is one ulp).  The floor governs below
    |t| = 2^17 (|n| <= 20860 at c = 1).
    """
    top = float(np.max(np.abs(targets)))
    return max(RESIDUAL_TOL, _RESIDUAL_ULPS * float(np.spacing(top)))


def _check_node_count(count: int) -> None:
    """ValueError when a grid of count nodes exceeds _MAX_NODES."""
    if count > _MAX_NODES:
        raise ValueError(f"{count} nodes exceed the limit of {_MAX_NODES}")


def solve_nodes(spec: InnerFunctionSpec, gamma: float, n_min: int, n_max: int) -> SamplingGrid:
    """Nodes x_n with phi(x_n) = gamma + 2 pi n for n in [n_min, n_max].

    Every returned node is certified: the residual in phase units is checked
    against _residual_tolerance(targets) after polishing, and RuntimeError is
    raised when any node misses it.
    """
    gamma = float(gamma)
    if not 0.0 <= gamma < TWO_PI:
        raise ValueError(f"gamma must lie in [0, 2pi), got {gamma}")
    if not (isinstance(n_min, int) and isinstance(n_max, int)):
        raise TypeError("n_min and n_max must be integers")
    if n_min > n_max:
        raise ValueError(f"empty index range [{n_min}, {n_max}]")
    _check_node_count(n_max - n_min + 1)
    if not spec.c > 0.0:
        raise NoNodesError(
            "node solving requires c > 0; with c = 0 the phase is bounded and "
            "only finitely many crossings exist")
    indices = np.arange(n_min, n_max + 1)
    targets = gamma + TWO_PI * indices
    nodes = np.atleast_1d(invert_phase(spec, targets))
    vals, derivs = phase_arrays(spec, nodes)
    resid = float(np.max(np.abs(vals - targets)))
    tol = _residual_tolerance(targets)
    if resid > tol:
        raise RuntimeError(f"node residual {resid:.3e} exceeds {tol:.1e}")
    return SamplingGrid(spec=spec, gamma=gamma, indices=indices, nodes=nodes,
                        weights=derivs / TWO_PI, residual_bound=resid)


def node_spacing_bounds(grid: SamplingGrid):
    """(min, max) consecutive node spacing; min is at least 2pi/sup phi'."""
    if len(grid) < 2:
        raise ValueError("spacing bounds need at least two nodes")
    gaps = np.diff(grid.nodes)
    lo = float(gaps.min())
    hi = float(gaps.max())
    floor = TWO_PI / derivative_sup_norm(grid.spec)
    if lo < floor - 1e-12:
        raise RuntimeError(f"spacing {lo} violates floor {floor}")
    return lo, hi
