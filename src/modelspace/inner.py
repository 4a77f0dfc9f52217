"""Meromorphic inner functions on the upper half-plane.

The inner functions handled here are finite products

    Theta(z) = exp(i tau) exp(i c z) prod_k ((z - lam_k) / (z - conj lam_k))^{m_k}

with c >= 0 and Blaschke zeros lam_k = u_k + i v_k, v_k > 0.  Restricted to
the real axis Theta is unimodular and carries a continuous, strictly
increasing phase phi with Theta(x) = exp(i phi(x)) whenever c > 0 or at least
one zero is present.  The phase derivative

    phi'(x) = c + sum_k 2 m_k v_k / ((x - u_k)^2 + v_k^2)

coincides with |Theta'(x)| on the axis and controls node spacing, kernel
sizes and derivative estimates throughout the package.

Branch convention: each Blaschke factor contributes -2 m atan2(v, x - u),
which increases from -2 pi m at -infinity to 0 at +infinity.  The exponential
factor contributes c x and tau enters as an additive constant, so
phi(0) = tau - 2 sum_k m_k atan2(v_k, -u_k).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlaschkeZero",
    "InnerFunctionSpec",
    "evaluate",
    "phase_arrays",
    "phase_derivative",
    "phase_difference",
    "derivative_sup_norm",
    "enlarge",
    "from_dict",
    "to_dict",
]

TWO_PI = 2.0 * math.pi

# Distinct specs whose derivative_sup_norm is kept.
_SUP_NORM_CACHE_SIZE = 64


def shaped_like(out, x):
    """out as a Python float or complex when x is a scalar, else in x's shape."""
    if np.ndim(x) == 0:
        return np.asarray(out).item()
    return np.reshape(out, np.shape(x))


@dataclass(frozen=True)
class BlaschkeZero:
    """A single zero u + i v in the open upper half-plane, with multiplicity."""

    re: float
    im: float
    mult: int = 1

    def __post_init__(self):
        object.__setattr__(self, "re", float(self.re))
        object.__setattr__(self, "im", float(self.im))
        if not math.isfinite(self.re):
            raise ValueError(f"zero real part must be finite, got {self.re!r}")
        if not (math.isfinite(self.im) and self.im > 0.0):
            raise ValueError(f"zero must lie in the open upper half-plane (im > 0), got im={self.im!r}")
        if not isinstance(self.mult, int) or isinstance(self.mult, bool) or self.mult < 1:
            raise ValueError(f"multiplicity must be a positive integer, got {self.mult!r}")


@dataclass(frozen=True)
class InnerFunctionSpec:
    """Finite description of an inner function: rotation, exponential rate, zeros."""

    tau: float = 0.0
    c: float = 0.0
    zeros: tuple[BlaschkeZero, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "zeros", tuple(self.zeros))
        if not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau!r}")
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise ValueError(f"exponential rate c must be finite and >= 0, got {self.c!r}")
        for z in self.zeros:
            if not isinstance(z, BlaschkeZero):
                raise ValueError(f"zeros must be BlaschkeZero instances, got {type(z).__name__}")

    @property
    def total_multiplicity(self) -> int:
        return sum(z.mult for z in self.zeros)

    @property
    def is_degenerate(self) -> bool:
        """True when Theta is a unimodular constant (c = 0 and no zeros)."""
        return self.c == 0.0 and not self.zeros


def evaluate(spec: InnerFunctionSpec, z):
    """Evaluate Theta at z (scalar or ndarray, real or complex).

    Unimodular on the real axis; |Theta| < 1 in the open upper half-plane
    unless the spec is degenerate.  The Blaschke factors are formed in
    preallocated buffers; no array is allocated per zero of multiplicity 1.
    """
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.exp(1j * (spec.tau + spec.c * zz))
    if not spec.zeros:
        return shaped_like(out, z)
    num = np.empty_like(zz)
    den = np.empty_like(zz)
    for zero in spec.zeros:
        lam = complex(zero.re, zero.im)
        np.subtract(zz, lam, out=num)
        np.subtract(zz, lam.conjugate(), out=den)
        np.divide(num, den, out=num)
        # ** 1 would still run numpy's complex power loop.  The product goes
        # to the spare buffer: numpy rounds an in-place complex multiply of
        # a single element differently from out * factor.
        np.multiply(out, num if zero.mult == 1 else num ** zero.mult, out=den)
        out, den = den, out
    return shaped_like(out, z)


def phase_arrays(spec: InnerFunctionSpec, x):
    """Phase and phase derivative at real points, vectorised.

    Returns (values, derivatives) as float ndarrays of the input shape.
    """
    xx = np.asarray(x, dtype=float)
    return _phase_values(spec, xx), phase_derivative(spec, xx)


def _phase_values(spec: InnerFunctionSpec, xx: np.ndarray) -> np.ndarray:
    """The phase of phase_arrays alone, at a float ndarray."""
    val = spec.tau + spec.c * xx
    for zero in spec.zeros:
        val = val - (2.0 * zero.mult) * np.arctan2(zero.im, xx - zero.re)
    return val


def phase_derivative(spec: InnerFunctionSpec, x):
    """Phase derivative phi'(x) = c + sum_k 2 m_k v_k / ((x - u_k)^2 + v_k^2).

    Vectorised over real points; returns a float ndarray of the input shape
    (a numpy float for scalar input).  One buffer is reused across zeros.
    """
    xx = np.asarray(x, dtype=float)
    der = np.full_like(xx, spec.c)
    w = np.empty_like(xx)
    for zero in spec.zeros:
        np.subtract(xx, zero.re, out=w)
        np.multiply(w, w, out=w)
        w += zero.im * zero.im
        np.divide((2.0 * zero.mult) * zero.im, w, out=w)
        der += w
    return der[()]


def phase_difference(spec: InnerFunctionSpec, x, y):
    """phi(x) - phi(y) at real points, vectorised, without cancellation.

    With t = x - y, the exponential factor gives c t and each zero u + i v
    gives 2 m atan2(v t, (x - u)(y - u) + v^2), 2 m times the angle that the
    segment from y to x subtends at u - i v.  Every term is proportional to
    t, so the difference keeps full relative precision as y approaches x,
    where subtracting two phase values would not.
    """
    xx = np.asarray(x, dtype=float)
    yy = np.asarray(y, dtype=float)
    t = xx - yy
    out = spec.c * t
    for zero in spec.zeros:
        cross = (xx - zero.re) * (yy - zero.re) + zero.im * zero.im
        out = out + (2.0 * zero.mult) * np.arctan2(zero.im * t, cross)
    return out


def _phase_second_derivative(spec: InnerFunctionSpec, x):
    xx = np.asarray(x, dtype=float)
    out = np.zeros_like(xx)
    for zero in spec.zeros:
        w = xx - zero.re
        out = out - (4.0 * zero.mult) * zero.im * w / (w * w + zero.im * zero.im) ** 2
    return out


@functools.lru_cache(maxsize=_SUP_NORM_CACHE_SIZE)
def derivative_sup_norm(spec: InnerFunctionSpec) -> float:
    """sup over the real axis of phi' = |Theta'|, cached per spec.

    Without zeros the derivative is constant c.  With zeros, every local
    maximum of phi' is a sign change of phi'' and the zeros' imaginary parts
    set the smallest feature width, so a grid of step min(v)/4 brackets every
    critical point.  Each term 2 m v / ((x - u)^2 + v^2) is convex for
    |x - u| > v / sqrt(3), so phi' has no local maximum outside the windows
    [u_k - 10 max(v), u_k + 10 max(v)]: the grid covers each cluster of
    overlapping windows and skips the gaps between clusters.  Brackets are
    refined by bisection to width 1e-12, or until every bracket spans two
    adjacent floats, and the tail limit c is included for completeness.
    """
    if not spec.zeros:
        return spec.c
    res = sorted(z.re for z in spec.zeros)
    ims = [z.im for z in spec.zeros]
    pad = 10.0 * max(ims)
    step = min(ims) / 4.0
    cuts = [i for i in range(1, len(res)) if res[i] - pad > res[i - 1] + pad]
    grid = np.concatenate([np.arange(res[first] - pad, res[last - 1] + pad + step, step)
                           for first, last in zip([0] + cuts, cuts + [len(res)])])
    g = _phase_second_derivative(spec, grid)
    candidates = [grid]
    sign_change = (g[:-1] == 0.0) | ((g[:-1] > 0.0) != (g[1:] > 0.0))
    a = grid[:-1][sign_change]
    b = grid[1:][sign_change]
    ga = g[:-1][sign_change]
    if a.size:
        for _ in range(60):
            mid = 0.5 * (a + b)
            if np.all((mid == a) | (mid == b)):
                break  # adjacent floats: later rounds change no bracket's midpoint
            gm = _phase_second_derivative(spec, mid)
            same = (gm > 0.0) == (ga > 0.0)
            a = np.where(same, mid, a)
            ga = np.where(same, gm, ga)
            b = np.where(same, b, mid)
            if float(np.max(b - a)) < 1e-12:
                break
        candidates.append(0.5 * (a + b))
    return max(spec.c, float(phase_derivative(spec, np.concatenate(candidates)).max()))


def enlarge(spec: InnerFunctionSpec, extra_c: float) -> InnerFunctionSpec:
    """Multiply by the exponential factor e^{i extra_c z}: add exponential type.

    The result's phase derivative dominates the input's pointwise.
    """
    extra_c = float(extra_c)
    if not (math.isfinite(extra_c) and extra_c >= 0.0):
        raise ValueError(f"extra_c must be finite and >= 0, got {extra_c!r}")
    return InnerFunctionSpec(tau=spec.tau, c=spec.c + extra_c, zeros=spec.zeros)


def to_dict(spec: InnerFunctionSpec) -> dict:
    """Plain-dict form used by the JSON config interface."""
    return {
        "tau": spec.tau,
        "c": spec.c,
        "zeros": [{"re": z.re, "im": z.im, "mult": z.mult} for z in spec.zeros],
    }


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _require_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    return value


def from_dict(data: dict, where: str = "inner") -> InnerFunctionSpec:
    """Build a spec from the JSON-dict form, with field-path diagnostics."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object, got {type(data).__name__}")
    unknown = set(data) - {"tau", "c", "zeros"}
    if unknown:
        raise ValueError(f"{where}: unknown fields {sorted(unknown)}")
    tau = _require_number(data.get("tau", 0.0), f"{where}.tau")
    c = _require_number(data.get("c", 0.0), f"{where}.c")
    zeros = []
    raw = data.get("zeros", [])
    if not isinstance(raw, list):
        raise ValueError(f"{where}.zeros: expected a list")
    for i, zd in enumerate(raw):
        zw = f"{where}.zeros[{i}]"
        if not isinstance(zd, dict):
            raise ValueError(f"{zw}: expected an object")
        unknown = set(zd) - {"re", "im", "mult"}
        if unknown:
            raise ValueError(f"{zw}: unknown fields {sorted(unknown)}")
        re = _require_number(zd.get("re", 0.0), f"{zw}.re")
        im = _require_number(zd.get("im", None), f"{zw}.im")
        mult = _require_int(zd.get("mult", 1), f"{zw}.mult")
        try:
            zeros.append(BlaschkeZero(re=re, im=im, mult=mult))
        except ValueError as exc:
            raise ValueError(f"{zw}: {exc}") from None
    try:
        return InnerFunctionSpec(tau=tau, c=c, zeros=tuple(zeros))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
